#!/usr/bin/env python3
"""Compare what `rvaft run` writes in two checkouts, case by case.

    python3 tools/compare_runs.py PARENT CHANGE

PARENT and CHANGE are checkouts of this repository. Every case runs
`python -m rvaft.cli run` twice, once with each checkout's `src/` on
PYTHONPATH, and compares the exit code, stdout, stderr and the files
written under `-o`. The script lists every case that differs and exits 1
on any difference, else 0.

The inputs are made once, from PARENT, so both checkouts read the same
bytes:
- the three perfbench workloads at seeds 1-3, from
  `perfbench/workloads.write_case` (the 50,000-event `replay-noise` stream
  too, so a full comparison takes minutes);
- the eight C2 traces of the shipped tree (`rvaft simulate` of each
  scenario and outcome): plain, with 30 noise events, and plain with every
  topic's leading slash removed, the other spelling that the reader maps.

Over each input it runs `merged`, `all` and each `phiN` of its tree, plain
and with `--strict`, reading the input from `--trace`, from stdin
redirected from the file, and from a stdin pipe. A single property writes
its lines to stdout; `all` writes its files under `-o`.
"""

import argparse
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SEEDS = (1, 2, 3)
SCENARIOS = ("fault-moving", "fault-at-waypoint", "attack-moving", "attack-at-waypoint")
OUTCOMES = ("bad", "good")
INPUTS = ("--trace", "stdin-file", "stdin-pipe")
JOBS = 2  # runs at a time; each holds one process and its output

_WRITE_CASE = """
import sys
from pathlib import Path
from workloads import WORKLOADS, write_case
for name in WORKLOADS:
    for seed in sys.argv[2:]:
        case = write_case(name, int(seed), Path(sys.argv[1]) / f"{name}-{seed}")
        print(case.tree, case.trace)
"""


def _python(checkout, *args, **kw):
    """Run Python with the checkout's `src/` on the path; return the result."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkout) / "src"))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, **kw)


def _checked(result):
    if result.returncode:
        sys.exit(f"input generation failed: {result.stderr.decode(errors='replace')}")
    return result.stdout.decode()


def make_inputs(parent, work):
    """(label, tree, trace) for every input, written under ``work``."""
    inputs = []
    # -B: perfbench is only read, so no bytecode is written under it.
    listing = _checked(_python(parent, "-B", "-c", _WRITE_CASE, str(work), *map(str, SEEDS),
                               cwd=Path(parent) / "perfbench"))
    for line in listing.splitlines():
        tree, trace = line.split()
        inputs.append((Path(trace).parent.name, tree, trace))
    tree = str(Path(parent) / "cases" / "remote_inspection.rvaft.json")
    for index, (scenario, outcome) in enumerate(itertools.product(SCENARIOS, OUTCOMES)):
        for noise in (0, 30):
            trace = work / f"{scenario}.{outcome}.noise{noise}.jsonl"
            _checked(_python(parent, "-m", "rvaft.cli", "simulate", scenario, outcome,
                             "--noise", str(noise), "--seed", str(index), "-o", str(trace)))
            inputs.append((trace.stem, tree, str(trace)))
        plain = work / f"{scenario}.{outcome}.noise0.jsonl"
        trace = work / f"{scenario}.{outcome}.noslash.jsonl"
        events = map(json.loads, plain.read_text().splitlines())
        trace.write_text("".join(json.dumps(dict(e, topic=e["topic"].removeprefix("/"))) + "\n"
                                 for e in events))
        inputs.append((trace.stem, tree, str(trace)))
    return inputs


def selectors(parent, tree):
    """`merged`, `all` and every branch id `rvaft branches` lists."""
    rows = _checked(_python(parent, "-m", "rvaft.cli", "branches", tree)).splitlines()
    return ["merged", "all"] + [row.split()[0] for row in rows]


def run_case(checkout, tree, trace, which, strict, source, out_dir):
    """Exit code, stdout, stderr and the `-o` files (name -> bytes) of one run."""
    argv = ["-m", "rvaft.cli", "run", tree, "--property", which]
    argv += ["--strict"] * strict
    out_dir.mkdir(parents=True)
    if which == "all":
        argv += ["-o", str(out_dir / "v.jsonl")]
    if source == "--trace":
        result = _python(checkout, *argv, "--trace", trace, stdin=subprocess.DEVNULL)
    elif source == "stdin-file":
        with open(trace, "rb") as fh:
            result = _python(checkout, *argv, stdin=fh)
    else:
        result = _python(checkout, *argv, input=Path(trace).read_bytes())
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    return result.returncode, result.stdout, result.stderr, files


def compare(parent, change, work):
    cases = [(label, tree, trace, which, strict, source)
             for label, tree, trace in make_inputs(parent, work)
             for which in selectors(parent, tree)
             for strict in (False, True)
             for source in INPUTS]

    def differs(numbered):
        number, (label, tree, trace, which, strict, source) = numbered
        out_dir = work / "out" / str(number)
        runs = [run_case(checkout, tree, trace, which, strict, source, out_dir / side)
                for side, checkout in (("parent", parent), ("change", change))]
        shutil.rmtree(out_dir)
        if runs[0] == runs[1]:
            return None
        parts = [name for name, a, b in zip(("exit code", "stdout", "stderr", "-o files"),
                                             *runs) if a != b]
        return (f"{label} --property {which}{' --strict' if strict else ''} "
                f"from {source}: {', '.join(parts)} differ")

    with ThreadPoolExecutor(JOBS) as pool:
        found = [d for d in pool.map(differs, enumerate(cases)) if d]
    for line in found:
        print(line)
    print(f"{len(cases)} cases, {len(found)} differ")
    return 1 if found else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="checkout whose outputs are the reference")
    parser.add_argument("change", help="checkout compared against it")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare_runs-") as work:
        return compare(os.path.abspath(args.parent), os.path.abspath(args.change),
                       Path(work))


if __name__ == "__main__":
    sys.exit(main())
