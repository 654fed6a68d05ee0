#!/usr/bin/env python3
"""Compare what `rvaft run` and `rvaft prune` write in two checkouts.

    python3 tools/compare_runs.py PARENT CHANGE

PARENT and CHANGE are checkouts of this repository. Every case runs
`python -m rvaft.cli` twice, once with each checkout's `src/` on
PYTHONPATH, and compares the exit code, stdout, stderr and, for `run`, the
files written under `-o`. The script lists every case that differs and
exits 1 on any difference, else 0.

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

`prune` runs with every removal of one and of two non-root nodes of PARENT's
trees: the two shipped trees in `cases/` and the trees whose compile output
`tests/test_compile_goldens.py` records in `tests/data/`.
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
from functools import partial
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


def prune_trees(parent):
    """The shipped trees, then the trees of the compile goldens that are kept
    in `tests/data/` (the other golden tree is a shipped one)."""
    data = Path(parent) / "tests" / "data"
    goldens = [data / golden.name.replace(".compile.txt", ".rvaft.json")
               for golden in sorted(data.glob("*.compile.txt"))]
    return sorted((Path(parent) / "cases").glob("*.rvaft.json")) + [
        tree for tree in goldens if tree.exists()]


def run_case(tree, trace, which, strict, source, checkout, out_dir):
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


def prune_case(tree, remove, checkout, _out_dir):
    """Exit code, stdout and stderr of one prune."""
    result = _python(checkout, "-m", "rvaft.cli", "prune", str(tree), "--remove", remove,
                     stdin=subprocess.DEVNULL)
    return result.returncode, result.stdout, result.stderr


def compare(parent, change, work):
    cases = [(f"{label} --property {which}{' --strict' if strict else ''} from {source}",
              partial(run_case, tree, trace, which, strict, source))
             for label, tree, trace in make_inputs(parent, work)
             for which in selectors(parent, tree)
             for strict in (False, True)
             for source in INPUTS]
    for tree in prune_trees(parent):
        doc = json.loads(tree.read_bytes())
        ids = [nid for nid in doc["nodes"] if nid != doc["root"]]
        removals = [",".join(pick) for size in (1, 2) for pick in itertools.combinations(ids, size)]
        cases += [(f"prune {tree.name} --remove {remove}", partial(prune_case, tree, remove))
                  for remove in removals]

    def differs(numbered):
        number, (case, run) = numbered
        out_dir = work / "out" / str(number)
        runs = [run(checkout, out_dir / side)
                for side, checkout in (("parent", parent), ("change", change))]
        shutil.rmtree(out_dir, ignore_errors=True)
        if runs[0] == runs[1]:
            return None
        parts = [name for name, a, b in zip(("exit code", "stdout", "stderr", "-o files"),
                                             *runs) if a != b]
        return f"{case}: {', '.join(parts)} differ"

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
