"""Benchmark of `rvaft run`, end to end (untraced child processes) and per
layer (a traced in-process run).

    python3 perfbench/run.py --workload replay-noise --seed 1 --seconds 35 --trace 0

Run from a source checkout; the program is imported from `src/`. The
workload's inputs are generated from the seed and written to
`.perfbench_work/` before any timing starts. With `--trace 0` the command
runs `rvaft run` over the workload's stream again and again for `--seconds`,
checking every verdict line, and before each of these runs it sets it up on
an empty trace twice (set-up time), so that the set-up samples spread over
the whole measurement. With `--trace 1` it alternates one untraced run with
one traced in-process run for `--seconds`, writes the spans to
`.perfbench_work/spans-<workload>.tsv` and reports the per-layer figures.

Every end-to-end metric is reported on every workload. A trace file is all
there at spawn, so on the file workloads each verdict latency runs from
spawn; while `rvaft run` answers only at the end of its input, it repeats
the run's wall time. On live-stdin, events_per_s mostly follows the writer's
fixed rate.

The last line of stdout is one JSON object: `correct`, `attempted` (input
events sent), `failed` (input events whose verdict line was missing,
duplicated or wrong) and `metrics` (name -> value and unit). The lines
before it print the same metrics as a table, plus the verdict error ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

import checker
import drive
import tracer as tracing
import workloads

SETUP_PER_REPLAY = 2
WORKDIR = ".perfbench_work"

END_TO_END_UNITS = {
    "setup_s": "s",
    "events_per_s": "events/s",
    "peak_rss_mb": "MB",
    "verdict_latency_p50_ms": "ms",
    "verdict_latency_p99_ms": "ms",
}
PER_LAYER_UNITS = {
    "fileformat.read_trace.us_per_event": "us",
    "fileformat.verdict_record_line.us_per_event": "us",
    "fileformat.parse_tree.ms": "ms",
    "compiler.decompose.ms": "ms",
    "compiler.merge.ms": "ms",
    "compiler.branches": "count",
    "compiler.merged_term_nodes": "count",
    "engine.Monitor.step.us_per_call": "us",
    "engine.Monitor.step.calls_per_event": "count",
    "engine.Monitor.step.dropped_share": "ratio",
    "engine.Monitor.step.neutral_share": "ratio",
    "engine.Monitor.step.progressed_share": "ratio",
    "engine.Monitor.peak_alternatives.merged": "count",
    "engine.Monitor.peak_alternatives.branch_max": "count",
    "engine.TraceRunner.feed.self_us_per_event": "us",
    "terms.match_event.calls_per_event": "count",
    "terms.nullable.calls_per_event": "count",
    "cli.cmd_run.self_us_per_event": "us",
    "bench.generator_lag_p99_ms": "ms",
    "bench.tracing_overhead_ratio": "ratio",
}


class BenchError(Exception):
    pass


class Bench:
    """One workload's generated case and the environment to run it in."""

    def __init__(self, root, case, work):
        self.root = root
        self.case = case
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.stdin_lines = (case.trace.read_bytes().splitlines(keepends=True)
                            if case.rate is not None else None)
        self.branch = self._branch_id()

    def _child(self, argv, **kw):
        return drive.run_child(argv, self.env, self.root, self.work / "stderr.txt", **kw)

    def _branch_id(self):
        """Id `rvaft branches` gives the branch the episode completes."""
        run = self._child([sys.executable, "-m", "rvaft.cli", "branches",
                           str(self.case.tree)])
        for line in run.lines:
            parts = line.decode("utf-8").split(None, 2)
            if len(parts) == 3 and parts[2] == self.case.path_labels:
                return parts[0]
        raise BenchError(f"no branch with path {self.case.path_labels!r}: "
                         f"exit {run.returncode}, {run.stderr.strip()}")

    def setup_time(self):
        """Seconds from spawn to exit of `rvaft run` on an empty trace."""
        empty = self.work / "empty.trace.jsonl"
        empty.write_bytes(b"")
        run = self._child(drive.rvaft_command(sys.executable, self.case.tree, empty))
        if run.returncode != 0 or run.lines:
            raise BenchError(f"set-up run on an empty trace: exit {run.returncode}, "
                             f"{len(run.lines)} lines, {run.stderr.strip()}")
        return run.wall_s

    def replay(self):
        """One untraced `rvaft run` over the workload: the child's figures,
        its failed event count and its per-event verdict latencies."""
        case = self.case
        if case.rate is None:
            run = self._child(drive.rvaft_command(sys.executable, case.tree, case.trace))
        else:
            run = self._child(drive.rvaft_command(sys.executable, case.tree),
                              stdin_lines=self.stdin_lines, rate=case.rate)
        check = checker.check_run(case.events, self.branch, run.returncode, run.lines,
                                  run.stderr)
        lat = drive.latencies(run.start, run.rate, run.read_at, check.line_index,
                              case.events, run.start + run.wall_s)
        run.lines = run.read_at = None  # the verdict lines are checked; free them
        return run, check.failed, lat


def _room_for_one_more(began, seconds, durations):
    """Whether another repetition as long as the mean so far still ends
    within ``seconds`` of ``began``."""
    elapsed = time.perf_counter() - began
    return elapsed + statistics.fmean(durations) <= seconds


def end_to_end(bench, seconds):
    setups, runs, p50, p99, round_s = [], [], [], [], []
    failed = 0
    began = time.perf_counter()
    while not runs or _room_for_one_more(began, seconds, round_s):
        round_began = time.perf_counter()
        setups.extend(bench.setup_time() for _ in range(SETUP_PER_REPLAY))
        run, bad, lat = bench.replay()
        round_s.append(time.perf_counter() - round_began)
        runs.append(run)
        failed += bad
        p50.append(drive.percentile(lat, 50))
        p99.append(drive.percentile(lat, 99))
    events = bench.case.events
    metrics = {
        "setup_s": statistics.median(setups),
        "events_per_s": statistics.median(events / r.wall_s for r in runs),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        "verdict_latency_p50_ms": statistics.median(p50) * 1e3,
        "verdict_latency_p99_ms": statistics.median(p99) * 1e3,
    }
    lag = [x for r in runs for x in r.lag_s]
    notes = [f"{len(runs)} runs", f"{len(setups)} set-ups",
             f"generator lag p99 {drive.percentile(lag, 99) * 1e3:.3g} ms"]
    return metrics, events * len(runs), failed, notes


def per_layer(bench, seconds):
    tracer = tracing.Tracer()
    case = bench.case
    ratios, lag = [], []
    failed = 0
    out_path = bench.work / "traced.verdicts.jsonl"
    pair_s = []
    began = time.perf_counter()
    while not ratios or _room_for_one_more(began, seconds, pair_s):
        pair_began = time.perf_counter()
        run, bad, _ = bench.replay()
        failed += bad
        lag.extend(run.lag_s)
        with tracer.installed():
            code, lines, stderr, wall = tracing.traced_main(tracer, case, out_path,
                                                            bench.stdin_lines)
        failed += checker.check_run(case.events, bench.branch, code, lines, stderr).failed
        ratios.append(wall / run.wall_s)
        pair_s.append(time.perf_counter() - pair_began)
    passes = len(ratios)
    tracer.write(bench.work / f"spans-{case.name}.tsv")
    cost = tracing.calibrate()
    metrics = tracing.layer_metrics(tracer, case.events * passes, cost)
    metrics["bench.generator_lag_p99_ms"] = drive.percentile(lag, 99) * 1e3
    metrics["bench.tracing_overhead_ratio"] = statistics.median(ratios)
    notes = [f"{passes} traced runs", "tracing cost per call "
             + ", ".join(f"{kind} {c['inner']:.0f}+{c['outer']:.0f} ns"
                         for kind, c in cost.items() if kind != "count")
             + f", count {cost['count']:.0f} ns"]
    return metrics, 2 * case.events * passes, failed, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = workloads.ROOT
    needed = [root / "src" / "rvaft" / "cli.py", workloads.SHIPPED_TREE, workloads.FULL_TREE]
    missing = [str(p.relative_to(root)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a source checkout of rvaft, missing {', '.join(missing)}",
              file=sys.stderr)
        return 1
    sys.path.insert(0, str(root / "src"))

    work = root / WORKDIR
    case = workloads.write_case(args.workload, args.seed, work)
    try:
        bench = Bench(root, case, work)
        if args.trace:
            metrics, attempted, failed, notes = per_layer(bench, args.seconds)
            units = PER_LAYER_UNITS
        else:
            metrics, attempted, failed, notes = end_to_end(bench, args.seconds)
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for path in (case.trace, work / "traced.verdicts.jsonl"):
            path.unlink(missing_ok=True)

    print(", ".join([f"workload {case.name}", f"seed {args.seed}",
                     f"{case.events} events per run"] + notes))
    for name, unit in units.items():
        print(f"  {name:<46} {metrics[name]:>14.6g} {unit}")
    print(f"  {'verdict_error_ratio':<46} {failed / attempted:>14.6g} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
