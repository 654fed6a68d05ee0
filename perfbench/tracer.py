"""Traced in-process run of `rvaft.cli.main`, for the per-layer numbers.

Wrappers go around the public functions `rvaft run` reaches, at the names
its callers look them up by, and are all restored afterwards. Each wrapped
call records a span (name, start, end, parent span, run id) in flat arrays
kept in memory; `match_event` and `nullable`, called many times per step,
are only counted. The spans are written out once at the end, and a layer's
self time is its spans' duration minus that of their direct children. The
wrappers' own cost per call is measured on a no-op for each kind of wrapper
(`calibrate`) and taken out of the durations, self times and step times they
would otherwise swell.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import statistics
import sys
import threading
import time
from array import array
from types import SimpleNamespace

import drive

_STEP_OUTCOMES = ("dropped", "neutral", "progressed")

# Kinds of wrapper, each with its own calibrated cost: a plain span, a span
# that also counts Monitor.step's outcome, one that also notes
# TraceRunner.feed's runner, and one next() of a wrapped generator.
WRAPPER_KINDS = ("call", "step", "feed", "iter")


class Tracer:
    """Spans and counts of wrapped calls, in flat arrays until the run ends."""

    def __init__(self):
        self.names = []
        self.kinds = []  # wrapper kind of each name
        self._name_ids = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.run = array("i")
        self.run_id = 0
        self._stack = []
        self.counts = {}  # name -> [calls]
        self.outcomes = {}  # Monitor.step outcome -> calls
        self.runners = []
        self.spec = None  # the last compiled MonitorSpec
        self.peak_merged = 0
        self.peak_branch = 0
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _open(self, nid):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _nid(self, name, kind):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.kinds.append(kind)
        return self._name_ids[name]

    def spanned(self, name, fn, on_result=None, kind="call"):
        nid = self._nid(name, kind)

        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(args, result)
            return result
        return wrapper

    def spanned_iter(self, name, fn):
        """Wrap a generator function so that every next() is one span."""
        nid = self._nid(name, "iter")

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def stepped():
                while True:
                    idx = self._open(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    yield item
            return stepped()
        return wrapper

    def counted(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def count_outcome(self, _args, diag):
        self.outcomes[diag.outcome] = self.outcomes.get(diag.outcome, 0) + 1

    def note_runner(self, args, _record):
        runner = args[0]
        if not self.runners or self.runners[-1] is not runner:
            self.runners.append(runner)

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr, wrapped):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    @contextlib.contextmanager
    def installed(self):
        from rvaft import cli, compiler, engine

        def on_compile(args, spec):  # once per run, so left uncalibrated
            self.spec = spec

        patches = [
            (cli, "cmd_run", self.spanned("cli.cmd_run", cli.cmd_run)),
            (cli, "parse_tree", self.spanned("fileformat.parse_tree", cli.parse_tree)),
            (cli, "compile_tree",
             self.spanned("compiler.compile_tree", cli.compile_tree, on_compile)),
            (cli, "read_trace", self.spanned_iter("fileformat.read_trace", cli.read_trace)),
            (cli, "verdict_record_line",
             self.spanned("fileformat.verdict_record_line", cli.verdict_record_line)),
            (compiler, "decompose", self.spanned("compiler.decompose", compiler.decompose)),
            (compiler, "merge", self.spanned("compiler.merge", compiler.merge)),
            (engine.TraceRunner, "feed",
             self.spanned("engine.TraceRunner.feed", engine.TraceRunner.feed,
                          self.note_runner, "feed")),
            (engine.Monitor, "step",
             self.spanned("engine.Monitor.step", engine.Monitor.step, self.count_outcome,
                          "step")),
            (engine, "match_event", self.counted("terms.match_event", engine.match_event)),
            (engine, "nullable", self.counted("terms.nullable", engine.nullable)),
        ]
        try:
            for owner, attr, wrapped in patches:
                self._patch(owner, attr, wrapped)
            yield self
        finally:
            while self._restore:
                owner, attr, original = self._restore.pop()
                setattr(owner, attr, original)

    def collect_runners(self):
        """Fold the peak alternative counts of the runs so far into the
        tracer and drop the runners, which hold every verdict record."""
        for runner in self.runners:
            self.peak_merged = max(self.peak_merged, runner.monitor.peak_alternatives)
            for shadow in runner.shadows.values():
                self.peak_branch = max(self.peak_branch, shadow.peak_alternatives)
        self.runners.clear()

    # -- deriving ----------------------------------------------------------

    def totals(self):
        """Per span name: (calls, total ns, self ns, direct child spans as
        {wrapper kind: count})."""
        child_ns = [0] * len(self.name)
        children = {}  # (parent name id, child kind) -> child spans
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                child_ns[parent] += self.end[idx] - self.start[idx]
                key = (self.name[parent], self.kinds[self.name[idx]])
                children[key] = children.get(key, 0) + 1
        out = {}
        for idx, nid in enumerate(self.name):
            dur = self.end[idx] - self.start[idx]
            calls, total, own = out.get(nid, (0, 0, 0))
            out[nid] = (calls + 1, total + dur, own + dur - child_ns[idx])
        kids = {nid: {} for nid in out}
        for (nid, kind), n in children.items():
            kids[nid][kind] = n
        return {self.names[nid]: row + (kids[nid],) for nid, row in out.items()}

    def write(self, path):
        """All spans, one per line: run, name, start ns, end ns, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run\tname\tstart_ns\tend_ns\tparent\n")
            for idx, nid in enumerate(self.name):
                fh.write(f"{self.run[idx]}\t{self.names[nid]}\t{self.start[idx]}\t"
                         f"{self.end[idx]}\t{self.parent[idx]}\n")


def term_nodes(term):
    """Number of nodes in a monitor term."""
    from rvaft.terms import Term

    count, stack = 0, [term]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(getattr(node, f.name) for f in dataclasses.fields(node)
                     if isinstance(getattr(node, f.name), Term))
    return count


def traced_main(tracer, case, out_path, stdin_lines=None):
    """One in-process `rvaft run` under ``tracer``; returns its exit code,
    stdout lines, stderr text and wall seconds. A stdin workload's
    ``stdin_lines`` are written into a pipe on the same open-loop schedule
    as for a child process."""
    from rvaft import cli

    argv = ["run", str(case.tree)]
    if case.rate is None:
        argv += ["--trace", str(case.trace)]
    stderr = io.StringIO()
    writer = None
    old_stdin = sys.stdin
    with open(out_path, "w", encoding="utf-8") as out, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        if case.rate is not None:
            read_fd, write_fd = os.pipe()
            sys.stdin = io.TextIOWrapper(os.fdopen(read_fd, "rb"), encoding="utf-8")
            writer = threading.Thread(target=drive.write_scheduled, args=(
                os.fdopen(write_fd, "wb"), stdin_lines, start, case.rate, []))
            writer.start()
        try:
            tracer.run_id += 1
            code = cli.main(argv)
        finally:
            wall = time.perf_counter() - start
            tracer.collect_runners()
            if writer is not None:
                sys.stdin.close()
                sys.stdin = old_stdin
                writer.join(timeout=drive.CHILD_TIMEOUT_S)
    with open(out_path, "rb") as fh:
        out_lines = fh.read().splitlines()
    return code, out_lines, stderr.getvalue(), wall


def _calls_ns(fn, calls):
    start = time.perf_counter_ns()
    for _ in range(calls):
        fn(None)
    return time.perf_counter_ns() - start


def _nexts_ns(gen, calls):
    start = time.perf_counter_ns()
    for _ in range(calls):
        next(gen)
    return time.perf_counter_ns() - start


def calibrate(batches=7, calls=5000):
    """Tracing cost per wrapped call in ns, each the median over batches.
    For each of `WRAPPER_KINDS`, ``inner`` lies within a span's own start and
    end, ``outer`` outside them and so in its parent's self time; ``count``
    is one counted call."""
    diag = SimpleNamespace(outcome="neutral")

    def work(_arg):
        return diag

    def endless(_arg):
        while True:
            yield diag

    samples = {kind: ([], []) for kind in WRAPPER_KINDS}
    count = []
    for _ in range(batches):
        for kind, (inner, outer) in samples.items():
            t = Tracer()
            if kind == "iter":
                plain = _nexts_ns(endless(None), calls) / calls
                both = _nexts_ns(t.spanned_iter("noop", endless)(None), calls) / calls
            else:
                on_result = {"call": None, "step": t.count_outcome,
                             "feed": t.note_runner}[kind]
                plain = _calls_ns(work, calls) / calls
                both = _calls_ns(t.spanned("noop", work, on_result, kind), calls) / calls
            recorded = sum(e - s for s, e in zip(t.start, t.end)) / calls - plain
            inner.append(recorded)
            outer.append(both - plain - recorded)
        counted = Tracer().counted("noop", work)
        count.append((_calls_ns(counted, calls) - _calls_ns(work, calls)) / calls)
    cost = {kind: {"inner": statistics.median(inner), "outer": statistics.median(outer)}
            for kind, (inner, outer) in samples.items()}
    cost["count"] = statistics.median(count)
    return cost


def layer_metrics(tracer, events, cost):
    """Per-layer figures from the spans and counts of ``events`` fed events,
    less the tracing cost per wrapped call measured by ``calibrate``."""
    t = tracer.totals()
    passes = max(1, tracer.run_id)

    def row(name):
        return t.get(name, (0, 0, 0, {}))

    def total_ns(name):
        calls, total, _, _ = row(name)
        kind = tracer.kinds[tracer.names.index(name)] if calls else "call"
        return total - calls * cost[kind]["inner"]

    def self_ns(name):
        _, _, own, children = row(name)
        return own - sum(n * cost[kind]["outer"] for kind, n in children.items())

    steps = row("engine.Monitor.step")[0]
    matches = tracer.counts.get("terms.match_event", [0])[0]
    nullables = tracer.counts.get("terms.nullable", [0])[0]
    counted = matches + nullables
    step_ns = total_ns("engine.Monitor.step") - counted * cost["count"]
    spec = tracer.spec
    out = {
        "fileformat.read_trace.us_per_event": total_ns("fileformat.read_trace") / events / 1e3,
        "fileformat.verdict_record_line.us_per_event":
            total_ns("fileformat.verdict_record_line") / events / 1e3,
        "fileformat.parse_tree.ms": total_ns("fileformat.parse_tree") / passes / 1e6,
        "compiler.decompose.ms": total_ns("compiler.decompose") / passes / 1e6,
        "compiler.merge.ms": total_ns("compiler.merge") / passes / 1e6,
        "compiler.branches": len(spec.properties),
        "compiler.merged_term_nodes": term_nodes(spec.merged),
        "engine.Monitor.step.us_per_call": step_ns / max(1, steps) / 1e3,
        "engine.Monitor.step.calls_per_event": steps / events,
    }
    for outcome in _STEP_OUTCOMES:
        out[f"engine.Monitor.step.{outcome}_share"] = (tracer.outcomes.get(outcome, 0)
                                                       / max(1, steps))
    out.update({
        "engine.Monitor.peak_alternatives.merged": tracer.peak_merged,
        "engine.Monitor.peak_alternatives.branch_max": tracer.peak_branch,
        "engine.TraceRunner.feed.self_us_per_event":
            self_ns("engine.TraceRunner.feed") / events / 1e3,
        "terms.match_event.calls_per_event": matches / events,
        "terms.nullable.calls_per_event": nullables / events,
        "cli.cmd_run.self_us_per_event": self_ns("cli.cmd_run") / events / 1e3,
    })
    return out
