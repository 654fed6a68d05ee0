"""Command-line surface: validate, prune, annotate, branches, compile, run,
simulate, bench.

Exit codes: 0 no detection (verdict stayed violated/unknown), 1 usage or
input error, 2 detection (the monitored fault/attack was observed). The
detection polarity is deliberate: these properties describe bad scenarios,
so satisfaction is the alarming outcome.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import random
import socket
import statistics
import sys
import time

from . import casestudy
from .compiler import compile_tree
from .engine import Monitor, TraceRunner, Verdict
from .errors import RvaftError
from .fileformat import (
    TraceStats,
    emit_spec,
    format_event,
    parse_guard,
    parse_tree,
    read_trace,
    serialize_tree,
    verdict_record_body,
    verdict_record_line,
)
from .model import annotate as annotate_node, prune, validate
from .terms import Bind, EventAnnotation, normalize_event, normalize_value

log = logging.getLogger("rvaft")

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging():
    level = _LOG_LEVELS.get(os.environ.get("RVAFT_LOG", "warn").lower(), logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _load_tree(path):
    with open(path, "rb") as fh:
        return parse_tree(fh.read())


def _write_text(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_validate(args):
    tree = _load_tree(args.tree)
    violations = validate(tree, runtime_ready=args.runtime_ready)
    for v in violations:
        print(v, file=sys.stderr)
    if violations:
        print(f"{len(violations)} violation(s)", file=sys.stderr)
        return 1
    print(f"{tree.name or args.tree}: ok")
    return 0


def cmd_prune(args):
    tree = _load_tree(args.tree)
    remove = {part for part in args.remove.split(",") if part}
    pruned = prune(tree, remove)
    _write_text(args.output, serialize_tree(pruned))
    return 0


def cmd_annotate(args):
    tree = _load_tree(args.tree)
    pattern = []
    if args.pattern:
        raw = json.loads(args.pattern)
        for key, value in raw.items():
            if isinstance(value, dict) and set(value) == {"bind"}:
                pattern.append((key, Bind(value["bind"])))
            else:
                pattern.append((key, normalize_value(value)))
    guard = parse_guard(args.guard) if args.guard else None
    ann = EventAnnotation(args.name, tuple(pattern), guard, args.on_guard_fail)
    _write_text(args.output, serialize_tree(annotate_node(tree, args.node, ann)))
    return 0


def cmd_branches(args):
    tree = _load_tree(args.tree)
    spec = compile_tree(tree, do_merge=False)
    rows = []
    for prop in spec.properties:
        labels = " -> ".join(tree.nodes[nid].label or nid for nid in prop.path)
        rows.append((prop.id, prop.node_class, labels))
    width = max(len(r[0]) for r in rows)
    for pid, cls, labels in rows:
        print(f"{pid:<{width}}  {cls:<6}  {labels}")
    return 0


def cmd_compile(args):
    tree = _load_tree(args.tree)
    spec = compile_tree(tree, do_merge=args.merge)
    _write_text(args.output, emit_spec(spec))
    return 0


def _events_from_tcp(port, stats):
    """Minimal live-stream contract: one JSONL connection at a time."""
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    server.bind(("127.0.0.1", port))
    server.listen(1)
    log.info("listening on 127.0.0.1:%d", port)
    conn, peer = server.accept()
    log.info("connection from %s:%d", *peer)
    try:
        with conn.makefile("rb") as fh:
            yield from read_trace(fh, stats)
    finally:
        conn.close()
        server.close()


# Verdict lines a replay joins into one write. Where stdout is unbuffered
# (PYTHONUNBUFFERED), every write is a system call.
REPLAY_BATCH_LINES = 1000


def _same_bindings(a, b):
    """Do two records' bindings give the same line? Equal values of another
    type do not: ``True == 1.0``, but one is written ``true``, the other
    ``1``."""
    return a is b or (a == b and all(type(v) is type(b[k]) for k, v in a.items()))


class _VerdictWriter:
    """Writes one runner's verdict lines to ``out`` as soon as each is final,
    ``batch`` lines per write and flush.

    A ``?`` line is held until the next event arrives or the input ends: at
    the end ``TraceRunner.finish`` may still close it to ``bottom``. A
    ``top`` or ``bottom`` line is final at once, since the verdict is sticky.

    The body of the last line written (everything after ``event_index``) is
    kept with the state it was built from, and reused while the next
    record's state is equal by value, so a line is built once per monitor
    state rather than once per event.
    """

    def __init__(self, out, batch):
        self.out = out
        self.batch = batch
        self.held = None
        self.pending = []
        self.state = None  # (verdict, property, live_branches, skipped) of body
        self.bindings = None  # the bindings body was built from
        self.body = None

    def push(self, record):
        if self.held is not None:
            self._emit(self.held)
            self.held = None
        if record.verdict is Verdict.UNKNOWN:
            self.held = record
        else:
            self._emit(record)

    def close(self):
        if self.held is not None:
            self._emit(self.held)
        if self.pending:
            self._drain()

    def _emit(self, record):
        state = (record.verdict, record.property, record.live_branches, record.skipped)
        if state != self.state or not _same_bindings(record.bindings, self.bindings):
            self.state, self.bindings = state, record.bindings
            self.body = verdict_record_body(record)
        self.pending.append(verdict_record_line(record, self.body) + "\n")
        if len(self.pending) >= self.batch:
            self._drain()

    def _drain(self):
        self.out.write("".join(self.pending))
        self.out.flush()
        self.pending.clear()


def cmd_run(args):
    """One pass over the input: each event goes to every selected runner,
    and each verdict line is written as soon as it is final. Live input
    (stdin, ``--listen``) is written and flushed line by line."""
    tree = _load_tree(args.tree)
    spec = compile_tree(tree, do_merge=True)
    if args.property == "all":
        selectors = list(spec.property_ids()) + ["merged"]
        if not args.output or args.output == "-":
            print("--property all needs -o (one verdict file per property)", file=sys.stderr)
            return 1
    else:
        selectors = [args.property]
    runners = [TraceRunner(spec, which, strict=args.strict) for which in selectors]

    stats = TraceStats()
    with contextlib.ExitStack() as stack:
        if args.trace:
            events = read_trace(stack.enter_context(open(args.trace, "rb")), stats)
        elif args.listen is not None:
            events = stack.enter_context(
                contextlib.closing(_events_from_tcp(args.listen, stats)))
        else:
            events = read_trace(sys.stdin, stats)
        batch = REPLAY_BATCH_LINES if args.trace else 1
        writers = []
        for which in selectors:
            path = args.output
            if path and len(selectors) > 1:
                stem, dot, rest = path.partition(".")
                path = f"{stem}.{which}.{rest}" if dot else f"{path}.{which}"
            if not path or path == "-":
                out = sys.stdout
            else:
                out = stack.enter_context(open(path, "w", encoding="utf-8", newline="\n"))
            writers.append(_VerdictWriter(out, batch))
        for event in events:
            for runner, writer in zip(runners, writers):
                writer.push(runner.feed(event))
        finals = [runner.finish() for runner in runners]
        for writer in writers:
            writer.close()

    print(f"trace: lines={stats.lines} events={stats.events} malformed={stats.malformed}",
          file=sys.stderr)
    for runner, final in zip(runners, finals):
        attribution = sorted(runner.attribution()) if final is Verdict.SATISFIED else []
        classes = sorted(
            {p.node_class for p in spec.properties if p.id in attribution}
        )
        print(
            f"{runner.which}: verdict={final.symbol()}"
            + (f" detected={'/'.join(classes)} branches={','.join(attribution)}"
               if final is Verdict.SATISFIED else ""),
            file=sys.stderr,
        )
    return 2 if Verdict.SATISFIED in finals else 0


def cmd_simulate(args):
    trace = casestudy.scenario_trace(args.scenario, args.outcome)
    if args.noise:
        rng = random.Random(args.seed)
        trace = casestudy.interleave(trace, casestudy.noise_events(args.noise, rng), rng)
    _write_text(args.output, "".join(format_event(ev) + "\n" for ev in trace))
    return 0


def _bench_stream(n, rng):
    """Noise-heavy stream: idle chatter, low radiation, occasional arrivals."""
    out = []
    t = 0.0
    for _ in range(n):
        t += rng.uniform(0.01, 0.2)
        roll = rng.random()
        if roll < 0.55:
            out.append({"topic": "radiation_sensor_plugin/sensor_0",
                        "value": round(rng.uniform(10.0, 200.0), 1), "time": round(t, 3)})
        elif roll < 0.85:
            out.append({"topic": "odom", "time": round(t, 3), "seq": rng.randrange(10**6)})
        else:
            out.append({"topic": "move_base/result", "time": round(t, 3),
                        "waypoint": rng.randrange(4), "result": "success"})
    return [normalize_event(ev) for ev in out]


def bench_report(spec, lengths, seed=0, repetitions=5):
    """Per-length mean/percentile per-event cost of the merged monitor.

    Each length runs several times and keeps its least-noisy (fastest mean)
    repetition; the collector is paused while sampling so its pauses don't
    land on arbitrary events. The streams are generated first and the
    repetitions go round-robin over the lengths, so a drift in host speed
    reaches every length alike instead of passing for a length effect.
    """
    import gc

    rng = random.Random(seed)
    warm = Monitor(spec.merged, topics=spec.topics)
    for event in _bench_stream(2000, random.Random(seed + 1)):
        warm.step(event)
    streams = [_bench_stream(n, rng) for n in lengths]
    best = [None] * len(streams)
    for _ in range(repetitions):
        for i, stream in enumerate(streams):
            monitor = Monitor(spec.merged, topics=spec.topics)
            samples = []
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                start = time.perf_counter()
                for event in stream:
                    t0 = time.perf_counter_ns()
                    monitor.step(event)
                    samples.append(time.perf_counter_ns() - t0)
                elapsed = time.perf_counter() - start
            finally:
                if gc_was_enabled:
                    gc.enable()
            mean_us = statistics.fmean(samples) / 1000.0
            if best[i] is None or mean_us < best[i][0]:
                best[i] = (mean_us, elapsed, samples, monitor.peak_alternatives)
    rows = []
    for n, (mean_us, elapsed, samples, peak) in zip(lengths, best):
        samples.sort()

        def pct(q):
            return samples[min(len(samples) - 1, int(q * len(samples)))] / 1000.0

        rows.append({
            "events": n,
            "events_per_s": n / elapsed,
            "mean_us": mean_us,
            "p50_us": pct(0.50),
            "p95_us": pct(0.95),
            "p99_us": pct(0.99),
            "peak_alternatives": peak,
        })
    means = [r["mean_us"] for r in rows]
    flatness = max(means) / min(means) if min(means) > 0 else float("inf")
    return rows, flatness


def cmd_bench(args):
    tree = _load_tree(args.tree)
    spec = compile_tree(tree, do_merge=True)
    lengths = (
        [int(x) for x in args.trace_lengths.split(",")]
        if args.trace_lengths
        else [args.events]
    )
    rows, flatness = bench_report(spec, lengths, seed=args.seed)
    print(f"{'events':>8}  {'events/s':>10}  {'mean us':>8}  {'p50 us':>7}  "
          f"{'p95 us':>7}  {'p99 us':>7}  {'peak alts':>9}")
    for r in rows:
        print(f"{r['events']:>8}  {r['events_per_s']:>10.0f}  {r['mean_us']:>8.2f}  "
              f"{r['p50_us']:>7.2f}  {r['p95_us']:>7.2f}  {r['p99_us']:>7.2f}  "
              f"{r['peak_alternatives']:>9}")
    print(f"flatness ratio (max mean / min mean): {flatness:.3f}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="rvaft",
        description="Compile attack-fault trees with runtime events into stream monitors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a tree document")
    p.add_argument("tree")
    p.add_argument("--runtime-ready", action=argparse.BooleanOptionalAction, default=True,
                   help="also require event annotations on all non-root leaves")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("prune", help="remove nodes and collapse the tree")
    p.add_argument("tree")
    p.add_argument("--remove", required=True, help="comma-separated node ids")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("annotate", help="attach a runtime event to a node")
    p.add_argument("tree")
    p.add_argument("--node", required=True)
    p.add_argument("--name", required=True)
    p.add_argument("--pattern", help="JSON object; {\"bind\": \"Var\"} values bind")
    p.add_argument("--guard")
    p.add_argument("--on-guard-fail", choices=["skip", "violate"])
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("branches", help="list branch properties")
    p.add_argument("tree")
    p.set_defaults(func=cmd_branches)

    p = sub.add_parser("compile", help="emit the monitor specification text")
    p.add_argument("tree")
    p.add_argument("--merge", action="store_true", help="emit one merged property")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", help="evaluate monitors over an event stream")
    p.add_argument("tree")
    p.add_argument("--property", default="merged",
                   help="'merged' (default), a branch id like phi1, or 'all'")
    src = p.add_mutually_exclusive_group()
    src.add_argument("--trace", help="JSONL trace file (default: stdin)")
    src.add_argument("--listen", type=int, metavar="PORT",
                     help="accept one JSONL connection on this TCP port")
    p.add_argument("--strict", action="store_true",
                   help="non-progressing subscribed events violate")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("simulate", help="write a case-study scenario trace")
    p.add_argument("scenario", choices=casestudy.SCENARIOS)
    p.add_argument("outcome", choices=casestudy.OUTCOMES)
    p.add_argument("--noise", type=int, default=0, metavar="N",
                   help="interleave N benign events")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bench", help="throughput and per-event cost")
    p.add_argument("tree")
    p.add_argument("--events", type=int, default=10000)
    p.add_argument("--trace-lengths", help="comma-separated stream lengths")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RvaftError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: input is nested too deeply", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
