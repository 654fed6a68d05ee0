"""Command-line surface: validate, prune, annotate, branches, compile, run,
simulate.

Exit codes: 0 no detection (verdict stayed violated/unknown), 1 usage or
input error, 2 detection (the monitored fault/attack was observed), 130
interrupted (SIGINT). The detection polarity is deliberate: these properties
describe bad scenarios, so satisfaction is the alarming outcome.

``run`` calls ``gc.freeze()`` once its runners are built, before the first
event: what is alive then lives until exit, and the collections run at
interpreter exit no longer walk it. A ``main`` called in-process (tests, a
traced benchmark run) freezes that process's heap too.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import logging
import os
import sys

from . import casestudy
from .compiler import compile_tree
from .engine import TraceRunner, Verdict
from .errors import RvaftError
from .fileformat import (
    TraceStats,
    emit_spec,
    format_event,
    parse_annotation,
    parse_tree,
    read_trace,
    serialize_tree,
    verdict_record_body,
    verdict_record_line,
)
from .model import annotate as annotate_node, prune, validate

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
    event = {"name": args.name, "pattern": json.loads(args.pattern or "{}"),
             "guard": args.guard, "on_guard_fail": args.on_guard_fail}
    ann = parse_annotation(args.node, {k: v for k, v in event.items() if v is not None})
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


def _events_from_tcp(port, stats, fields):
    """Minimal live-stream contract: one JSONL connection at a time. Port 0
    asks the system for a free port; the address logged is the bound one."""
    import socket

    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as server:
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind(("127.0.0.1", port))
        server.listen(1)
        log.info("listening on 127.0.0.1:%d", server.getsockname()[1])
        conn, peer = server.accept()
        log.info("connection from %s:%d", *peer)
        with conn, conn.makefile("rb") as fh:
            yield from read_trace(fh, stats, fields)


# Verdict lines a replay joins into one write. Where stdout is unbuffered
# (PYTHONUNBUFFERED), every write is a system call.
REPLAY_BATCH_LINES = 1000


class _VerdictWriter:
    """Writes one runner's verdict lines to ``out``, numbering them from 0.

    On live input (stdin, ``--listen``) every line is final once its event is
    stepped, and is written and flushed on its own: the end of a live input
    only means that the feed stopped, so it closes nothing. A replay
    (``--trace``) writes ``REPLAY_BATCH_LINES`` lines per write and flush,
    and keeps its newest line pending until the next event or the end of the
    input, where ``close`` lets the closing state from
    ``TraceRunner.finish`` replace it.

    A line's body (everything after ``event_index``) is built from a state
    and reused while the runner hands on that same state object, which it
    does while no monitor changes: a line is built once per monitor state
    rather than once per event.
    """

    def __init__(self, out, replay):
        self.out = out
        self.replay = replay
        self.index = 0  # the next line's event_index
        self.state = self.body = None  # the newest state and its body
        self.pending = []

    def push(self, state):
        if state is not self.state:
            self.state = state
            self.body = verdict_record_body(state)
        line = verdict_record_line(self.index, self.body) + "\n"
        self.index += 1
        if not self.replay:
            self.out.write(line)
            self.out.flush()
            return
        if len(self.pending) >= REPLAY_BATCH_LINES:
            self._drain()
        self.pending.append(line)

    def close(self, state=None):
        """Write every pending line. A closing ``state`` other than the
        newest replaces the newest line; without one (an interrupt), that
        line stays as it stood."""
        if state is not None and state is not self.state and self.pending:
            self.pending[-1] = verdict_record_line(
                self.index - 1, verdict_record_body(state)) + "\n"
        if self.pending:
            self._drain()

    def _drain(self):
        self.out.write("".join(self.pending))
        self.out.flush()
        self.pending.clear()


def _property_path(path, which):
    """``path`` with ``.which`` put before the suffixes of its file name:
    ``d.d/out.verdicts.jsonl`` -> ``d.d/out.phi1.verdicts.jsonl``."""
    name = os.path.basename(path)
    stem, dot, rest = name.partition(".")
    return path[:len(path) - len(name)] + (f"{stem}.{which}.{rest}" if dot
                                           else f"{name}.{which}")


def cmd_run(args):
    """One pass over the input: each event goes to every selected runner,
    and each verdict line is written as soon as it is final. A replay
    (``--trace``) ends with the mission, so its end closes an undecided
    monitor to violated; live input (stdin, ``--listen``) is written and
    flushed line by line, and its end closes nothing."""
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
    replay = args.trace is not None
    with contextlib.ExitStack() as stack:
        if replay:
            events = read_trace(stack.enter_context(open(args.trace, "rb")), stats,
                                spec.fields)
        elif args.listen is not None:
            events = stack.enter_context(
                contextlib.closing(_events_from_tcp(args.listen, stats, spec.fields)))
        else:
            # Bytes, so that stdin decodes as --trace and --listen do, with
            # errors replaced; a text stream with no buffer is read as is.
            stdin = getattr(sys.stdin, "buffer", sys.stdin)
            events = read_trace(stdin, stats, spec.fields)
        writers = []
        for which in selectors:
            path = args.output
            if path and len(selectors) > 1:
                path = _property_path(path, which)
            if not path or path == "-":
                out = sys.stdout
            else:
                out = stack.enter_context(open(path, "w", encoding="utf-8", newline="\n"))
            writers.append(_VerdictWriter(out, replay))
        steps = [(runner.feed, writer.push) for runner, writer in zip(runners, writers)]
        gc.freeze()
        try:
            for event in events:
                for feed, push in steps:
                    push(feed(event))
        except KeyboardInterrupt:
            # Every line of an event read so far goes out; a replay's newest
            # line stays as it stood, since the input did not end.
            for writer in writers:
                writer.close()
            raise
        finals = [runner.finish() if replay else runner.state for runner in runners]
        for writer, final in zip(writers, finals):
            writer.close(final)

    print(f"trace: lines={stats.lines} events={stats.events} malformed={stats.malformed}",
          file=sys.stderr)
    for final in finals:
        detected = final.verdict is Verdict.SATISFIED
        attribution = sorted(final.live_branches) if detected else []
        classes = sorted(
            {p.node_class for p in spec.properties if p.id in attribution}
        )
        print(
            f"{final.property}: verdict={final.verdict.symbol()}"
            + (f" detected={'/'.join(classes)} branches={','.join(attribution)}"
               if detected else ""),
            file=sys.stderr,
        )
    return 2 if any(final.verdict is Verdict.SATISFIED for final in finals) else 0


def cmd_simulate(args):
    trace = casestudy.scenario_trace(args.scenario, args.outcome)
    if args.noise:
        trace = casestudy.noisy_trace(trace, args.noise, args.seed)
    _write_text(args.output, "".join(format_event(ev) + "\n" for ev in trace))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, as on any other input error: argparse's 2
    is the exit code of a detection. Subcommand parsers are of this class
    too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _port(text):
    try:
        if 0 <= int(text) <= 65535:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not a port from 0 to 65535: {text!r}")


def build_parser():
    parser = _Parser(
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
    src.add_argument("--listen", type=_port, metavar="PORT",
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

    return parser


def main(argv=None):
    try:
        _setup_logging()
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (RvaftError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: input is nested too deeply", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
