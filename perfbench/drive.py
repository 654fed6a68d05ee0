"""Runs `rvaft run` as a child process, as a deployment would, and times it.

One benchmark process drives each child through one pipe pair: the main
thread reads verdict lines and stamps each with the time it was read; for
stdin workloads one more thread writes events on an open-loop schedule that
does not slow when the child does. Stderr goes to a file. Peak RSS comes from
`os.wait4` for that child alone (`RUSAGE_CHILDREN` would report the largest
child ever reaped).
"""

from __future__ import annotations

import math
import os
import selectors
import subprocess
import threading
import time
from dataclasses import dataclass, field

CHILD_TIMEOUT_S = 150.0


@dataclass
class ChildRun:
    returncode: int
    wall_s: float  # spawn to exit
    peak_rss_mb: float
    lines: list  # stdout lines, newline stripped
    read_at: list  # perf_counter() seconds when each line was read
    start: float  # perf_counter() seconds just before the spawn
    rate: float | None  # stdin events/s; None when every event is due at spawn
    lag_s: list = field(default_factory=list)  # how late each input was handed over
    stderr: str = ""


def rvaft_command(python, tree, trace=None):
    argv = [python, "-m", "rvaft.cli", "run", str(tree)]
    return argv + ["--trace", str(trace)] if trace is not None else argv


def write_scheduled(pipe, lines, start, rate, lag):
    """Open loop: line i is due at start + i/rate, whatever the child does."""
    try:
        for i, line in enumerate(lines):
            due = start + i / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            pipe.write(line)
            pipe.flush()
            lag.append(time.perf_counter() - due)
    except BrokenPipeError:
        pass
    finally:
        try:
            pipe.close()
        except BrokenPipeError:
            pass


def _read_lines(proc, deadline):
    """All stdout lines with read timestamps; kills the child at ``deadline``."""
    lines, read_at = [], []
    tail = b""
    fd = proc.stdout.fileno()
    with selectors.DefaultSelector() as sel:
        sel.register(fd, selectors.EVENT_READ)
        while True:
            if not sel.select(timeout=max(0.0, deadline - time.perf_counter())):
                proc.kill()
                break
            chunk = os.read(fd, 1 << 16)
            now = time.perf_counter()
            if not chunk:
                break
            parts = (tail + chunk).split(b"\n")
            tail = parts.pop()
            lines.extend(parts)
            read_at.extend([now] * len(parts))
    if tail:
        lines.append(tail)
        read_at.append(time.perf_counter())
    return lines, read_at


def run_child(argv, env, cwd, stderr_path, stdin_lines=None, rate=None):
    """Spawn one child, feed it, read it to EOF and reap it.

    With ``stdin_lines`` the events are written to stdin at ``rate`` events/s
    and line i is due at spawn + i/rate; otherwise the child reads its trace
    file and every event is due at spawn.
    """
    live = stdin_lines is not None
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                                stderr=err,
                                stdin=subprocess.PIPE if live else subprocess.DEVNULL)
        spawned = time.perf_counter()
        lag = []
        writer = None
        if live:
            writer = threading.Thread(target=write_scheduled,
                                      args=(proc.stdin, stdin_lines, start, rate, lag))
            writer.start()
        else:
            lag.append(spawned - start)
        try:
            lines, read_at = _read_lines(proc, start + CHILD_TIMEOUT_S)
        except BaseException:
            proc.kill()
            raise
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            if writer is not None:
                writer.join(timeout=CHILD_TIMEOUT_S)
    with open(stderr_path, "rb") as fh:
        stderr = fh.read().decode("utf-8", errors="replace")
    return ChildRun(proc.returncode, wall, usage.ru_maxrss / 1024.0, lines, read_at,
                    start, rate, lag, stderr)


def latencies(start, rate, read_at, line_index, events, end):
    """Seconds from each event's due time to the read of its verdict line.

    Event i is due at ``start + i / rate``, or at ``start`` when ``rate`` is
    None (a trace file is all there at spawn). ``line_index`` gives the
    event index of each stdout line (None for an unreadable line), and only
    the first line for an event counts. An event that got no verdict line
    waited until the child exited at ``end``.
    """
    def due(idx):
        return start if rate is None else start + idx / rate

    read = {}
    for idx, t in zip(line_index, read_at):
        if idx is not None and 0 <= idx < events:
            read.setdefault(idx, t)
    return [read.get(idx, end) - due(idx) for idx in range(events)]


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
