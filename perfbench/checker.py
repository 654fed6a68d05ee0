"""Checks one `rvaft run` process against the ground truth of its workload.

Every workload is built so that the only correct answer is: one verdict line
per input event with contiguous `event_index`, `?` on every line but the
last, `top` on the last, exit code 2, and exactly the episode's branch named
as detected on stderr. There is no tolerance for a wrong verdict.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

DETECTED_EXIT = 2
_DETECTED = re.compile(r"^merged: verdict=\S+ detected=\S+ branches=(\S+)$", re.M)


@dataclass(frozen=True)
class Check:
    failed: int  # input events whose verdict line is missing, duplicated or wrong
    line_index: list  # event_index of each stdout line, None where unreadable


def detected_branches(stderr):
    """Branch ids the merged monitor reported as detected, or None."""
    found = _DETECTED.findall(stderr)
    return set(found[-1].split(",")) if found else None


def check_run(events, branch, returncode, lines, stderr):
    """Count the input events ``rvaft run`` answered wrongly.

    ``events`` is the number of input events, ``branch`` the id of the branch
    the episode completes, ``lines`` the verdict lines read from stdout. An
    event is answered correctly when exactly one line carries its index, that
    line is at the event's own position, and its verdict is the expected one.
    A wrong exit code or detected branch fails every event of the run.
    """
    line_index = []
    count = [0] * events
    good = [False] * events
    extra = 0
    for pos, raw in enumerate(lines):
        try:
            record = json.loads(raw)
            idx, verdict = record["event_index"], record["verdict"]
        except (ValueError, TypeError, KeyError):
            line_index.append(None)
            extra += 1
            continue
        if not isinstance(idx, int) or isinstance(idx, bool) or not 0 <= idx < events:
            line_index.append(None)
            extra += 1
            continue
        line_index.append(idx)
        count[idx] += 1
        expected = "top" if idx == events - 1 else "?"
        good[idx] = pos == idx and verdict == expected
    if returncode != DETECTED_EXIT or detected_branches(stderr) != {branch}:
        return Check(events, line_index)
    failed = sum(1 for i in range(events) if not (good[i] and count[i] == 1))
    return Check(min(events, failed + extra), line_index)
