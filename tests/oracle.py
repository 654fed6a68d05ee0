"""Brute-force reference semantics for terms, used to validate the engine,
and ``run_trace``, which folds the engine over a finite trace.

Nothing here rewrites terms. Full-trace acceptance (`matches`, `language`)
splits the concrete event list at every sequence point and enumerates every
two-colouring at every shuffle. The verdict oracle (`oracle_verdict`) tracks
parse states: maps from atom occurrences (positions in the original term) to
the event index each consumed. A state's frontier and nullability are
recomputed from scratch against the original term on every step, which makes
the oracle blind to any bookkeeping the engine's residual-term algebra gets
wrong.
"""

from __future__ import annotations

from itertools import permutations

from rvaft.engine import TraceRunner, Verdict
from rvaft.errors import TypeMismatchError, UnboundVariableError
from rvaft.terms import (
    Atom,
    Check,
    Env,
    Epsilon,
    Seq,
    Shuffle,
    Union,
    eval_guard,
    match_event,
)


def _safe_eval(guard, env):
    try:
        return eval_guard(guard, env)
    except (UnboundVariableError, TypeMismatchError):
        return False


def _add_env(acc, env):
    if not any(e == env for e in acc):
        acc.append(env)


def _colorings(events):
    """All order-preserving splits of events into two subsequences."""
    n = len(events)
    for mask in range(1 << n):
        left = [events[i] for i in range(n) if mask >> i & 1]
        right = [events[i] for i in range(n) if not mask >> i & 1]
        yield left, right


def matches(term, env, events):
    """Environments under which the term matches exactly this event list."""
    out = []
    if isinstance(term, Epsilon):
        if not events:
            out.append(env)
        return out
    if isinstance(term, Atom):
        if len(events) == 1:
            matched = match_event(term.ann, events[0], env)
            if matched:
                out.append(matched)
        return out
    if isinstance(term, Check):
        if not events and _safe_eval(term.guard, env):
            out.append(env)
        return out
    if isinstance(term, Seq):
        for i in range(len(events) + 1):
            for e1 in matches(term.left, env, events[:i]):
                for e2 in matches(term.right, e1, events[i:]):
                    _add_env(out, e2)
        return out
    if isinstance(term, Union):
        for e in matches(term.left, env, events):
            _add_env(out, e)
        for e in matches(term.right, env, events):
            _add_env(out, e)
        return out
    if isinstance(term, Shuffle):
        for left, right in _colorings(events):
            for e1 in matches(term.left, env, left):
                for e2 in matches(term.right, e1, right):
                    _add_env(out, e2)
        return out
    raise TypeError(f"not a term: {term!r}")


def prefix_envs(term, env, events):
    """Environments under which the event list is a viable prefix of a match.

    Optimistic exactly where the engine is: an unconsumed atom or check is
    always considered extensible, regardless of whether a suitable future
    event can exist.
    """
    out = []
    if isinstance(term, (Epsilon, Check)):
        if not events:
            out.append(env)
        return out
    if isinstance(term, Atom):
        if not events:
            out.append(env)
        elif len(events) == 1:
            matched = match_event(term.ann, events[0], env)
            if matched:
                out.append(matched)
        return out
    if isinstance(term, Seq):
        for e in prefix_envs(term.left, env, events):
            _add_env(out, e)
        for i in range(len(events) + 1):
            for e1 in matches(term.left, env, events[:i]):
                for e2 in prefix_envs(term.right, e1, events[i:]):
                    _add_env(out, e2)
        return out
    if isinstance(term, Union):
        for e in prefix_envs(term.left, env, events):
            _add_env(out, e)
        for e in prefix_envs(term.right, env, events):
            _add_env(out, e)
        return out
    if isinstance(term, Shuffle):
        for left, right in _colorings(events):
            for e1 in prefix_envs(term.left, env, left):
                for e2 in prefix_envs(term.right, e1, right):
                    _add_env(out, e2)
        return out
    raise TypeError(f"not a term: {term!r}")


def language(term, env, events, max_len):
    """Every index sequence over `events` (no repetition) the term accepts.

    Exhaustive: tries all k-permutations of the given events for k up to
    max_len. Only sensible for small inputs; meant for tests.
    """
    accepted = set()
    for k in range(0, max_len + 1):
        for combo in permutations(range(len(events)), k):
            if matches(term, env, [events[i] for i in combo]):
                accepted.add(combo)
    return accepted


# ---------------------------------------------------------------------------
# Parse states: the verdict oracle
# ---------------------------------------------------------------------------

class _View:
    """Residual view of one parse state: the exposed atom occurrences and
    whether the remainder accepts the empty continuation."""

    __slots__ = ("frontier", "nullable")

    def __init__(self, frontier, nullable):
        self.frontier = frontier  # list of (path, annotation)
        self.nullable = nullable


def _assigned_under(assignment, path):
    return any(p[: len(path)] == path for p in assignment)


def _view(term, assignment, env, path=()):
    """Frontier/nullability of the original term under a consumption map.

    `assignment` maps atom-occurrence paths to consumed event indices. A
    sequence whose right part has consumed anything has committed: its left
    part is spent. A union commits to the arm that consumed; untouched unions
    expose both arms.
    """
    if isinstance(term, Epsilon):
        return _View([], True)
    if isinstance(term, Atom):
        if path in assignment:
            return _View([], True)
        return _View([(path, term.ann)], False)
    if isinstance(term, Check):
        return _View([], _safe_eval(term.guard, env))
    left = _view(term.left, assignment, env, path + (0,))
    right = _view(term.right, assignment, env, path + (1,))
    if isinstance(term, Seq):
        if _assigned_under(assignment, path + (1,)):
            return right  # the left part completed when the right began
        frontier = list(left.frontier)
        if left.nullable:
            frontier += right.frontier
        return _View(frontier, left.nullable and right.nullable)
    if isinstance(term, Union):
        left_used = _assigned_under(assignment, path + (0,))
        right_used = _assigned_under(assignment, path + (1,))
        if left_used and right_used:
            raise AssertionError("parse state consumed through both union arms")
        if left_used:
            return left
        if right_used:
            return right
        return _View(left.frontier + right.frontier, left.nullable or right.nullable)
    if isinstance(term, Shuffle):
        return _View(left.frontier + right.frontier, left.nullable and right.nullable)
    raise TypeError(f"not a term: {term!r}")


def _dedupe_states(states):
    out = []
    for state in states:
        if not any(s == state for s in out):
            out.append(state)
    return out


def oracle_verdict(term, trace, topics=None, max_states=4096):
    """Sticky three-valued verdict by brute force, no term rewriting.

    Each live parse state records which event every consumed atom occurrence
    took. Per event and state: if any exposed atom can consume it, the state
    must (one successor per consuming occurrence); otherwise a violate-policy
    guard failure kills the state; otherwise the event is noise for it.
    Satisfied once any state's remainder is nullable; violated once no state
    survives. An event whose topic, as given, is not in ``topics`` is
    skipped, as ``Monitor`` drops it.
    """
    topics = frozenset(topics) if topics is not None else None
    states = [({}, Env.empty())]
    if _view(term, {}, Env.empty()).nullable:
        return Verdict.SATISFIED
    for j, event in enumerate(trace):
        if topics is not None and event.get("topic") not in topics:
            continue
        new_states = []
        for assignment, env in states:
            view = _view(term, assignment, env)
            successors = []
            violated = False
            for occ_path, ann in view.frontier:
                matched = match_event(ann, event, env)
                if matched:
                    extended = dict(assignment)
                    extended[occ_path] = j
                    successors.append((extended, matched))
                elif matched is False and ann.effective_policy() == "violate":
                    violated = True
            if successors:
                new_states.extend(successors)
            elif not violated:
                new_states.append((assignment, env))
        states = _dedupe_states(new_states)
        if len(states) > max_states:
            raise RuntimeError("oracle blow-up: trace too ambiguous")
        if any(_view(term, a, e).nullable for a, e in states):
            return Verdict.SATISFIED
        if not states:
            return Verdict.VIOLATED
    return Verdict.UNKNOWN


# ---------------------------------------------------------------------------
# The engine over a finite trace
# ---------------------------------------------------------------------------

class RunResult:
    __slots__ = ("verdicts", "records", "state", "final_verdict")

    def __init__(self, verdicts, records, state, final_verdict):
        self.verdicts = verdicts  # (event_index, Verdict) pairs, one per input event
        self.records = records  # the VerdictState after each input event
        self.state = state  # the Monitor
        self.final_verdict = final_verdict


def run_trace(spec, which, trace, strict=False, close_at_end=True):
    """Fold a monitor over a finite trace; one verdict row per event.

    With ``close_at_end`` (the default for replays) the final row reports the
    end-of-trace judgment: an undecided monitor on a completed nonempty trace
    closes to violated, since the trace never satisfied the property.
    """
    runner = TraceRunner(spec, which, strict=strict)
    records = [runner.feed(event) for event in trace]
    final = runner.finish() if close_at_end else runner.state
    if records:
        records[-1] = final
    verdicts = list(enumerate(r.verdict for r in records))
    return RunResult(verdicts, records, runner.monitor, final.verdict)
