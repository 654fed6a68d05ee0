"""Online evaluation of monitor terms over event streams.

The monitor keeps a set of alternatives, each a residual term plus the
variable bindings accumulated so far. Consuming an event rewrites every
alternative it can progress (classic derivative, generalised with
environments); an event that progresses nothing either eliminates the
alternative (a correlation guard failed) or leaves it untouched (the event
was noise for it). The three-valued verdict is sticky.
"""

from __future__ import annotations

from enum import Enum
from types import MappingProxyType

from .errors import TypeMismatchError, UnknownPropertyError
from .record import Record
from .terms import (
    Atom,
    Check,
    Empty,
    Env,
    Epsilon,
    Let,
    MatchOutcome,
    Seq,
    Shuffle,
    Union,
    canonical_topic,
    check_term,
    match_event,
    nullable,
    seq,
    shuffle,
)


class Verdict(Enum):
    UNKNOWN = "?"
    SATISFIED = "top"
    VIOLATED = "bottom"

    def symbol(self):
        return {"?": "?", "top": "⊤", "bottom": "⊥"}[self.value]


# Reading a member off its Enum class costs a descriptor call; the hot paths
# compare against these module-level names instead.
_UNKNOWN = Verdict.UNKNOWN
_SATISFIED = Verdict.SATISFIED
_VIOLATED = Verdict.VIOLATED
_PROGRESS = MatchOutcome.PROGRESS
_GUARD_FAIL = MatchOutcome.GUARD_FAIL


class Alternative(Record):
    """One live interpretation of the stream: residual term + bindings. It
    equals another with an equal term and equal bindings, which is how
    ``Monitor.step`` drops duplicates."""

    __slots__ = ("term", "env")

    def __init__(self, term, env):
        self.term = term
        self.env = env


class StepDiagnostics:
    __slots__ = ("outcome",)

    def __init__(self, outcome):
        self.outcome = outcome  # progressed | eliminated | neutral | dropped | decided


# Every step with the same outcome returns the same record.
_DECIDED = StepDiagnostics("decided")
_DROPPED = StepDiagnostics("dropped")
_NEUTRAL = StepDiagnostics("neutral")
_PROGRESSED = StepDiagnostics("progressed")
_ELIMINATED = StepDiagnostics("eliminated")


def _derive(term, env, ev):
    """Successor (term, env) pairs, and whether a guard whose policy is
    ``violate`` failed. A guard that cannot be evaluated (a type mismatch)
    is no match.

    Successors already apply the unit/absorption simplifications, so a dead
    continuation (e.g. a sequence into Empty) yields no successor at all.
    """
    if isinstance(term, (Empty, Epsilon, Check)):
        return [], False
    if isinstance(term, Atom):
        try:
            res = match_event(term.ann, ev, env)
        except TypeMismatchError:
            return [], False
        if res.outcome is _PROGRESS:
            return [(Epsilon(), res.env)], False
        return [], res.outcome is _GUARD_FAIL and term.ann.effective_policy() == "violate"
    if isinstance(term, Seq):
        succ, violated = _derive(term.left, env, ev)
        out = []
        for t, e in succ:
            nxt = seq(t, term.right)
            if not isinstance(nxt, Empty):
                out.append((nxt, e))
        if nullable(term.left, env):
            s2, v2 = _derive(term.right, env, ev)
            out.extend(s2)
            violated = violated or v2
        return out, violated
    if isinstance(term, Union):
        s1, v1 = _derive(term.left, env, ev)
        s2, v2 = _derive(term.right, env, ev)
        return s1 + s2, v1 or v2
    if isinstance(term, Shuffle):
        s1, v1 = _derive(term.left, env, ev)
        s2, v2 = _derive(term.right, env, ev)
        out = []
        for t, e in s1:
            nxt = shuffle(t, term.right)
            if not isinstance(nxt, Empty):
                out.append((nxt, e))
        for t, e in s2:
            nxt = shuffle(term.left, t)
            if not isinstance(nxt, Empty):
                out.append((nxt, e))
        return out, v1 or v2
    if isinstance(term, Let):
        return _derive(term.body, env, ev)
    raise TypeError(f"not a term: {term!r}")


def _may_be_empty(term):
    """Could the term accept the empty trace under some bindings? A check
    may pass, so it counts as possibly empty; this over-approximates
    ``nullable`` for every environment."""
    if isinstance(term, (Epsilon, Check)):
        return True
    if isinstance(term, (Seq, Shuffle)):
        return _may_be_empty(term.left) and _may_be_empty(term.right)
    if isinstance(term, Union):
        return _may_be_empty(term.left) or _may_be_empty(term.right)
    if isinstance(term, Let):
        return _may_be_empty(term.body)
    return False


def _frontier(term, out):
    """Add to ``out`` the literal topic of every atom that may consume the
    term's next event. Returns False when such an atom has no literal string
    topic (bound to a variable, guard-only, or no topic key): any event may
    reach it."""
    if isinstance(term, Atom):
        topic = term.ann.topic()
        if not isinstance(topic, str):
            return False
        out.add(topic)
        return True
    if isinstance(term, Seq):
        if not _frontier(term.left, out):
            return False
        return not _may_be_empty(term.left) or _frontier(term.right, out)
    if isinstance(term, (Union, Shuffle)):
        return _frontier(term.left, out) and _frontier(term.right, out)
    if isinstance(term, Let):
        return _frontier(term.body, out)
    return True  # Empty, Epsilon and Check consume nothing


class Monitor:
    """Stateful monitor for one term over one ordered event stream.

    ``topics`` limits which events are even considered: anything on another
    topic is dropped before stepping (mirroring channel subscription). With
    ``strict`` set, any subscribed event that progresses nothing eliminates
    the alternative instead of being skipped.

    ``frontier`` is the set of topics the live alternatives can consume next,
    or None when some alternative can consume an event on any topic (and
    always in strict mode). An event off the frontier matches no atom that
    ``_derive`` would reach, so it can neither progress an alternative nor
    fail a guard: it is neutral, and ``step`` returns without deriving.

    Both checks are one lookup of the event's topic in ``_route``, built with
    the frontier: it maps every spelling of a subscribed topic (``t`` and
    ``/t``, which ``canonical_topic`` maps to ``t``) to the neutral outcome
    or, on the frontier, to None (derive). Any other topic gets
    ``_unrouted``: dropped under a topic filter, else neutral while there is
    a frontier, else None.
    """

    def __init__(self, term, topics=None, strict=False):
        check_term(term)
        self.term = term
        self.topics = frozenset(topics) if topics is not None else None
        self._spellings = None
        if self.topics is not None:
            self._spellings = frozenset(
                s for t in self.topics
                for s in ((t, "/" + t) if isinstance(t, str) else (t,))
                if canonical_topic(s) in self.topics
            )
        self.strict = strict
        self.events_seen = 0
        self.skipped = 0
        self.peak_alternatives = 0
        if isinstance(term, Empty):
            self._replace_alternatives([])
        else:
            self._replace_alternatives([Alternative(term, Env.empty())])

    def _replace_alternatives(self, alternatives):
        self.alternatives = alternatives
        if len(alternatives) > self.peak_alternatives:
            self.peak_alternatives = len(alternatives)
        self.verdict = self._assess()
        bindings = {}
        for alt in alternatives:
            bindings.update(alt.env.items)
        self._bindings = MappingProxyType(bindings)
        self.frontier = None
        if not self.strict:
            topics = set()
            if all(_frontier(a.term, topics) for a in alternatives):
                self.frontier = frozenset(topics)
        frontier = self.frontier
        if self._spellings is None:
            self._route = dict.fromkeys(frontier or (), None)
            self._unrouted = None if frontier is None else _NEUTRAL
        else:
            self._route = {
                s: None if frontier is None or (isinstance(s, str) and s in frontier)
                else _NEUTRAL
                for s in self._spellings
            }
            self._unrouted = _DROPPED

    def _assess(self):
        if any(nullable(a.term, a.env) for a in self.alternatives):
            return _SATISFIED
        if not self.alternatives:
            return _VIOLATED
        return _UNKNOWN

    def step(self, event):
        """Consume one event; returns its outcome. No-op once decided."""
        self.events_seen += 1
        if self.verdict is not _UNKNOWN:
            return _DECIDED
        topic = event.get("topic")
        try:
            skip = self._route.get(topic, self._unrouted)
        except TypeError:  # an unhashable topic, on no subscribed topic
            if self._spellings is not None:
                raise
            skip = self._unrouted
        if skip is not None:
            self.skipped += 1
            return skip

        candidates = []  # what replaces the alternatives, in their order
        neutral = True
        for alt in self.alternatives:
            succ, violated = _derive(alt.term, alt.env, event)
            if succ:
                candidates.extend(Alternative(t, e) for t, e in succ)
                neutral = False
            elif self.strict or violated:
                neutral = False  # eliminated
            else:
                # No match or a skip-policy guard failure: the event is noise here.
                candidates.append(alt)
        if neutral:
            # Nothing changed: the alternatives are already distinct and the
            # verdict still holds.
            self.skipped += 1
            return _NEUTRAL

        # Not a set: a binding may hold a dict, which does not hash.
        new_alts = []
        for cand in candidates:
            if cand not in new_alts:
                new_alts.append(cand)
        self._replace_alternatives(new_alts)
        return _PROGRESSED if new_alts else _ELIMINATED

    def bindings(self):
        """Union of bindings across live alternatives (diagnostic view), read
        only. It changes only with the alternatives, so it is built there."""
        return self._bindings


class VerdictEntry:
    """One output row per input event."""

    __slots__ = ("event_index", "verdict", "property", "live_branches", "bindings",
                 "skipped")

    def __init__(self, event_index, verdict, property, live_branches=(), bindings=None,
                 skipped=False):
        self.event_index = event_index
        self.verdict = verdict
        self.property = property
        self.live_branches = live_branches
        self.bindings = bindings  # a read-only mapping, or None
        self.skipped = skipped


class RunResult:
    __slots__ = ("verdicts", "records", "state", "final_verdict")

    def __init__(self, verdicts, records, state, final_verdict):
        self.verdicts = verdicts  # (event_index, Verdict) pairs, one per input event
        self.records = records  # VerdictEntry per input event
        self.state = state  # the Monitor
        self.final_verdict = final_verdict


# The step outcomes after which a monitor's alternatives were replaced, and
# those that left it as it was.
_REPLACED = frozenset({"progressed", "eliminated"})
_SKIPPED = frozenset({"dropped", "neutral", "decided"})


class TraceRunner:
    """Advances a property monitor plus shadow branch monitors for attribution."""

    def __init__(self, spec, which, strict=False):
        ids = [p.id for p in spec.properties]
        if which == "merged":
            if spec.merged is None:
                raise UnknownPropertyError("merged")
            term = spec.merged
            shadow_terms = {p.id: p.term for p in spec.properties}
        elif which in ids:
            term = next(p.term for p in spec.properties if p.id == which)
            shadow_terms = {}
        else:
            raise UnknownPropertyError(which)
        self.which = which
        self.monitor = Monitor(term, topics=spec.topics, strict=strict)
        self.shadows = {
            pid: Monitor(t, topics=spec.topics, strict=strict)
            for pid, t in shadow_terms.items()
        }
        self._shadows = tuple(self.shadows.values())  # what feed steps, built once
        self.last = None  # the latest record, which finish() may still close

    def attribution(self):
        if self.which != "merged":
            return (self.which,) if self.monitor.verdict is not _VIOLATED else ()
        if self.monitor.verdict is _SATISFIED:
            return tuple(pid for pid, m in self.shadows.items() if m.verdict is _SATISFIED)
        return tuple(pid for pid, m in self.shadows.items() if m.verdict is not _VIOLATED)

    def feed(self, event):
        """Step every monitor and return the event's record. Attribution and
        bindings change only when some monitor's alternatives do, so on any
        other event the previous record's are handed on."""
        monitor = self.monitor
        diag = monitor.step(event)
        changed = diag.outcome in _REPLACED
        for shadow in self._shadows:
            if shadow.step(event).outcome in _REPLACED:
                changed = True
        last = self.last
        if changed or last is None:
            live_branches = self.attribution()
            bindings = monitor.bindings() or None
        else:
            live_branches = last.live_branches
            bindings = last.bindings
        # VerdictEntry(event_index, verdict, property, live_branches, bindings, skipped)
        self.last = record = VerdictEntry(
            monitor.events_seen - 1, monitor.verdict, self.which, live_branches, bindings,
            diag.outcome in _SKIPPED,
        )
        return record

    def finish(self):
        """End-of-trace judgment: a still-undecided monitor over a completed,
        nonempty trace never exhibited the fault/attack, so it closes to
        violated, and so does the last record ``feed`` returned. The raw
        state verdict is left untouched."""
        if self.last is None:
            return Verdict.UNKNOWN
        if self.monitor.verdict is Verdict.UNKNOWN:
            self.last.verdict = Verdict.VIOLATED
            return Verdict.VIOLATED
        return self.monitor.verdict


def run_trace(spec, which, trace, strict=False, close_at_end=True):
    """Fold a monitor over a finite trace; one verdict row per event.

    With ``close_at_end`` (the default for replays) the final row reports the
    end-of-trace judgment: an undecided monitor on a completed nonempty trace
    closes to violated, since the trace never satisfied the property.
    """
    runner = TraceRunner(spec, which, strict=strict)
    records = [runner.feed(event) for event in trace]
    final = runner.finish() if close_at_end else runner.monitor.verdict
    verdicts = [(r.event_index, r.verdict) for r in records]
    return RunResult(verdicts, records, runner.monitor, final)
