"""Online evaluation of monitor terms over event streams.

The monitor keeps a set of alternatives, each a residual term plus the
variable bindings accumulated so far. Consuming an event rewrites every
alternative it can progress (classic derivative, generalised with
environments); an event that progresses nothing either eliminates the
alternative (a correlation guard failed) or leaves it untouched (the event
was noise for it). The three-valued verdict is sticky.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum

from .errors import TypeMismatchError, UnknownPropertyError
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

log = logging.getLogger(__name__)


class Verdict(Enum):
    UNKNOWN = "?"
    SATISFIED = "top"
    VIOLATED = "bottom"

    def symbol(self):
        return {"?": "?", "top": "⊤", "bottom": "⊥"}[self.value]


@dataclass(frozen=True)
class Alternative:
    """One live interpretation of the stream: residual term + bindings."""

    term: object
    env: Env
    trail: tuple = ()  # (event_index, atom_name) pairs, for diagnostics


@dataclass
class StepDiagnostics:
    event_index: int
    outcome: str  # progressed | eliminated | neutral | dropped | decided
    alt_outcomes: tuple = ()  # per prior alternative: progressed | guard_failed | neutral
    matched_atoms: tuple = ()
    bindings_delta: dict = field(default_factory=dict)
    guard_failures: tuple = ()
    notes: tuple = ()
    branch_attribution: tuple = ()


def _derive(term, env, ev, idx):
    """Successor (term, env, atom_name) triples and guard-failed annotations.

    Successors already apply the unit/absorption simplifications, so a dead
    continuation (e.g. a sequence into Empty) yields no successor at all.
    """
    if isinstance(term, (Empty, Epsilon, Check)):
        return [], [], []
    if isinstance(term, Atom):
        try:
            res = match_event(term.ann, ev, env)
        except TypeMismatchError as exc:
            return [], [], [f"{term.ann.name}: {exc} (treated as no match)"]
        if res.outcome is MatchOutcome.PROGRESS:
            return [(Epsilon(), res.env, term.ann.name)], [], []
        if res.outcome is MatchOutcome.GUARD_FAIL:
            return [], [term.ann], []
        return [], [], [res.note] if res.note else []
    if isinstance(term, Seq):
        succ, fails, notes = _derive(term.left, env, ev, idx)
        out = []
        for t, e, name in succ:
            nxt = seq(t, term.right)
            if not isinstance(nxt, Empty):
                out.append((nxt, e, name))
        if nullable(term.left, env):
            s2, f2, n2 = _derive(term.right, env, ev, idx)
            out.extend(s2)
            fails = fails + f2
            notes = notes + n2
        return out, fails, notes
    if isinstance(term, Union):
        s1, f1, n1 = _derive(term.left, env, ev, idx)
        s2, f2, n2 = _derive(term.right, env, ev, idx)
        return s1 + s2, f1 + f2, n1 + n2
    if isinstance(term, Shuffle):
        s1, f1, n1 = _derive(term.left, env, ev, idx)
        s2, f2, n2 = _derive(term.right, env, ev, idx)
        out = []
        for t, e, name in s1:
            nxt = shuffle(t, term.right)
            if not isinstance(nxt, Empty):
                out.append((nxt, e, name))
        for t, e, name in s2:
            nxt = shuffle(term.left, t)
            if not isinstance(nxt, Empty):
                out.append((nxt, e, name))
        return out, f1 + f2, n1 + n2
    if isinstance(term, Let):
        return _derive(term.body, env, ev, idx)
    raise TypeError(f"not a term: {term!r}")


class Monitor:
    """Stateful monitor for one term over one ordered event stream.

    ``topics`` limits which events are even considered: anything on another
    topic is dropped before stepping (mirroring channel subscription). With
    ``strict`` set, any subscribed event that progresses nothing eliminates
    the alternative instead of being skipped.
    """

    def __init__(self, term, topics=None, strict=False):
        check_term(term)
        self.term = term
        self.topics = frozenset(topics) if topics is not None else None
        self.strict = strict
        self.events_seen = 0
        self.skipped = 0
        self.peak_alternatives = 0
        if isinstance(term, Empty):
            self.alternatives = []
        else:
            self.alternatives = [Alternative(term, Env.empty())]
        self._update_peak()
        self.verdict = self._assess()

    def _update_peak(self):
        if len(self.alternatives) > self.peak_alternatives:
            self.peak_alternatives = len(self.alternatives)

    def _assess(self):
        if any(nullable(a.term, a.env) for a in self.alternatives):
            return Verdict.SATISFIED
        if not self.alternatives:
            return Verdict.VIOLATED
        return Verdict.UNKNOWN

    def step(self, event):
        """Consume one event; returns diagnostics. No-op once decided."""
        idx = self.events_seen
        if self.verdict is not Verdict.UNKNOWN:
            self.events_seen += 1
            return StepDiagnostics(idx, "decided")
        self.events_seen += 1
        if self.topics is not None:
            topic = canonical_topic(event.get("topic"))
            if topic not in self.topics:
                self.skipped += 1
                return StepDiagnostics(idx, "dropped")

        new_alts = []
        alt_outcomes = []
        matched = []
        fails = []
        notes = []
        delta = {}
        for alt in self.alternatives:
            succ, guard_fails, alt_notes = _derive(alt.term, alt.env, event, idx)
            notes.extend(alt_notes)
            fails.extend(a.name for a in guard_fails)
            if succ:
                alt_outcomes.append("progressed")
                for t, e, name in succ:
                    cand = Alternative(t, e, alt.trail + ((idx, name),))
                    if not any(c.term == cand.term and c.env == cand.env for c in new_alts):
                        new_alts.append(cand)
                    if name not in matched:
                        matched.append(name)
                    for k, v in e.items:
                        if k not in alt.env:
                            delta[k] = v
                continue
            if any(a.effective_policy() == "violate" for a in guard_fails):
                alt_outcomes.append("guard_failed")
                continue  # alternative eliminated
            if self.strict:
                alt_outcomes.append("eliminated")
                continue  # strict mode: non-progressing events are conclusive
            # No match or a skip-policy guard failure: the event is noise here.
            alt_outcomes.append("neutral")
            if not any(c.term == alt.term and c.env == alt.env for c in new_alts):
                new_alts.append(alt)

        neutral = bool(alt_outcomes) and all(o == "neutral" for o in alt_outcomes)
        if neutral:
            self.skipped += 1
        self.alternatives = new_alts
        self._update_peak()
        self.verdict = self._assess()
        for n in notes:
            log.debug("event %d: %s", idx, n)
        return StepDiagnostics(
            idx,
            "neutral" if neutral else ("eliminated" if not new_alts else "progressed"),
            tuple(alt_outcomes),
            tuple(matched),
            delta,
            tuple(dict.fromkeys(fails)),
            tuple(notes),
        )

    def bindings(self):
        """Union of bindings across live alternatives (diagnostic view)."""
        out = {}
        for alt in self.alternatives:
            out.update(alt.env.as_dict())
        return out


@dataclass
class VerdictEntry:
    """One output row per input event."""

    event_index: int
    verdict: Verdict
    property: str
    live_branches: tuple = ()
    bindings: dict | None = None
    skipped: bool = False


@dataclass
class RunResult:
    verdicts: list  # (event_index, Verdict) pairs, one per input event
    records: list  # VerdictEntry per input event
    state: Monitor
    final_verdict: Verdict


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
        self.records = []

    def attribution(self):
        if self.which != "merged":
            return (self.which,) if self.monitor.verdict is not Verdict.VIOLATED else ()
        if self.monitor.verdict is Verdict.SATISFIED:
            return tuple(
                pid for pid, m in self.shadows.items() if m.verdict is Verdict.SATISFIED
            )
        return tuple(
            pid for pid, m in self.shadows.items() if m.verdict is not Verdict.VIOLATED
        )

    def feed(self, event):
        diag = self.monitor.step(event)
        for shadow in self.shadows.values():
            shadow.step(event)
        diag.branch_attribution = self.attribution()
        record = VerdictEntry(
            event_index=diag.event_index,
            verdict=self.monitor.verdict,
            property=self.which,
            live_branches=diag.branch_attribution,
            bindings=self.monitor.bindings() or None,
            skipped=diag.outcome in ("dropped", "neutral", "decided"),
        )
        self.records.append(record)
        return record

    def finish(self):
        """End-of-trace judgment: a still-undecided monitor over a completed,
        nonempty trace never exhibited the fault/attack, so it closes to
        violated. The raw state verdict is left untouched."""
        if not self.records:
            return Verdict.UNKNOWN
        if self.monitor.verdict is Verdict.UNKNOWN:
            self.records[-1].verdict = Verdict.VIOLATED
            return Verdict.VIOLATED
        return self.monitor.verdict


def run_trace(spec, which, trace, strict=False, close_at_end=True):
    """Fold a monitor over a finite trace; one verdict row per event.

    With ``close_at_end`` (the default for replays) the final row reports the
    end-of-trace judgment: an undecided monitor on a completed nonempty trace
    closes to violated, since the trace never satisfied the property.
    """
    runner = TraceRunner(spec, which, strict=strict)
    for event in trace:
        runner.feed(event)
    final = runner.finish() if close_at_end else runner.monitor.verdict
    verdicts = [(r.event_index, r.verdict) for r in runner.records]
    return RunResult(verdicts, runner.records, runner.monitor, final)
