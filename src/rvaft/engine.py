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

from .errors import UnknownPropertyError
from .record import Record
from .terms import (
    Atom,
    Check,
    Env,
    Epsilon,
    MatchOutcome,
    Seq,
    Shuffle,
    Union,
    canonical_topic,
    guard_vars,
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
    ``violate`` failed. Successors already apply the unit simplifications;
    no successor at all means the event matches nothing here.
    """
    if isinstance(term, (Epsilon, Check)):
        return [], False
    if isinstance(term, Atom):
        res = match_event(term.ann, ev, env)
        if res.outcome is _PROGRESS:
            return [(Epsilon(), res.env)], False
        return [], res.outcome is _GUARD_FAIL and term.ann.effective_policy() == "violate"
    if isinstance(term, Seq):
        succ, violated = _derive(term.left, env, ev)
        out = [(seq(t, term.right), e) for t, e in succ]
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
        out = [(shuffle(t, term.right), e) for t, e in s1]
        out.extend((shuffle(term.left, t), e) for t, e in s2)
        return out, v1 or v2
    raise TypeError(f"not a term: {term!r}")


def _frontier(term, env, out):
    """Add to ``out`` every atom ``_derive`` reaches in the term under these
    bindings: its literal topic maps to the list of their distinct
    annotations. A sequence's right side is reached exactly when its head is
    ``nullable``, as in ``_derive``. Returns False when such an atom has no
    literal string topic (bound to a variable, guard-only, or no topic key):
    any event may reach it."""
    if isinstance(term, Atom):
        ann = term.ann
        topic = ann.topic()
        if not isinstance(topic, str):
            return False
        anns = out.setdefault(topic, [])
        if ann not in anns:
            anns.append(ann)
        return True
    if isinstance(term, Seq):
        if not _frontier(term.left, env, out):
            return False
        return not nullable(term.left, env) or _frontier(term.right, env, out)
    if isinstance(term, (Union, Shuffle)):
        return _frontier(term.left, env, out) and _frontier(term.right, env, out)
    return True  # Epsilon and Check consume nothing


def _decides_alone(ann):
    """Whether matching the annotation under no bindings settles it under
    every binding: its guard reads only what its own pattern binds, and a
    failed guard skips. Earlier bindings can then only narrow the pattern
    match, the guard sees the same values, and a failed match can neither
    progress an alternative nor eliminate one."""
    return ann.effective_policy() == "skip" and (
        ann.guard is None or guard_vars(ann.guard) <= set(ann.bound_vars()))


_NO_BINDINGS = Env.empty()


class Monitor:
    """Stateful monitor for one term over one ordered event stream.

    ``topics`` limits which events are even considered: anything on another
    topic is dropped before stepping (mirroring channel subscription). With
    ``strict`` set, any subscribed event that progresses nothing eliminates
    the alternative instead of being skipped.

    ``frontier`` is the set of topics of exactly the atoms ``_derive`` would
    reach under each alternative's own bindings, or None when such an atom
    can consume an event on any topic (and always in strict mode). A check
    that does not hold hides what follows it until the alternatives change.
    An event off the frontier matches no atom that ``_derive`` would reach,
    so it can neither progress an alternative nor fail a guard: it is
    neutral, and ``step`` returns without deriving.

    An event on the frontier whose next atoms all decide alone (see
    ``_decides_alone``) is tried against those atoms' annotations first. If
    none of them matches it under no bindings, no alternative can progress
    or be eliminated, so the event is neutral without deriving. A topic with
    any other next atom derives.

    All of this is one lookup of the event's topic in ``_route``, built with
    the frontier. It maps every spelling of a subscribed topic (``t`` and
    ``/t``, which ``canonical_topic`` maps to ``t``) to the outcome ``step``
    returns at once (neutral off the frontier), to the tuple of atom tests
    that decide the event alone, or to None: derive. Any other topic, and a
    topic that does not hash, gets the fallback ``_unrouted``: dropped under
    a topic filter, else neutral while there is a frontier, else None. A
    decided monitor has an empty table whose fallback is decided.
    """

    def __init__(self, term, topics=None, strict=False):
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
        self.peak_alternatives = 0
        self._replace_alternatives([Alternative(term, Env.empty())])

    def _replace_alternatives(self, alternatives):
        self.alternatives = alternatives
        if len(alternatives) > self.peak_alternatives:
            self.peak_alternatives = len(alternatives)
        self.verdict = self._assess()
        self.frontier = None
        # A frontier topic's atom tests, or None where some next atom needs
        # the alternatives' bindings.
        tests = {}
        if not self.strict:
            atoms = {}
            if all(_frontier(a.term, a.env, atoms) for a in alternatives):
                self.frontier = frozenset(atoms)
                tests = {topic: tuple(anns) if all(map(_decides_alone, anns)) else None
                         for topic, anns in atoms.items()}
        off_frontier = None if self.frontier is None else _NEUTRAL
        if self.verdict is not _UNKNOWN:
            self._route = {}
            self._unrouted = _DECIDED
        elif self._spellings is None:
            self._route = tests
            self._unrouted = off_frontier
        else:
            self._route = {s: tests.get(s, off_frontier) for s in self._spellings}
            self._unrouted = _DROPPED

    def _assess(self):
        if any(nullable(a.term, a.env) for a in self.alternatives):
            return _SATISFIED
        if not self.alternatives:
            return _VIOLATED
        return _UNKNOWN

    def step(self, event):
        """Consume one event; returns its outcome. No-op once decided."""
        try:
            route = self._route.get(event.get("topic"), self._unrouted)
        except TypeError:  # a topic that does not hash is on no route
            route = self._unrouted
        if route is not None:
            if not isinstance(route, tuple):
                return route  # an outcome
            for ann in route:
                if match_event(ann, event, _NO_BINDINGS).outcome is _PROGRESS:
                    break
            else:
                return _NEUTRAL

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
            return _NEUTRAL

        # Not a set: a binding may hold a dict, which does not hash.
        new_alts = []
        for cand in candidates:
            if cand not in new_alts:
                new_alts.append(cand)
        self._replace_alternatives(new_alts)
        return _PROGRESSED if new_alts else _ELIMINATED


class VerdictState:
    """What a verdict line says after its ``event_index``: the property's
    verdict, the property, the branches still live, the property monitor's
    bindings (a read-only mapping, or None when none is set) and whether the
    property monitor skipped the event. Never changed once built, so a line
    built from a state holds for as long as that state object does."""

    __slots__ = ("verdict", "property", "live_branches", "bindings", "skipped")

    def __init__(self, verdict, property, live_branches=(), bindings=None, skipped=False):
        for name, value in zip(self.__slots__,
                               (verdict, property, live_branches, bindings, skipped)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"a VerdictState is immutable: cannot set {name!r}")


def _bindings(monitor):
    """The union of the bindings of the monitor's live alternatives, read
    only, or None when none is set."""
    bindings = {}
    for alt in monitor.alternatives:
        bindings.update(alt.env.items)
    return MappingProxyType(bindings) if bindings else None


# The step outcomes that leave a monitor as it was.
_SKIPPED = frozenset({_DROPPED, _NEUTRAL, _DECIDED})


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
        # The state before any event. It is not skipped, so the first event
        # always builds a new state: ``finish`` tells an empty trace by it.
        self._start = self.state = VerdictState(
            self.monitor.verdict, which, self.attribution(), _bindings(self.monitor))

    def attribution(self):
        if self.which != "merged":
            return (self.which,) if self.monitor.verdict is not _VIOLATED else ()
        if self.monitor.verdict is _SATISFIED:
            return tuple(pid for pid, m in self.shadows.items() if m.verdict is _SATISFIED)
        return tuple(pid for pid, m in self.shadows.items() if m.verdict is not _VIOLATED)

    def feed(self, event):
        """Step every monitor and return the state after the event. A state
        is built only when some monitor's step changed it or the skipped flag
        flips; on any other event this is the previous state object."""
        state = self.state
        skipped = self.monitor.step(event) in _SKIPPED
        changed = not skipped
        for shadow in self._shadows:
            if shadow.step(event) not in _SKIPPED:
                changed = True
        if changed or not state.skipped:
            # The bindings are the property monitor's, so they change only
            # when it does.
            self.state = state = VerdictState(
                self.monitor.verdict, self.which, self.attribution(),
                state.bindings if skipped else _bindings(self.monitor), skipped)
        return state

    def finish(self):
        """The closing state of a completed trace. An empty trace closes to
        unknown. A still-undecided monitor over a nonempty trace never
        exhibited the fault/attack, so the trace closes to violated: no
        branch is live, and the bindings stay those held when the input
        ended. Otherwise this is the current state. The monitor's own
        verdict is left untouched."""
        state = self.state
        if state is self._start:
            return VerdictState(_UNKNOWN, self.which)
        if state.verdict is not _UNKNOWN:
            return state
        return VerdictState(_VIOLATED, self.which, (), state.bindings, state.skipped)
