import random
from pathlib import Path

import pytest

from rvaft.casestudy import pruned_tree, scenario_trace
from rvaft.compiler import compile_tree
from rvaft.terms import Atom, Bind, Check, Epsilon, EventAnnotation, Seq, Shuffle, Union
from rvaft.fileformat import parse_guard, parse_tree
from rvaft.stream import format_event, read_trace

CASES = Path(__file__).resolve().parent.parent / "cases"


@pytest.fixture(scope="session")
def tree():
    return pruned_tree()


@pytest.fixture(scope="session")
def full_tree():
    """The pre-prune tree: adds the imagery voting subtree and battery leaf,
    whose nodes carry no runtime events."""
    return parse_tree((CASES / "full_inspection.rvaft.json").read_bytes())


@pytest.fixture(scope="session")
def spec(tree):
    return compile_tree(tree, do_merge=True)


SCENARIO_PROPERTY = {
    "fault-moving": "phi1",
    "fault-at-waypoint": "phi2",
    "attack-moving": "phi3",
    "attack-at-waypoint": "phi4",
}


def read_events(raw):
    """Events as a run reads them: each record written as a trace line by
    ``format_event`` and read back by ``read_trace``."""
    return [event for block in read_trace("".join(format_event(r) + "\n" for r in raw))
            for event in block]


def scenario_events(scenario, outcome):
    """The events of one scenario trace, as a run reads them."""
    return read_events(scenario_trace(scenario, outcome))


@pytest.fixture(scope="session")
def traces():
    """scenario -> outcome -> normalised event list."""
    return {
        sc: {oc: scenario_events(sc, oc) for oc in ("bad", "good")}
        for sc in SCENARIO_PROPERTY
    }


# ---------------------------------------------------------------------------
# Simple named atoms for language-level tests
# ---------------------------------------------------------------------------

def plain_atom(name):
    return Atom(EventAnnotation(name, (("topic", f"t_{name}"),)))


def plain_event(name):
    return {"topic": f"t_{name}"}


# ---------------------------------------------------------------------------
# Random terms and traces for engine/oracle equivalence
# ---------------------------------------------------------------------------

TOPICS = ("t1", "t2", "t3", "t4")
VARS = ("x0", "x1", "x2")


def _gen_guard(rng, candidates):
    candidates = sorted(set(candidates))
    var = rng.choice(candidates)
    others = [v for v in candidates if v != var]
    if others and rng.random() < 0.3:
        return parse_guard(f"{var} == {rng.choice(others)}")
    op = rng.choice([">=", "<=", "!=", "=="])
    return parse_guard(f"{var} {op} {rng.randrange(4)}")


def _gen_atom(rng, bound, wild=False):
    if wild:
        # Atoms with no literal topic, which any event may reach.
        roll = rng.random()
        if roll < 0.12:
            var = rng.choice(VARS)
            return Atom(EventAnnotation(f"topic_{var}", (("topic", Bind(var)),))), {var}
        if roll < 0.24 and bound:
            return Atom(EventAnnotation("guard_only", (), _gen_guard(rng, bound))), set()
        if roll < 0.36:
            var = rng.choice(VARS)
            return Atom(EventAnnotation(f"v_{var}", (("v", Bind(var)),))), {var}
    topic = rng.choice(TOPICS)
    pattern = [("topic", topic)]
    own = []
    if rng.random() < 0.6:
        var = rng.choice(VARS)
        pattern.append(("v", Bind(var)))
        own.append(var)
    elif rng.random() < 0.4:
        pattern.append(("v", float(rng.randrange(4))))
    guard = None
    candidates = own + list(bound)
    if candidates and rng.random() < 0.35:
        guard = _gen_guard(rng, candidates)
    name = f"{topic}_{len(own)}"
    return Atom(EventAnnotation(name, tuple(pattern), guard)), set(own)


def gen_term(rng, depth=3, bound=frozenset(), wild=False):
    """Random term; guards only reference variables bound by the same atom or
    earlier in an enclosing sequence, so oracle and engine agree on guard
    evaluation order.

    ``wild`` adds what the plain generator never builds: atoms whose topic is
    a variable, guard-only atoms, atoms with no topic key, and a check at the
    head of a sequence's right side (it heads the residual once the left
    side is consumed). Without it the random draws are unchanged.
    """
    if depth == 0 or rng.random() < 0.35:
        roll = rng.random()
        if roll < 0.08:
            return Epsilon(), set()
        if roll < 0.16 and bound:
            return Check(_gen_guard(rng, list(bound))), set()
        atom, own = _gen_atom(rng, bound, wild)
        return atom, own
    op = rng.choice(["seq", "union", "shuffle"])
    if op == "seq":
        left, b1 = gen_term(rng, depth - 1, bound, wild)
        right, b2 = gen_term(rng, depth - 1, bound | b1, wild)
        if wild and (bound | b1) and rng.random() < 0.5:
            right = Seq(Check(_gen_guard(rng, list(bound | b1))), right)
        return Seq(left, right), b1 | b2
    left, _ = gen_term(rng, depth - 1, bound, wild)
    right, _ = gen_term(rng, depth - 1, bound, wild)
    cls = Union if op == "union" else Shuffle
    return cls(left, right), set()  # no cross-arm exports


def gen_trace(rng, max_len=8, wild=False):
    """Random events over TOPICS. ``wild`` also draws events on a topic no
    atom names and events with no topic at all."""
    out = []
    for _ in range(rng.randrange(max_len + 1)):
        if wild:
            roll = rng.random()
            if roll < 0.15:
                out.append({"v": float(rng.randrange(4))})
                continue
            topic = "t9" if roll < 0.35 else rng.choice(TOPICS)
        else:
            topic = rng.choice(TOPICS)
        ev = {"topic": topic, "v": float(rng.randrange(4))}
        out.append(ev)
    return out
