import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CASES, gen_term
from rvaft.compiler import compile_tree
from rvaft.errors import TypeMismatchError, UnboundVariableError
from rvaft.fileformat import parse_guard, parse_tree
from rvaft.terms import (
    Atom,
    Bind,
    Check,
    Env,
    Epsilon,
    EventAnnotation,
    Seq,
    eval_guard,
    guard_vars,
    iter_atoms,
    match_event,
    normalize_event,
    normalize_value,
    nullable,
)

MOVE = EventAnnotation(
    "move", (("topic", "command"), ("name", "move"), ("waypoint", Bind("Waypoint")))
)
RADIATION = EventAnnotation(
    "radiation",
    (("topic", "radiation_sensor_plugin/sensor_0"), ("value", Bind("Value")),
     ("time", Bind("T1"))),
    parse_guard("Value >= 250"),
)


@pytest.mark.parametrize("kind", ["array", "object"])
def test_normalize_value_refuses_nesting_deeper_than_256_levels(kind):
    def nested(depth):
        value = 1
        for _ in range(depth):
            value = [value] if kind == "array" else {"k": value}
        return value

    value = normalize_value(nested(256))
    for _ in range(256):
        value = value[0] if kind == "array" else value["k"]
    assert value == 1.0 and type(value) is float
    with pytest.raises(ValueError, match="^nested deeper than 256 levels$"):
        normalize_value(nested(257))


def test_match_binds_variables():
    ev = normalize_event(
        {"topic": "command", "time": 10.4, "name": "move", "waypoint": 0}
    )
    env = match_event(MOVE, ev, Env.empty())
    assert env.get("Waypoint") == 0.0


def test_match_guard_pass_binds_all():
    ev = normalize_event(
        {"topic": "radiation_sensor_plugin/sensor_0", "value": 257.0, "time": 16.1}
    )
    assert match_event(RADIATION, ev, Env.empty()) == Env((("T1", 16.1), ("Value", 257.0)))


def test_match_guard_fail_on_low_value():
    ev = normalize_event(
        {"topic": "radiation_sensor_plugin/sensor_0", "value": 100.0, "time": 16.1}
    )
    assert match_event(RADIATION, ev, Env.empty()) is False


def test_match_missing_key_is_no_match():
    inspect = EventAnnotation(
        "inspect", (("topic", "command"), ("name", "inspect"), ("waypoint", Bind("W")))
    )
    ev = normalize_event({"topic": "move_base/goal", "goal": 2})
    assert match_event(inspect, ev, Env.empty()) is None


def test_match_bind_consistency():
    env = Env.empty().bind("Waypoint", 0.0)
    ev = normalize_event({"topic": "command", "name": "move", "waypoint": 1})
    assert match_event(MOVE, ev, env) is None


def test_match_unbound_guard_var_is_no_match():
    ann = EventAnnotation(
        "goal", (("topic", "move_base/goal"), ("goal", Bind("MBGoal"))),
        parse_guard("NewWp != MBGoal"),
    )
    ev = normalize_event({"topic": "move_base/goal", "goal": 2})
    assert match_event(ann, ev, Env.empty()) is None


def test_guard_timeout_arithmetic():
    g = parse_guard("T2 >= T1 + 10")
    assert eval_guard(g, Env(items=(("T1", 16.1), ("T2", 30.241)))) is True
    assert eval_guard(g, Env(items=(("T1", 16.1), ("T2", 17.493)))) is False


def test_guard_identity():
    g = parse_guard("x == x")
    for value in (0.0, "entrance", True):
        assert eval_guard(g, Env(items=(("x", value),))) is True


def test_guard_equality_across_types_is_unequal():
    g = parse_guard("NewWp != 'entrance'")
    assert eval_guard(g, Env(items=(("NewWp", 1.0),))) is True
    assert eval_guard(g, Env(items=(("NewWp", "entrance"),))) is False


def test_guard_ordered_comparison_needs_numbers():
    g = parse_guard("x >= 250")
    with pytest.raises(TypeMismatchError):
        eval_guard(g, Env(items=(("x", "high"),)))


def test_guard_unbound_variable_raises():
    with pytest.raises(UnboundVariableError):
        eval_guard(parse_guard("missing == 1"), Env.empty())


def test_effective_policy_derivation():
    # Guard over the atom's own binding refines the match: skip.
    assert RADIATION.effective_policy() == "skip"
    # Guard referencing an earlier binding correlates events: violate.
    correlated = EventAnnotation(
        "move",
        (("topic", "command"), ("waypoint", Bind("NewWp")), ("time", Bind("T2"))),
        parse_guard("NewWp != 'entrance' and T2 >= T1 + 10"),
    )
    assert correlated.effective_policy() == "violate"
    # An explicit policy always wins.
    assert (
        EventAnnotation("r", RADIATION.pattern, RADIATION.guard, "violate")
        .effective_policy()
        == "violate"
    )


def _policy_by_the_rule(ann):
    """The guard-failure policy as ``effective_policy`` states it, derived
    afresh on every call."""
    if ann.on_guard_fail is not None:
        return ann.on_guard_fail
    if ann.guard is None:
        return "skip"
    return "skip" if guard_vars(ann.guard) <= set(ann.bound_vars()) else "violate"


def _annotations_under_test():
    """Every annotation of both shipped trees and of the compiled shipped
    tree (whose guards are folded in by ``with_extra_guard``), and of wild
    random terms."""
    anns = []
    for name in ("remote_inspection.rvaft.json", "full_inspection.rvaft.json"):
        tree = parse_tree((CASES / name).read_bytes())
        anns += [node.annotation for node in tree.nodes.values() if node.annotation]
    spec = compile_tree(parse_tree((CASES / "remote_inspection.rvaft.json").read_bytes()))
    for term in [spec.merged] + [p.term for p in spec.properties]:
        anns += list(iter_atoms(term))
    for seed in range(200):
        anns += list(iter_atoms(gen_term(random.Random(seed), wild=True)[0]))
    return anns


def _with(ann, **changes):
    """A copy of the annotation with some of its fields changed."""
    fields = dict(name=ann.name, pattern=ann.pattern, guard=ann.guard,
                  on_guard_fail=ann.on_guard_fail)
    return EventAnnotation(**{**fields, **changes})


def test_effective_policy_is_derived_once_and_is_no_field():
    """The policy kept with an annotation is the rule's fresh value, also on
    the copies that guard folding makes and on new annotations with changed
    fields; it takes no part in equality, hashing or repr."""
    anns = _annotations_under_test()
    assert {_policy_by_the_rule(a) for a in anns} == {"skip", "violate"}
    correlated = parse_guard("T1 >= Other")
    for ann in anns:
        variants = [
            ann,
            ann.with_extra_guard(correlated),
            ann.with_extra_guard(correlated, on_guard_fail="skip"),
            _with(ann, on_guard_fail="violate"),
            _with(ann, on_guard_fail=None),
        ]
        if ann.pattern:
            variants.append(_with(ann, guard=None))
        for v in variants:
            assert v.effective_policy() == _policy_by_the_rule(v), v
            fields = (v.name, v.pattern, v.guard, v.on_guard_fail)
            assert hash(v) == hash(fields)
            assert repr(v) == (
                "EventAnnotation(name=%r, pattern=%r, guard=%r, on_guard_fail=%r)" % fields)
            assert v == EventAnnotation(*fields) == _with(v)
    skip = EventAnnotation("r", RADIATION.pattern, RADIATION.guard)
    assert skip != _with(skip, on_guard_fail="skip")


def test_nullable_basics():
    a = Atom(MOVE)
    assert nullable(Epsilon(), Env.empty()) is True
    assert nullable(Seq(a, Epsilon()), Env.empty()) is False
    env = Env(items=(("T1", 16.1), ("T2", 30.241)))
    assert nullable(Check(parse_guard("T2 >= T1 + 10")), env) is True
    assert nullable(Check(parse_guard("T2 >= T1 + 10")), Env.empty()) is False


def test_env_bind_once():
    env = Env.empty().bind("x", 1.0)
    with pytest.raises(ValueError):
        env.bind("x", 2.0)
    assert env.get("x") == 1.0


@given(
    value=st.one_of(
        st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=8)
    ),
    waypoint=st.integers(0, 3),
)
@settings(max_examples=200, deadline=None)
def test_match_tristate_is_exhaustive_and_pure(value, waypoint):
    """Bindings, False (a failed guard) or None (no match): exactly one, and
    stable. A guard that meets a value of the wrong type cannot hold, so it
    is no match."""
    ev = normalize_event(
        {"topic": "radiation_sensor_plugin/sensor_0", "value": value, "time": 1.0,
         "waypoint": waypoint}
    )
    first = match_event(RADIATION, ev, Env.empty())
    assert match_event(RADIATION, ev, Env.empty()) == first
    if isinstance(value, str):  # ordered guard met a non-number
        assert first is None
    elif value >= 250:
        assert first == Env((("T1", 1.0), ("Value", value)))
    else:
        assert first is False


def test_bind_once_across_a_sequence():
    """A variable keeps its first value; later occurrences re-check, never remap."""
    first = match_event(
        MOVE, normalize_event({"topic": "command", "name": "move", "waypoint": 0}),
        Env.empty(),
    )
    again = match_event(
        MOVE, normalize_event({"topic": "command", "name": "move", "waypoint": 0}),
        first,
    )
    assert again == first


def test_structural_equality_separates_booleans_from_numbers():
    from rvaft.terms import values_equal

    flag_lit = EventAnnotation("f", (("topic", "t"), ("flag", True)))
    ev_bool = normalize_event({"topic": "t", "flag": True})
    ev_num = normalize_event({"topic": "t", "flag": 1})
    matched = match_event(flag_lit, ev_bool, Env.empty())
    assert matched == Env() and matched  # a match binding nothing is still truthy
    assert match_event(flag_lit, ev_num, Env.empty()) is None
    assert not values_equal({"a": True}, {"a": 1.0})
    assert values_equal({"a": (1.0, "x")}, {"a": (1.0, "x")})


def test_nested_structured_values_compare_deeply():
    pose = {"position": {"x": 1.8, "y": 0.4, "z": 0.0}}
    ann = EventAnnotation("r", (("topic", "t"), ("pose", normalize_event(pose)["position"])))
    same = normalize_event({"topic": "t", "pose": {"x": 1.8, "y": 0.4, "z": 0.0}})
    different = normalize_event({"topic": "t", "pose": {"x": 1.8, "y": 0.4, "z": 9.9}})
    assert match_event(ann, same, Env.empty()) == Env()
    assert match_event(ann, different, Env.empty()) is None
