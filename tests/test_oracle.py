from conftest import plain_atom, plain_event

from rvaft.engine import Verdict
from rvaft.fileformat import parse_guard
from rvaft.oracle import language, matches, oracle_verdict, prefix_envs
from rvaft.terms import (
    Atom,
    Bind,
    Check,
    Env,
    EventAnnotation,
    Seq,
    Shuffle,
    Union,
    normalize_event,
)

A, B = plain_atom("a"), plain_atom("b")
EA, EB = plain_event("a"), plain_event("b")


def test_language_shuffle_has_both_orders():
    assert language(Shuffle(A, B), Env.empty(), [EA, EB], 2) == {(0, 1), (1, 0)}


def test_language_seq_is_ordered():
    assert language(Seq(A, B), Env.empty(), [EA, EB], 2) == {(0, 1)}


def test_matches_threads_bindings():
    bindx = Atom(EventAnnotation("x", (("topic", "t"), ("v", Bind("x")))))
    guard = Check(parse_guard("x >= 2"))
    term = Seq(bindx, guard)
    ok = normalize_event({"topic": "t", "v": 3})
    low = normalize_event({"topic": "t", "v": 1})
    assert matches(term, Env.empty(), [ok])
    assert not matches(term, Env.empty(), [low])


def test_prefix_envs_is_optimistic_about_pending_atoms():
    term = Seq(A, B)
    assert prefix_envs(term, Env.empty(), [EA])
    assert not prefix_envs(term, Env.empty(), [EB])


def test_oracle_incomplete_sequence_is_unknown():
    assert oracle_verdict(Seq(A, B), [EA]) is Verdict.UNKNOWN


def test_oracle_completion_is_satisfied():
    assert oracle_verdict(Seq(A, B), [EA, EB]) is Verdict.SATISFIED
    assert oracle_verdict(Union(A, B), [EB]) is Verdict.SATISFIED


def test_oracle_skips_noise():
    noise = plain_event("z")
    assert oracle_verdict(Seq(A, B), [noise, EA, noise, EB]) is Verdict.SATISFIED


def test_oracle_violate_policy_eliminates():
    move = Atom(
        EventAnnotation(
            "move",
            (("topic", "t"), ("v", Bind("T2"))),
            parse_guard("T2 >= 10"),
            on_guard_fail="violate",
        )
    )
    early = normalize_event({"topic": "t", "v": 3})
    assert oracle_verdict(move, [early]) is Verdict.VIOLATED
    late = normalize_event({"topic": "t", "v": 30})
    assert oracle_verdict(move, [late]) is Verdict.SATISFIED


def test_oracle_skip_policy_keeps_waiting():
    rad = Atom(
        EventAnnotation(
            "rad", (("topic", "t"), ("v", Bind("Value"))), parse_guard("Value >= 250")
        )
    )
    low = normalize_event({"topic": "t", "v": 100})
    high = normalize_event({"topic": "t", "v": 257})
    assert oracle_verdict(rad, [low]) is Verdict.UNKNOWN
    assert oracle_verdict(rad, [low, high]) is Verdict.SATISFIED


def test_oracle_topic_filter():
    off_topic = {"topic": "elsewhere", "v": 1.0}
    assert oracle_verdict(A, [off_topic, EA], topics={"t_a"}) is Verdict.SATISFIED
