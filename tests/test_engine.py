import functools
import itertools
import random

import pytest

from conftest import SCENARIO_PROPERTY, gen_term, gen_trace, plain_atom, plain_event

from rvaft import engine
from rvaft.casestudy import interleave, noise_events, scenario_events
from rvaft.compiler import BranchProperty, MonitorSpec
from rvaft.engine import Monitor, TraceRunner, Verdict, run_trace
from rvaft.errors import UnknownPropertyError
from rvaft.fileformat import parse_guard
from rvaft.oracle import oracle_verdict
from rvaft.terms import (
    NO_MATCH,
    Atom,
    Bind,
    Check,
    Empty,
    Epsilon,
    EventAnnotation,
    Seq,
    Shuffle,
    Union,
    normalize_event,
    union,
)

A, B, C = (plain_atom(x) for x in "abc")
EA, EB, EC = (plain_event(x) for x in "abc")


def test_init_verdicts():
    assert Monitor(A).verdict is Verdict.UNKNOWN
    assert Monitor(Epsilon()).verdict is Verdict.SATISFIED
    assert Monitor(Empty()).verdict is Verdict.VIOLATED


def test_step_is_noop_once_decided():
    m = Monitor(Epsilon())
    diag = m.step(EA)
    assert diag.outcome == "decided"
    assert m.verdict is Verdict.SATISFIED


def test_verdict_is_sticky():
    m = Monitor(Union(A, B))
    m.step(EA)
    assert m.verdict is Verdict.SATISFIED
    for ev in (EB, EC, EA):
        m.step(ev)
        assert m.verdict is Verdict.SATISFIED


def test_union_resolves_on_consumption():
    """Consuming an event through one union arm drops the other arms."""
    m = Monitor(Union(Seq(A, B), Seq(C, B)))
    m.step(EA)
    assert len(m.alternatives) == 1
    m.step(EB)
    assert m.verdict is Verdict.SATISFIED


def test_shuffle_accepts_all_six_orderings():
    term = Shuffle(A, Shuffle(B, C))
    events = {0: EA, 1: EB, 2: EC}
    for order in itertools.permutations(range(3)):
        m = Monitor(term)
        for i in order:
            m.step(events[i])
        assert m.verdict is Verdict.SATISFIED, order


def test_shuffle_partial_stays_unknown():
    m = Monitor(Shuffle(A, Shuffle(B, C)))
    m.step(EA)
    m.step(EC)
    assert m.verdict is Verdict.UNKNOWN


def test_elimination_only_events_never_grow_alternatives():
    rng = random.Random(7)
    for _ in range(50):
        term, _ = gen_term(rng)
        m = Monitor(term)
        if m.verdict is not Verdict.UNKNOWN:
            continue
        for ev in gen_trace(rng):
            before = len(m.alternatives)
            diag = m.step(ev)
            if diag.outcome in ("neutral", "eliminated", "dropped"):
                assert len(m.alternatives) <= before


def test_skip_policy_guard_failure_is_neutral():
    rad = Atom(
        EventAnnotation(
            "rad", (("topic", "t_r"), ("v", Bind("Value"))), parse_guard("Value >= 250")
        )
    )
    m = Monitor(rad)
    diag = m.step(normalize_event({"topic": "t_r", "v": 100}))
    assert diag.outcome == "neutral"
    assert m.skipped == 1
    assert m.verdict is Verdict.UNKNOWN
    m.step(normalize_event({"topic": "t_r", "v": 257}))
    assert m.verdict is Verdict.SATISFIED


def test_violate_policy_guard_failure_eliminates():
    move = Atom(
        EventAnnotation(
            "move", (("topic", "t_m"), ("t", Bind("T2"))),
            parse_guard("T2 >= T1 + 10"), on_guard_fail="violate",
        )
    )
    m = Monitor(move)
    # T1 unbound: the guard cannot discriminate yet -> neutral, not a crash.
    diag = m.step(normalize_event({"topic": "t_m", "t": 3}))
    assert diag.outcome == "neutral"
    assert m.verdict is Verdict.UNKNOWN


def test_type_mismatch_is_diagnosed_not_fatal():
    guarded = Atom(
        EventAnnotation(
            "g", (("topic", "t_g"), ("v", Bind("X"))), parse_guard("X >= 10")
        )
    )
    m = Monitor(guarded)
    diag = m.step(normalize_event({"topic": "t_g", "v": "a-string"}))
    assert m.verdict is Verdict.UNKNOWN
    assert diag.outcome == "neutral"


def test_topic_filter_drops_unsubscribed_events():
    m = Monitor(A, topics={"t_a"})
    diag = m.step({"topic": "odom", "x": 1.0})
    assert diag.outcome == "dropped"
    assert m.skipped == 1
    m.step(EA)
    assert m.verdict is Verdict.SATISFIED


def test_strict_mode_eliminates_on_nonprogress():
    m = Monitor(Seq(A, B), strict=True)
    m.step(EB)  # cannot progress the first atom
    assert m.verdict is Verdict.VIOLATED


# ---------------------------------------------------------------------------
# Table replays (engine-level; the acceptance suite re-runs these end to end)
# ---------------------------------------------------------------------------

def _verdicts(spec, which, trace, close=True):
    result = run_trace(spec, which, trace, close_at_end=close)
    return [v.value for _, v in result.verdicts]


def test_fault_moving_bad_replay(spec, traces):
    assert _verdicts(spec, "phi1", traces["fault-moving"]["bad"]) == ["?", "?", "?", "top"]


def test_fault_moving_good_replay(spec, traces):
    # The final move comes 1.393s after the reading: the cross-event timeout
    # guard fails under its violate policy.
    assert _verdicts(spec, "phi1", traces["fault-moving"]["good"]) == [
        "?", "?", "?", "bottom",
    ]


def test_attack_moving_replays(spec, traces):
    assert _verdicts(spec, "phi3", traces["attack-moving"]["bad"]) == [
        "?", "?", "?", "?", "top",
    ]
    assert _verdicts(spec, "phi3", traces["attack-moving"]["good"]) == [
        "?", "?", "?", "?", "bottom",
    ]


def test_merged_closes_to_violated_at_end_of_trace(spec, traces):
    trace = traces["fault-moving"]["good"]
    open_run = run_trace(spec, "merged", trace, close_at_end=False)
    # Mid-stream the goal-alteration continuation is still live...
    assert open_run.state.verdict is Verdict.UNKNOWN
    # ...but the completed trace never satisfied the property.
    closed = run_trace(spec, "merged", trace)
    assert closed.final_verdict is Verdict.VIOLATED
    assert [v.value for _, v in closed.verdicts] == ["?", "?", "?", "bottom"]


def test_merged_attribution(spec, traces):
    result = run_trace(spec, "merged", traces["fault-at-waypoint"]["bad"])
    assert result.final_verdict is Verdict.SATISFIED
    assert result.records[-1].live_branches == ("phi2",)


def test_run_trace_empty_is_unknown(spec):
    result = run_trace(spec, "merged", [])
    assert result.verdicts == []
    assert result.final_verdict is Verdict.UNKNOWN


def test_run_trace_unknown_property(spec):
    with pytest.raises(UnknownPropertyError):
        run_trace(spec, "phi9", [])


def test_noise_does_not_change_verdicts(spec, traces):
    rng = random.Random(11)
    for sc, pid in SCENARIO_PROPERTY.items():
        base = traces[sc]["bad"]
        noisy = interleave(base, noise_events(6, rng), rng)
        noisy = [
            dict(normalize_event(e), topic=normalize_event(e)["topic"].lstrip("/"))
            for e in noisy
        ]
        for which in (pid, "merged"):
            assert run_trace(spec, which, noisy).final_verdict is Verdict.SATISFIED


def test_per_event_cost_does_not_grow_with_stream_length(spec):
    """Bounded alternatives: the work per event depends on the term, not on
    how many events came before."""
    rng = random.Random(3)
    m = Monitor(spec.merged, topics=spec.topics)
    for raw in noise_events(2000, rng):
        ev = normalize_event(raw)
        ev["topic"] = ev["topic"].lstrip("/")
        m.step(ev)
    assert m.peak_alternatives <= 8
    assert m.verdict is Verdict.UNKNOWN


# ---------------------------------------------------------------------------
# Engine/oracle equivalence on randomized instances
# ---------------------------------------------------------------------------

def test_engine_agrees_with_oracle_randomized():
    rng = random.Random(20240817)
    checked = 0
    for _ in range(300):
        term, _ = gen_term(rng)
        trace = gen_trace(rng)
        m = Monitor(term)
        for ev in trace:
            m.step(ev)
        assert m.verdict == oracle_verdict(term, trace), (term, trace)
        checked += 1
    assert checked == 300


# ---------------------------------------------------------------------------
# Frontier: events no live alternative can consume are skipped unstepped
# ---------------------------------------------------------------------------

SUBSCRIBED = {"t_a", "t_b", "t_c"}


def _refuse(*_args):
    raise AssertionError("an off-frontier event reached the derivation")


def test_off_frontier_event_is_skipped_without_deriving(monkeypatch):
    m = Monitor(Seq(A, B), topics=SUBSCRIBED)
    m.step(EA)
    assert m.frontier == {"t_b"}
    alternatives = m.alternatives
    monkeypatch.setattr(engine, "match_event", _refuse)
    monkeypatch.setattr(engine, "nullable", _refuse)
    for ev in (EC, EA):  # subscribed, but not next or already consumed
        assert m.step(ev).outcome == "neutral"
    assert m.skipped == 2
    assert m.alternatives is alternatives
    assert m.verdict is Verdict.UNKNOWN
    assert m.step({"topic": "odom"}).outcome == "dropped"
    monkeypatch.undo()
    assert m.step(EB).outcome == "progressed"
    assert m.verdict is Verdict.SATISFIED


def test_strict_mode_still_eliminates_off_frontier_events():
    m = Monitor(Seq(A, B), topics=SUBSCRIBED, strict=True)
    assert m.frontier is None
    m.step(EA)
    assert m.step(EC).outcome == "eliminated"
    assert m.verdict is Verdict.VIOLATED


@pytest.mark.parametrize("wild", [
    EventAnnotation("topic_var", (("topic", Bind("T")),)),
    EventAnnotation("guard_only", (), parse_guard("X >= 1")),
    EventAnnotation("no_topic", (("v", Bind("X")),)),
], ids=["topic-variable", "guard-only", "no-topic-key"])
def test_atom_without_literal_topic_opens_the_frontier(wild, monkeypatch):
    m = Monitor(Union(A, Atom(wild)))
    assert m.frontier is None
    tried = []
    monkeypatch.setattr(
        engine, "match_event", lambda ann, _ev, _env: tried.append(ann.name) or NO_MATCH
    )
    assert m.step(EC).outcome == "neutral"  # derived in full, though no atom names t_c
    assert tried == ["a", wild.name]


def test_frontier_looks_past_a_check_and_a_nullable_head():
    head = Check(parse_guard("X >= 1"))
    assert Monitor(Seq(head, B)).frontier == {"t_b"}
    assert Monitor(Seq(Union(A, Epsilon()), Seq(B, C))).frontier == {"t_a", "t_b"}
    assert Monitor(Shuffle(Seq(A, B), C)).frontier == {"t_a", "t_c"}


def _spec(*terms):
    """A spec with no topic filter whose branches phi1, phi2, ... are
    ``terms`` and whose merged term is their union."""
    props = tuple(BranchProperty(f"phi{i}", (), "fault", term, ())
                  for i, term in enumerate(terms, 1))
    return MonitorSpec("random", props, functools.reduce(union, terms), None)


def _replay(spec, which, trace, strict):
    """Per step of the ``which`` runner's monitor: outcome, alternatives,
    verdict and skip count; and how many steps met an event off the
    frontier. After every event the cached bindings equal those merged
    afresh from the alternatives, and the record `feed` returned carries the
    attribution and bindings computed afresh."""
    runner = TraceRunner(spec, which, strict=strict)
    m = runner.monitor
    diags = []

    def step(event, step=m.step):
        diags.append(step(event))
        return diags[-1]

    m.step = step
    rows = []
    off_frontier = 0
    for ev in trace:
        off_frontier += (m.verdict is Verdict.UNKNOWN and m.frontier is not None
                         and ev.get("topic") not in m.frontier)
        record = runner.feed(ev)
        assert m.bindings() == {k: v for a in m.alternatives for k, v in a.env.items}
        assert record.live_branches == runner.attribution()
        assert record.bindings == (m.bindings() or None)
        diag = diags[-1]
        rows.append((diag.outcome, tuple(m.alternatives), m.verdict, m.skipped))
    return rows, off_frontier


@pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
def test_frontier_skip_matches_full_derivation_and_oracle(strict, monkeypatch):
    """On terms with wildcard atoms and check-headed sequences, and on events
    no atom names, every step equals the step that derives every event, and
    (outside strict mode, which the oracle does not model) the verdict
    equals the oracle's."""
    rng = random.Random(777)
    skipped = 0
    for _ in range(400):
        term, _ = gen_term(rng, wild=True)
        trace = gen_trace(rng, wild=True)
        fast, off_frontier = _replay(_spec(term), "phi1", trace, strict)
        skipped += off_frontier
        with monkeypatch.context() as patched:
            patched.setattr(engine, "_frontier", lambda _term, _out: False)
            full, _ = _replay(_spec(term), "phi1", trace, strict)
        assert fast == full, (term, trace)
        if not strict:
            verdict = fast[-1][2] if fast else Monitor(term).verdict
            assert verdict == oracle_verdict(term, trace), (term, trace)
    if strict:
        assert skipped == 0
    else:
        assert skipped > 100  # the fast path is exercised, not bypassed


@pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
def test_records_carry_fresh_attribution_and_bindings(strict, spec, traces):
    """`feed` hands on the previous record's attribution and bindings unless
    some monitor's alternatives changed; at every event, for the merged
    monitor and every branch, they equal those computed afresh. Streams: the
    scenario traces, noisy interleavings of the bad ones, and wild random
    terms and traces."""
    streams = [(spec, trace) for outcomes in traces.values() for trace in outcomes.values()]
    rng = random.Random(40412)
    for scenario in SCENARIO_PROPERTY:
        for _ in range(10):
            noise = [
                dict(normalize_event(e), topic=normalize_event(e)["topic"].lstrip("/"))
                for e in noise_events(rng.randrange(21), rng)
            ]
            streams.append((spec, interleave(traces[scenario]["bad"], noise, rng)))
    rng = random.Random(8086)
    for _ in range(150):
        terms = [gen_term(rng, wild=True)[0] for _ in range(3)]
        streams.append((_spec(*terms), gen_trace(rng, wild=True)))
    for stream_spec, trace in streams:
        for which in ("merged",) + stream_spec.property_ids():
            _replay(stream_spec, which, trace, strict)


def test_bindings_are_read_only_and_kept_while_the_alternatives_are():
    ann = EventAnnotation("a", (("topic", "t_a"), ("x", Bind("X"))))
    m = Monitor(Seq(Atom(ann), B))
    assert m.bindings() == {}
    m.step({"topic": "t_a", "x": 3.0})
    view = m.bindings()
    assert view == {"X": 3.0}
    with pytest.raises(TypeError):
        view["X"] = 4.0
    assert m.step(EC).outcome == "neutral"
    assert m.bindings() is view
