import functools
import itertools
import json
import random
from pathlib import Path

import pytest

from conftest import (
    SCENARIO_PROPERTY,
    gen_term,
    gen_trace,
    plain_atom,
    plain_event,
    read_events,
)
from oracle import oracle_verdict, run_trace

from rvaft import engine
from rvaft.casestudy import interleave, noise_events
from rvaft.compiler import BranchProperty, MonitorSpec, compile_tree
from rvaft.engine import Monitor, TraceRunner, Verdict
from rvaft.errors import UnknownPropertyError
from rvaft.fileformat import parse_guard, parse_tree
from rvaft.model import annotate
from rvaft.terms import (
    Atom,
    Bind,
    Check,
    Epsilon,
    EventAnnotation,
    Seq,
    Shuffle,
    Union,
    normalize_event,
    nullable,
)

A, B, C = (plain_atom(x) for x in "abc")
EA, EB, EC = (plain_event(x) for x in "abc")


def test_init_verdicts():
    assert Monitor(A).verdict is Verdict.UNKNOWN
    assert Monitor(Epsilon()).verdict is Verdict.SATISFIED


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


# ROADMAP item 1: the merged monitor must end ⊤ whenever some branch does.
# Both traces below break that today, each for its own cause; the branch's
# case passes and the merged case is a strict xfail until item 1 lands.
_ITEM_1 = "ROADMAP item 1, cause {}: merged ends ⊥ where a branch ends ⊤"


@pytest.mark.parametrize("which", [
    "phi2",
    pytest.param("merged", marks=pytest.mark.xfail(strict=True, reason=_ITEM_1.format(
        "A: the first stage's union commits to the arm of move(5)"))),
])
def test_item_1_cause_a_move_then_arrival_ends_top(which, spec):
    trace = [normalize_event(e) for e in (
        {"topic": "command", "name": "move", "waypoint": 5},
        {"topic": "move_base/result", "waypoint": 0, "result": "success"},
        {"topic": "command", "name": "inspect", "waypoint": 0},
        {"topic": "radiation_sensor_plugin/sensor_0", "value": 300, "time": 16.1},
        {"topic": "command", "name": "move", "waypoint": 2, "time": 40.1},
    )]
    assert run_trace(spec, which, trace).final_verdict is Verdict.SATISFIED


@pytest.mark.parametrize("which", [
    "phi1",
    pytest.param("merged", marks=pytest.mark.xfail(strict=True, reason=_ITEM_1.format(
        "B: the guard X > 5 stays a check after the shared head a(X)"))),
])
def test_item_1_cause_b_guard_folded_into_a_shared_head_ends_top(which):
    def atom(name, pattern):
        return {"class": "fault", "event": {"name": name, "pattern": pattern}}

    tree = parse_tree(json.dumps({"name": "cause_b", "root": "r", "nodes": {
        "r": {"gate": {"kind": "SAND_LR", "children": ["a", "o"]}},
        "o": {"gate": {"kind": "OR", "children": ["s", "c"]}},
        "s": {"gate": {"kind": "SAND_LR", "children": ["g", "b"]}},
        "a": atom("a", {"topic": "a", "x": {"bind": "X"}}),
        "g": {"event": {"name": "g", "pattern": {}, "guard": "X > 5"}},
        "b": atom("b", {"topic": "b"}),
        "c": atom("c", {"topic": "c"}),
    }}))
    spec = compile_tree(tree)
    trace = [normalize_event(e) for e in ({"topic": "a", "x": 1}, {"topic": "a", "x": 7},
                                          {"topic": "b"})]
    assert run_trace(spec, which, trace).final_verdict is Verdict.SATISFIED


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
        noisy = interleave(base, read_events(noise_events(6, rng)), rng)
        for which in (pid, "merged"):
            assert run_trace(spec, which, noisy).final_verdict is Verdict.SATISFIED


def test_per_event_cost_does_not_grow_with_stream_length(spec):
    """Bounded alternatives: the work per event depends on the term, not on
    how many events came before."""
    rng = random.Random(3)
    m = Monitor(spec.merged, topics=spec.topics)
    for ev in read_events(noise_events(2000, rng)):
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
    raise AssertionError("an event that needs no derivation reached it")


def test_off_frontier_event_is_skipped_without_deriving(monkeypatch):
    m = Monitor(Seq(A, B), topics=SUBSCRIBED)
    m.step(EA)
    assert m.frontier == {"t_b"}
    alternatives = m.alternatives
    monkeypatch.setattr(engine, "match_event", _refuse)
    monkeypatch.setattr(engine, "nullable", _refuse)
    for ev in (EC, EA):  # subscribed, but not next or already consumed
        assert m.step(ev).outcome == "neutral"
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
        engine, "match_event", lambda ann, _ev, _env: tried.append(ann.name)  # None: no match
    )
    assert m.step(EC).outcome == "neutral"  # derived in full, though no atom names t_c
    assert tried == ["a", wild.name]


def test_frontier_looks_past_a_check_and_a_nullable_head(monkeypatch):
    assert Monitor(Seq(Check(parse_guard("1 >= 0")), B)).frontier == {"t_b"}
    # A check that does not hold (here X is unbound) hides what follows it,
    # as it does from the derivation.
    blocked = Monitor(Seq(Check(parse_guard("X >= 1")), B))
    assert blocked.frontier == set()
    monkeypatch.setattr(engine, "_derive", _refuse)
    assert blocked.step(EB).outcome == "neutral"
    assert Monitor(Seq(Union(A, Epsilon()), Seq(B, C))).frontier == {"t_a", "t_b"}
    assert Monitor(Shuffle(Seq(A, B), C)).frontier == {"t_a", "t_c"}


# ---------------------------------------------------------------------------
# Atom tests: an event on the frontier that no next atom takes on its own
# ---------------------------------------------------------------------------

RADIATION = "radiation_sensor_plugin/sensor_0"


def _waiting_runner(full_tree):
    """The merged runner of the full tree, with the imagery vote and the
    battery leaf annotated, after move(0), two low-confidence reports and
    inspect(0): its monitors wait for a high radiation reading."""
    tree = full_tree
    for leaf, var in (("camera_blur", "CBlur"), ("barrel_missed", "CBarrel"),
                      ("leak_missed", "CLeak")):
        tree = annotate(tree, leaf, EventAnnotation(
            leaf, (("topic", "imagery/report"), ("confidence", Bind(var))),
            parse_guard(f"{var} < 0.5")))
    tree = annotate(tree, "battery_dead", EventAnnotation(
        "battery_dead", (("topic", "battery"), ("level", Bind("Level"))),
        parse_guard("Level <= 0")))
    runner = TraceRunner(compile_tree(tree, do_merge=True), "merged")
    for ev in ({"topic": "command", "name": "move", "waypoint": 0.0, "time": 1.0},
               {"topic": "imagery/report", "confidence": 0.2, "time": 1.5},
               {"topic": "imagery/report", "confidence": 0.3, "time": 2.0},
               {"topic": "command", "name": "inspect", "waypoint": 0.0, "time": 3.0}):
        runner.feed(ev)
    return runner


def _reading(value, time):
    return {"topic": RADIATION, "value": value, "time": time}


def test_low_readings_while_waiting_are_noise_without_deriving(full_tree, monkeypatch):
    runner = _waiting_runner(full_tree)
    monitors = [runner.monitor, *runner.shadows.values()]
    assert len(runner.monitor.alternatives) == 18
    held = [m.alternatives for m in monitors]
    monkeypatch.setattr(engine, "_derive", _refuse)
    for i in range(20):
        ev = _reading(20.0 + 5 * i, 4.0 + i / 20)
        assert [m.step(ev).outcome for m in monitors] == ["neutral"] * len(monitors)
    assert all(m.alternatives is alts for m, alts in zip(monitors, held))
    monkeypatch.undo()
    assert runner.monitor.step(_reading(300.0, 6.0)).outcome == "progressed"


@pytest.mark.parametrize("derive", [False, True], ids=["atom-test", "derivation"])
def test_a_string_reading_is_noise_as_the_derivation_makes_it(derive, full_tree, monkeypatch):
    if derive:
        monkeypatch.setattr(engine, "_frontier", lambda _term, _env, _out: False)
    runner = _waiting_runner(full_tree)
    if not derive:
        monkeypatch.setattr(engine, "_derive", _refuse)
    m = runner.monitor
    alternatives = m.alternatives
    assert m.step(_reading("high", 4.0)).outcome == "neutral"
    assert m.alternatives is alternatives


def test_a_skip_guard_over_an_earlier_binding_still_derives():
    """The hostile tree's `end` atom skips when its guard fails, but the
    guard reads `V`, which `start` binds: under no bindings it matches
    nothing, so its events must be derived."""
    spec = compile_tree(parse_tree(
        (Path(__file__).parent / "data" / "hostile.rvaft.json").read_bytes()))
    on_a = next(p.term for p in spec.properties if p.path == ("on_a",))
    m = Monitor(on_a, topics=spec.topics)
    assert m.step({"topic": "a", "kind": "start", "v": 1.0}).outcome == "progressed"
    assert m.step({"topic": "a", "kind": "end", "v": 5.0}).outcome == "neutral"
    assert m.step({"topic": "a", "kind": "end", "v": 15.0}).outcome == "progressed"
    assert m.verdict is Verdict.SATISFIED


def test_a_self_contained_guard_that_violates_still_eliminates():
    hot = Atom(EventAnnotation("hot", (("topic", "t_r"), ("value", Bind("X"))),
                               parse_guard("X >= 250"), on_guard_fail="violate"))
    m = Monitor(Seq(A, hot))
    m.step(EA)
    assert m.step({"topic": "t_r", "value": 10.0}).outcome == "eliminated"
    assert m.verdict is Verdict.VIOLATED


def _spec(*terms):
    """A spec with no topic filter whose branches phi1, phi2, ... are
    ``terms`` and whose merged term is their union."""
    props = tuple(BranchProperty(f"phi{i}", (), "fault", term)
                  for i, term in enumerate(terms, 1))
    return MonitorSpec(props, functools.reduce(Union, terms), None)


def _behind_failed_checks(term, env, behind=False):
    """Topics of the atoms that the derivation of the term under ``env``
    would reach next if it crossed every sequence head that is a check not
    holding there, and that it reaches only by such a crossing."""
    if isinstance(term, Atom):
        return {term.ann.topic()} if behind else set()
    if isinstance(term, Seq):
        out = _behind_failed_checks(term.left, env, behind)
        if nullable(term.left, env):
            return out | _behind_failed_checks(term.right, env, behind)
        if isinstance(term.left, Check):
            return out | _behind_failed_checks(term.right, env, True)
        return out
    if isinstance(term, (Union, Shuffle)):
        return (_behind_failed_checks(term.left, env, behind)
                | _behind_failed_checks(term.right, env, behind))
    return set()


def _replay(spec, which, trace, strict):
    """Per step of the ``which`` runner's monitor: outcome, alternatives and
    verdict; how many steps met an event off the frontier; how many met one
    whose topic's next atoms were tested alone; and how many met an event off
    the frontier on the topic of an atom that sits behind a check that does
    not hold under its alternative's bindings. After every event the state
    `feed` returned carries the attribution computed afresh, and bindings
    equal to those merged afresh from the alternatives."""
    runner = TraceRunner(spec, which, strict=strict)
    m = runner.monitor
    diags = []

    def step(event, step=m.step):
        diags.append(step(event))
        return diags[-1]

    m.step = step
    rows = []
    off_frontier = atom_tested = behind_check = 0
    for ev in trace:
        topic = ev.get("topic")
        if m.verdict is Verdict.UNKNOWN and m.frontier is not None:
            off = topic not in m.frontier
            off_frontier += off
            atom_tested += isinstance(m._route.get(topic), tuple)
            behind_check += off and any(
                topic in _behind_failed_checks(t, e) for t, e in m.alternatives)
        state = runner.feed(ev)
        assert state.live_branches == runner.attribution()
        assert state.bindings == ({k: v for _, e in m.alternatives for k, v in e.items}
                                  or None)
        diag = diags[-1]
        rows.append((diag.outcome, tuple(m.alternatives), m.verdict))
    return rows, off_frontier, atom_tested, behind_check


@pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
def test_frontier_skip_matches_full_derivation_and_oracle(strict, monkeypatch):
    """On terms with wildcard atoms and check-headed sequences, and on events
    no atom names or whose `v` is a string or a boolean (which a numeric
    guard cannot compare), every step equals the step that derives every
    event, and (outside strict mode, which the oracle does not model) the
    verdict equals the oracle's."""
    rng = random.Random(777)
    skipped = tested = hidden = 0
    for _ in range(400):
        term, _ = gen_term(rng, wild=True)
        trace = [dict(ev, v=rng.choice(("1", True))) if "v" in ev and rng.random() < 0.2
                 else ev for ev in gen_trace(rng, wild=True)]
        fast, off_frontier, atom_tested, behind_check = _replay(
            _spec(term), "phi1", trace, strict)
        skipped += off_frontier
        tested += atom_tested
        hidden += behind_check
        with monkeypatch.context() as patched:
            patched.setattr(engine, "_frontier", lambda _term, _env, _out: False)
            full, *_ = _replay(_spec(term), "phi1", trace, strict)
        assert fast == full, (term, trace)
        if not strict:
            verdict = fast[-1][2] if fast else Monitor(term).verdict
            assert verdict == oracle_verdict(term, trace), (term, trace)
    if strict:
        assert skipped == tested == hidden == 0
    else:
        # Both fast paths are exercised, not bypassed, and so is a check
        # that hides what follows it.
        assert skipped > 100
        assert tested >= 100
        assert hidden > 0


@pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
def test_records_carry_fresh_attribution_and_bindings(strict, spec, traces):
    """`feed` hands on the previous state unless some monitor's alternatives
    changed or the skipped flag flipped; at every event, for the merged
    monitor and every branch, they equal those computed afresh. Streams: the
    scenario traces, noisy interleavings of the bad ones, and wild random
    terms and traces."""
    streams = [(spec, trace) for outcomes in traces.values() for trace in outcomes.values()]
    rng = random.Random(40412)
    for scenario in SCENARIO_PROPERTY:
        for _ in range(10):
            noise = read_events(noise_events(rng.randrange(21), rng))
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
    runner = TraceRunner(_spec(Seq(Atom(ann), B)), "phi1")
    assert runner.state.bindings is None  # no binding is set
    state = runner.feed({"topic": "t_a", "x": 3.0})
    view = state.bindings
    assert view == {"X": 3.0}
    with pytest.raises(TypeError):
        view["X"] = 4.0
    with pytest.raises(AttributeError):
        state.bindings = None
    state = runner.feed(EC)
    assert state.skipped  # neutral
    assert state.bindings is view


def test_feed_hands_on_one_state_until_a_monitor_changes_or_skipped_flips():
    ax = Atom(EventAnnotation("a", (("topic", "t_a"), ("x", Bind("X")))))
    runner = TraceRunner(_spec(Seq(ax, B), Seq(ax, C)), "merged")
    ea = {"topic": "t_a", "x": 1.0}
    start = runner.state
    noise = runner.feed(EC)  # neutral for every monitor; the start is not skipped
    assert noise is not start and noise.skipped
    assert runner.feed(EC) is noise
    progressed = runner.feed(ea)
    assert not progressed.skipped and progressed.live_branches == ("phi1", "phi2")
    assert progressed.bindings == {"X": 1.0}
    assert runner.feed(ea) is not progressed  # the skipped flag flips
    again = runner.feed(ea)
    assert again.skipped and runner.feed(ea) is again
    top = runner.feed(EB)
    assert top.verdict is Verdict.SATISFIED and top.live_branches == ("phi1",)
    decided = runner.feed(ea)  # decided, skipped by every monitor
    assert decided is not top and decided.skipped
    assert runner.feed(EB) is decided
    # Only the shadow phi2 changes: a new state, still skipped by the merged
    # monitor, with its bindings handed on.
    shadow_only = runner.feed(EC)
    assert shadow_only is not decided and shadow_only.skipped
    assert shadow_only.live_branches == ("phi1", "phi2")
    assert shadow_only.bindings is decided.bindings
    assert runner.feed(EC) is shadow_only
