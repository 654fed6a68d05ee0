"""Tests of the benchmark's own code: generators, checker, latency, tracing."""

import json
import sys

import pytest

import checker
import drive
import run
import tracer as tracing
import workloads


@pytest.fixture
def small(monkeypatch):
    """Shrink every stream so generating and replaying takes a moment."""
    for name, n in (("REPLAY_EVENTS", 1500), ("LIVE_EVENTS", 1200), ("FORK_EVENTS", 1500)):
        monkeypatch.setattr(workloads, name, n)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_byte_identical_for_a_seed(small, name):
    first = workloads.generate(name, 7)
    assert workloads.generate(name, 7) == first
    assert workloads.generate(name, 8)[1] != first[1]
    tree_text, lines, labels, _ = first
    json.loads(tree_text)
    assert all(json.loads(line)["topic"] for line in lines)
    assert " -> " in labels


def test_episode_event_is_the_last_line(small):
    for name in workloads.WORKLOADS:
        _, lines, _, _ = workloads.generate(name, 3)
        events = [json.loads(line) for line in lines]
        assert (events[-1]["topic"], events[-1]["name"]) == ("/command", "move")
        assert sum(e.get("value", 0) >= 250 for e in events) == 1


def _verdicts(n):
    return [json.dumps({"event_index": i, "verdict": "top" if i == n - 1 else "?",
                        "property": "merged"}).encode() for i in range(n)]


STDERR = "merged: verdict=⊤ detected=fault branches=phi1\n"


def test_checker_accepts_the_expected_output():
    result = checker.check_run(5, "phi1", 2, _verdicts(5), STDERR)
    assert result.failed == 0
    assert result.line_index == [0, 1, 2, 3, 4]


def test_checker_rejects_a_flipped_last_verdict():
    lines = _verdicts(5)
    lines[-1] = lines[-1].replace(b'"top"', b'"bottom"')
    assert checker.check_run(5, "phi1", 2, lines, STDERR).failed == 1


def test_checker_rejects_a_missing_line():
    lines = _verdicts(5)
    del lines[2]
    # the missing event, and every later line sits at the wrong position
    assert checker.check_run(5, "phi1", 2, lines, STDERR).failed == 3


def test_checker_rejects_a_duplicated_line():
    lines = _verdicts(5)
    lines.insert(1, lines[1])
    # event 1 has two lines, and events 1 to 4 are answered one line late
    assert checker.check_run(5, "phi1", 2, lines, STDERR).failed == 4


def test_checker_fails_every_event_on_a_wrong_exit_code_or_branch():
    assert checker.check_run(5, "phi1", 0, _verdicts(5), STDERR).failed == 5
    assert checker.check_run(5, "phi2", 2, _verdicts(5), STDERR).failed == 5
    assert checker.check_run(5, "phi1", 2, _verdicts(5), "merged: verdict=?\n").failed == 5


def test_latency_on_a_synthetic_schedule():
    # events due at 10.0, 10.5, 11.0, 11.5, 12.0; verdict lines read out of
    # step, one unreadable, one duplicated, and event 4 never answered
    read_at = [10.2, 11.0, 11.0, 11.1, 12.0, 12.5]
    line_index = [0, None, 1, 2, 2, 3]
    lat = drive.latencies(10.0, 2.0, read_at, line_index, 5, 13.0)
    assert lat == pytest.approx([0.2, 0.5, 0.1, 1.0, 1.0])
    assert drive.latencies(10.0, None, [10.3, 10.4], [0, 1], 2, 11.0) == pytest.approx(
        [0.3, 0.4])
    assert drive.percentile(lat, 50) == pytest.approx(0.5)
    assert drive.percentile(lat, 99) == pytest.approx(1.0)
    assert drive.percentile(list(range(1, 101)), 99) == 99


def test_benchmark_json_names_every_metric_with_its_unit():
    with open(workloads.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def _bench(name, tmp_path):
    return run.Bench(workloads.ROOT, workloads.write_case(name, 1, tmp_path), tmp_path)


def test_untraced_run_checks_out(small, tmp_path):
    metrics, attempted, failed, _ = run.end_to_end(_bench("replay-noise", tmp_path), 0)
    assert (attempted, failed) == (1500, 0)
    assert set(metrics) == set(run.END_TO_END_UNITS)
    assert all(value > 0 for value in metrics.values())


@pytest.mark.parametrize("name, monitors, forks", [("fork-imagery", 7, True),
                                                   ("live-stdin", 5, False)])
def test_traced_run_reports_every_layer_and_restores_wrappers(small, tmp_path, name,
                                                              monitors, forks):
    from rvaft import cli, engine

    step, match = engine.Monitor.step, engine.match_event
    streams = sys.stdin, sys.stdout, sys.stderr
    metrics, _, failed, _ = run.per_layer(_bench(name, tmp_path), 0)
    assert failed == 0
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    assert (metrics["engine.Monitor.peak_alternatives.merged"] > 1) == forks
    assert metrics["engine.Monitor.step.calls_per_event"] == monitors
    assert (engine.Monitor.step, engine.match_event) == (step, match)
    assert "wrapper" not in cli.read_trace.__qualname__
    assert (tmp_path / f"spans-{name}.tsv").stat().st_size > 0
    assert (sys.stdin, sys.stdout, sys.stderr) == streams


def test_term_nodes_counts_every_node():
    from rvaft.terms import EPSILON, Seq, Union

    assert tracing.term_nodes(Seq(EPSILON, Union(EPSILON, EPSILON))) == 5


def test_totals_count_direct_children_by_wrapper_kind():
    from types import SimpleNamespace

    t = tracing.Tracer()
    step = t.spanned("step", lambda: SimpleNamespace(outcome="neutral"), t.count_outcome,
                     "step")
    items = t.spanned_iter("items", lambda: iter([1, 2]))

    def body():
        step()
        step()
        return list(items())

    assert t.spanned("outer", body)() == [1, 2]
    totals = t.totals()
    # two items and the next() that ends the generator
    assert totals["outer"][0] == 1 and totals["outer"][3] == {"step": 2, "iter": 3}
    assert totals["step"][:1] == (2,) and totals["step"][3] == {}
    assert t.outcomes == {"neutral": 2}
    cost = tracing.calibrate(batches=1, calls=200)
    assert set(cost) == set(tracing.WRAPPER_KINDS) | {"count"}
