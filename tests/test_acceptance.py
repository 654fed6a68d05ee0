"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines.
"""

import gc
import itertools
import random
import time

from conftest import SCENARIO_PROPERTY, gen_term, gen_trace, plain_atom, plain_event

from rvaft.casestudy import interleave, noise_events, pruned_tree, scenario_events
from rvaft.compiler import (
    compile_tree,
    decompose,
    translate_and,
    translate_or,
    translate_sand,
    translate_vot,
)
from rvaft.engine import Monitor, Verdict, run_trace
from rvaft.fileformat import emit_spec, parse_guard
from rvaft.oracle import language, oracle_verdict
from rvaft.terms import Env, Seq, Shuffle, Union, eval_guard, normalize_event


def check(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'}  {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


A, B, C = (plain_atom(x) for x in "abc")


def test_c1_gate_translation_golden():
    start = time.perf_counter()
    ok = translate_or([A, B, C]) == Union(A, Union(B, C))
    ok &= translate_and([A, B, C]) == Shuffle(A, Shuffle(B, C))
    ok &= translate_sand([A, B, C], "LR") == Seq(A, Seq(B, C))
    ok &= translate_sand([A, B, C], "RL") == Seq(C, Seq(B, A))
    ok &= translate_vot(2, [A, B, C]) == Union(
        Shuffle(A, Union(B, C)), Shuffle(B, C)
    )
    elapsed = time.perf_counter() - start
    check("C1 gate translations produce the expected term shapes",
          ok and elapsed < 1.0, f"{elapsed * 1000:.1f}ms")


def test_c2_table_replays():
    """Bad traces decide satisfied at their final event, good traces decide
    violated; undecided entries before that are all '?'. The fault scenarios
    replay their four-event traces verbatim; the goal-alteration scenarios
    carry the reconstructed move command (five events)."""
    start = time.perf_counter()
    spec = compile_tree(pruned_tree(), do_merge=True)
    ok = True
    details = []
    for scenario, pid in SCENARIO_PROPERTY.items():
        for outcome, final in (("bad", Verdict.SATISFIED), ("good", Verdict.VIOLATED)):
            trace = scenario_events(scenario, outcome)
            for which in (pid, "merged"):
                verdicts = [v for _, v in run_trace(spec, which, trace).verdicts]
                expected = [Verdict.UNKNOWN] * (len(trace) - 1) + [final]
                if verdicts != expected:
                    ok = False
                    details.append(f"{scenario}/{outcome}/{which}: {verdicts}")
        if scenario.startswith("fault"):
            # Verbatim four-event blocks: the sequences are exactly [?,?,?,X].
            ok &= len(scenario_events(scenario, "bad")) == 4
    elapsed = time.perf_counter() - start
    check("C2 case-study trace replays (exact verdict sequences)",
          ok and elapsed < 1.0, "; ".join(details) or f"{elapsed * 1000:.0f}ms")


def test_c3_guard_arithmetic():
    guard = parse_guard("T2 >= T1 + 10")
    late = eval_guard(guard, Env(items=(("T1", 16.1), ("T2", 30.241))))
    early = eval_guard(guard, Env(items=(("T1", 16.1), ("T2", 17.493))))
    check("C3 timeout guard arithmetic (14.141s margin true, early move false)",
          late is True and early is False)


def test_c4_noise_robustness():
    spec = compile_tree(pruned_tree(), do_merge=True)
    rng = random.Random(40412)
    agree = 0
    runs = 0
    scenarios = list(SCENARIO_PROPERTY)
    for i in range(200):
        scenario = scenarios[i % 4]
        base = scenario_events(scenario, "bad")
        noise = [
            dict(normalize_event(e), topic=normalize_event(e)["topic"].lstrip("/"))
            for e in noise_events(rng.randrange(21), rng)
        ]
        noisy = interleave(base, noise, rng)
        monitor = Monitor(spec.merged, topics=spec.topics)
        for event in noisy:
            monitor.step(event)
        engine_top = monitor.verdict is Verdict.SATISFIED
        oracle_top = oracle_verdict(spec.merged, noisy, topics=spec.topics) is Verdict.SATISFIED
        runs += 1
        agree += engine_top and oracle_top
    check("C4 noise robustness (≤20 benign events; engine and oracle stay ⊤)",
          agree == runs == 200, f"{agree}/200")


def test_c5_engine_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(50505)
    agreements = 0
    total = 1000
    for _ in range(total):
        term, _ = gen_term(rng)
        trace = gen_trace(rng, max_len=8)
        monitor = Monitor(term)
        for event in trace:
            monitor.step(event)
        agreements += monitor.verdict == oracle_verdict(term, trace)
    elapsed = time.perf_counter() - start
    check("C5 engine/oracle equivalence on randomized terms",
          agreements == total and elapsed < 30.0,
          f"{agreements}/{total} in {elapsed:.1f}s")


def test_c6_language_laws():
    ok = True
    events = [plain_event(x) for x in "abcd"]
    atoms = [plain_atom(x) for x in "abcd"]

    def lang(term, n):
        return language(term, Env.empty(), events[:n], n)

    for n in (2, 3, 4):
        ok &= lang(translate_vot(1, atoms[:n]), n) == lang(translate_or(atoms[:n]), n)
        ok &= lang(translate_vot(n, atoms[:n]), n) == lang(translate_and(atoms[:n]), n)
        ok &= lang(translate_sand(atoms[:n], "RL"), n) == lang(
            translate_sand(atoms[:n][::-1], "LR"), n
        )
    ok &= lang(translate_and(atoms[:3]), 3) == set(itertools.permutations(range(3)))
    check("C6 gate language laws (vot/or, vot/and, sand reversal, and-orderings)", ok)


def test_c7_decomposition_and_merge_language():
    tree = pruned_tree()
    props = decompose(tree)
    ok = [p.id for p in props] == ["phi1", "phi2", "phi3", "phi4"]
    ok &= [p.node_class for p in props] == ["fault", "fault", "attack", "attack"]

    spec = compile_tree(tree, do_merge=True)
    pool = [
        {"topic": "command", "time": 10.4, "name": "move", "waypoint": 0},
        {"topic": "move_base/result", "time": 8.2, "waypoint": 0, "result": "success"},
        {"topic": "command", "time": 15.6, "name": "inspect", "waypoint": 0},
        {"topic": "radiation_sensor_plugin/sensor_0", "value": 257.0, "time": 16.1},
        {"topic": "command", "time": 30.241, "name": "move", "waypoint": 1},
        {"topic": "command", "time": 17.493, "name": "move", "waypoint": 1},
        {"topic": "move_base/goal", "goal": 2, "time": 22.405},
    ]
    pool = [normalize_event(e) for e in pool]
    merged_lang = language(spec.merged, Env.empty(), pool, 6)
    union_lang = set()
    for p in props:
        union_lang |= language(p.term, Env.empty(), pool, 6)
    ok &= merged_lang == union_lang and len(merged_lang) > 0
    check("C7 four classified branches; merged language equals the union",
          ok, f"{len(merged_lang)} accepted sequences over a 7-event pool")


def _bench_stream(n, rng):
    """Noise-heavy stream: idle chatter, low radiation, occasional arrivals."""
    out = []
    t = 0.0
    for _ in range(n):
        t += rng.uniform(0.01, 0.2)
        roll = rng.random()
        if roll < 0.55:
            out.append({"topic": "radiation_sensor_plugin/sensor_0",
                        "value": round(rng.uniform(10.0, 200.0), 1), "time": round(t, 3)})
        elif roll < 0.85:
            out.append({"topic": "odom", "time": round(t, 3), "seq": rng.randrange(10**6)})
        else:
            out.append({"topic": "move_base/result", "time": round(t, 3),
                        "waypoint": rng.randrange(4), "result": "success"})
    return [normalize_event(ev) for ev in out]


def bench_report(spec, lengths, seed=0, repetitions=5):
    """Per-length mean per-event cost of ``Monitor.step`` on the merged term,
    with the peak alternative count, and the flatness ratio (max mean / min
    mean).

    Each length runs several times and keeps its least-noisy (fastest mean)
    repetition. Every repetition times the same number of events for every
    length, the longest length's: a shorter stream is passed over that many
    times, each pass with a fresh monitor, so a short stream's mean is not
    noisier for having been timed over less. The passes are timed as a
    whole, so neither a timer call nor a stored sample per event lands in
    what is measured; the collector is paused while timing so its pauses
    don't land on arbitrary events. The streams are generated first and the
    repetitions go round-robin over the lengths, so a drift in host speed
    reaches every length alike instead of passing for a length effect.
    """
    rng = random.Random(seed)
    warm = Monitor(spec.merged, topics=spec.topics)
    for event in _bench_stream(2000, random.Random(seed + 1)):
        warm.step(event)
    streams = [_bench_stream(n, rng) for n in lengths]
    events_per_repetition = max(lengths)
    best = [None] * len(streams)
    for _ in range(repetitions):
        for i, stream in enumerate(streams):
            monitors = [Monitor(spec.merged, topics=spec.topics)
                        for _ in range(events_per_repetition // len(stream))]
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                t0 = time.perf_counter_ns()
                for monitor in monitors:
                    for event in stream:
                        monitor.step(event)
                elapsed_ns = time.perf_counter_ns() - t0
            finally:
                if gc_was_enabled:
                    gc.enable()
            mean_us = elapsed_ns / (len(monitors) * len(stream)) / 1000.0
            if best[i] is None or mean_us < best[i]["mean_us"]:
                best[i] = {"events": len(stream), "mean_us": mean_us,
                           "peak_alternatives": max(m.peak_alternatives for m in monitors)}
    means = [row["mean_us"] for row in best]
    flatness = max(means) / min(means) if min(means) > 0 else float("inf")
    return best, flatness


def test_c8_overhead_flatness():
    start = time.perf_counter()
    spec = compile_tree(pruned_tree(), do_merge=True)
    rows, flatness = bench_report(spec, [10_000, 50_000, 100_000], seed=8)
    peak = max(r["peak_alternatives"] for r in rows)
    elapsed = time.perf_counter() - start
    check(
        "C8 per-event cost flat across 10k/50k/100k streams; alternatives bounded",
        flatness <= 1.5 and peak <= 8 and elapsed < 60.0,
        f"flatness={flatness:.3f} peak_alts={peak} in {elapsed:.1f}s",
    )


def test_c9_spec_emission_surface():
    spec = compile_tree(pruned_tree(), do_merge=True)
    first = emit_spec(spec)
    second = emit_spec(compile_tree(pruned_tree(), do_merge=True))
    ok = first == second
    ok &= "(move(Waypoint) \\/ movebase_result(Waypoint, success))" in first
    ok &= " matches " in first and " with " in first and "\\/" in first
    ok &= sum(1 for l in first.splitlines() if l.startswith("Main = ")) == 1
    check("C9 spec emission byte-deterministic with the expected surface", ok)
