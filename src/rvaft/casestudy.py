"""Remote-inspection fixtures: trees, scenario traces and noise events.

A rover patrols waypoints in a radiation-contaminated facility. The shipped
trees model the undesired event "robot damaged by radiation": the full tree
(cases/full_inspection.rvaft.json) still carries the imagery and battery
concerns, which PRUNE_SET removes; the pruned tree (package data, also in
cases/) keeps the four monitorable branches (two faults, two attacks) and
carries the runtime event annotations.

The goal-alteration scenario traces include the move command that binds the
commanded waypoint (NewWp): without it the attack branches would have
nothing to compare the planner goal against. It is fixed at waypoint 1,
18.338s, under the 10s exposure limit so the timeout fault stays out of the
picture; the altered goal is 2, the honest goal is 1.
"""

from __future__ import annotations

from .fileformat import parse_tree

SCENARIOS = (
    "fault-moving",
    "fault-at-waypoint",
    "attack-moving",
    "attack-at-waypoint",
)
OUTCOMES = ("bad", "good")


def pruned_tree():
    """The four-branch tree with runtime-event annotations (monitor-ready)."""
    return parse_tree(tree_document())


PRUNE_SET = frozenset({"take_imagery", "battery_dead"})

_POSE = {"position": {"x": 1.8, "y": 0.4, "z": 0.0}}


def _move(time, waypoint):
    return {"topic": "/command", "time": time, "name": "move", "waypoint": waypoint}


def _inspect(time, waypoint):
    return {"topic": "/command", "time": time, "name": "inspect", "waypoint": waypoint}


def _result(time, waypoint):
    return {
        "topic": "/move_base/result",
        "time": time,
        "waypoint": waypoint,
        "result": "success",
    }


def _radiation(time, value):
    return {
        "pose": _POSE,
        "value": value,
        "topic": "/radiation_sensor_plugin/sensor_0",
        "time": time,
    }


def _goal(time, goal):
    return {"topic": "/move_base/goal", "goal": goal, "time": time}


def scenario_trace(scenario, outcome):
    """Raw (pre-normalisation) event records for one scenario/outcome pair."""
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario: {scenario!r}")
    if outcome not in OUTCOMES:
        raise ValueError(f"unknown outcome: {outcome!r}")
    bad = outcome == "bad"
    if scenario == "fault-moving":
        return [
            _move(10.4, 0),
            _inspect(15.6, 0),
            _radiation(16.1, 257.0),
            _move(30.241 if bad else 17.493, 1),
        ]
    if scenario == "fault-at-waypoint":
        return [
            _result(8.2, 0),
            _inspect(15.6, 0),
            _radiation(16.1, 257.0),
            _move(30.493 if bad else 17.493, 1),
        ]
    head = _move(8.2, 0) if scenario == "attack-moving" else _result(8.2, 0)
    return [
        head,
        _inspect(12.6, 0),
        _radiation(14.1, 257.0),
        _move(18.338, 1),  # reconstructed: binds NewWp=1, within the 10s limit
        _goal(22.405, 2 if bad else 1),
    ]


_NOISE_TOPICS = ("/odom", "/tf", "/camera/image_raw")


def noise_events(n, rng, t0=0.5, t1=40.0):
    """Benign events: low radiation readings and unrelated-topic chatter."""
    out = []
    for _ in range(n):
        time = round(rng.uniform(t0, t1), 3)
        if rng.random() < 0.5:
            out.append(_radiation(time, round(rng.uniform(20.0, 140.0), 1)))
        else:
            topic = rng.choice(_NOISE_TOPICS)
            out.append({"topic": topic, "time": time, "seq": rng.randrange(10**6)})
    return out


def interleave(trace, noise, rng):
    """Insert noise events at random positions, keeping trace order."""
    out = list(trace)
    for ev in noise:
        out.insert(rng.randrange(len(out) + 1), ev)
    return out


def noisy_trace(trace, n, seed):
    """`trace` with `n` noise events interleaved, drawn from one RNG seeded
    with `seed`."""
    import random

    rng = random.Random(seed)
    return interleave(trace, noise_events(n, rng), rng)


def tree_document():
    """The shipped monitor-ready tree document (package data)."""
    from importlib import resources

    return (
        resources.files("rvaft").joinpath("data/remote_inspection.rvaft.json").read_text()
    )
