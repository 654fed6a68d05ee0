"""Seeded inputs for the `rvaft run` benchmark and the ground truth they carry.

Every stream is benign noise with exactly one detecting episode whose events
appear in order and whose last event is the last line. So the expected
output is known by construction, without consulting the engine: `?` on every
line but the last, `top` on the last, exit code 2, and the one branch whose
disjunction choices are the episode's path named as detected.

Why each workload exists:

- replay-noise: the shipped tree over 50k events read from a file; every
  event is parsed, topic-filtered, stepped through five undecided monitors
  (merged plus four branch monitors) and serialized. Throughput and RSS of
  the parse, step and serialize layers.
- live-stdin: the same tree and kind of stream, written to stdin on an
  open-loop schedule well below replay capacity. The deployment path, and
  the only workload where per-event verdict latency shows.
- fork-imagery: the full tree with the imagery vote and battery leaves
  annotated. Low-confidence reports can feed any of the three vote leaves,
  so the monitors hold several live alternatives; the only workload that
  exercises alternative dedup and the shuffle/vote residuals. Its noise
  keeps the case study's split, half subscribed and half chatter, and shares
  the subscribed half evenly among radiation, imagery report and battery
  readings.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# Stream lengths keep one `rvaft run` process at a few seconds, so that a run
# of the benchmark holds several processes and can report their median.
REPLAY_EVENTS = 50_000
LIVE_EVENTS = 4_000
LIVE_RATE = 2_000.0  # events/s, about an eighth of replay capacity
FORK_EVENTS = 10_000

DT = 0.05  # seconds of event time between consecutive lines

ROOT = Path(__file__).resolve().parent.parent
SHIPPED_TREE = ROOT / "cases" / "remote_inspection.rvaft.json"
FULL_TREE = ROOT / "cases" / "full_inspection.rvaft.json"

REPORT_TOPIC = "/imagery/report"
BATTERY_TOPIC = "/battery"
_CHATTER_TOPICS = ("/odom", "/tf", "/camera/image_raw")
_POSE = {"position": {"x": 1.8, "y": 0.4, "z": 0.0}}

WORKLOADS = ("replay-noise", "live-stdin", "fork-imagery")


@dataclass(frozen=True)
class Case:
    """Generated inputs of one workload plus what `rvaft run` must answer."""

    name: str
    tree: Path
    trace: Path  # the JSONL events, one per line
    events: int
    path_labels: str  # labels of the episode's disjunction choices, " -> "-joined
    rate: float | None = None  # events/s written to stdin; None reads --trace


def _line(event):
    return json.dumps(event, separators=(",", ":"))


def _radiation(time, value):
    return {"pose": _POSE, "value": value,
            "topic": "/radiation_sensor_plugin/sensor_0", "time": time}


def _command(time, name, waypoint):
    return {"topic": "/command", "time": time, "name": name, "waypoint": waypoint}


def _chatter(rng, time):
    return {"topic": rng.choice(_CHATTER_TOPICS), "time": time,
            "seq": rng.randrange(10**6)}


def _noise(rng, time):
    """Benign event shaped like the case study's noise: half low radiation
    readings on a subscribed topic, half chatter on unsubscribed topics."""
    if rng.random() < 0.5:
        return _radiation(time, round(rng.uniform(20.0, 140.0), 1))
    return _chatter(rng, time)


def _fork_noise(rng, time):
    """Benign event with the case study's split, half subscribed and half
    chatter, where the subscribed half is divided evenly among low radiation
    readings, high-confidence imagery reports and battery readings above
    zero. The last two fail their leaf's guard and are skipped."""
    if rng.random() >= 0.5:
        return _chatter(rng, time)
    topic = rng.randrange(3)
    if topic == 0:
        return _radiation(time, round(rng.uniform(20.0, 140.0), 1))
    if topic == 1:
        return {"topic": REPORT_TOPIC, "confidence": round(rng.uniform(0.6, 0.99), 2),
                "time": time}
    return {"topic": BATTERY_TOPIC, "level": round(rng.uniform(20.0, 100.0), 1),
            "time": time}


def _positions(rng, n, early, late):
    """Sorted line positions for an episode: ``early`` events between 1% and
    2% of the stream, ``late`` events between 40% and 50%, and the final
    event on the last line. The narrow windows keep the share of events seen
    in each monitor state, and so the work per run, nearly the same for every
    seed. From 400 lines on, more than the tree's 10 s exposure limit of
    event time separates the late events from the last line."""
    first = sorted(rng.sample(range(n // 100 + 1, n // 50 + 1 + early), early))
    middle = sorted(rng.sample(range(2 * n // 5, n // 2), late))
    return first + middle + [n - 1]


def _episode_stream(rng, n, episode, noise):
    """``n`` lines of noise with the episode's events at sorted positions.
    ``episode`` is (positions, makers); each maker turns an event time into
    the next episode event."""
    slots = dict(zip(episode[0], episode[1]))
    lines = []
    for pos in range(n):
        time = round(pos * DT, 3)
        lines.append(_line(slots[pos](time) if pos in slots else noise(rng, time)))
    return lines


def _inspection_episode(rng, n, low_reports=0):
    """A `fault-moving bad` episode: move, inspect, high radiation, then a
    move away more than 10 s later; optionally low-confidence imagery reports
    right after the first move."""
    waypoint = rng.randrange(4)
    value = round(rng.uniform(251.0, 400.0), 1)
    makers = [lambda t: _command(t, "move", waypoint)]
    makers += [
        (lambda t: {"topic": REPORT_TOPIC, "confidence": round(rng.uniform(0.05, 0.45), 2),
                    "time": t})
        for _ in range(low_reports)
    ]
    makers += [lambda t: _command(t, "inspect", waypoint), lambda t: _radiation(t, value),
               lambda t: _command(t, "move", (waypoint + 1) % 4)]
    return _positions(rng, n, 1 + low_reports, 2), makers


def fork_imagery_document(full_tree_text):
    """The full case-study tree with the imagery vote leaves and the battery
    leaf annotated, so every branch is monitorable."""
    from rvaft.fileformat import parse_guard, parse_tree, serialize_tree
    from rvaft.model import annotate
    from rvaft.terms import Bind, EventAnnotation

    tree = parse_tree(full_tree_text)
    for leaf, var in (("camera_blur", "CBlur"), ("barrel_missed", "CBarrel"),
                      ("leak_missed", "CLeak")):
        tree = annotate(tree, leaf, EventAnnotation(
            leaf, (("topic", REPORT_TOPIC.lstrip("/")), ("confidence", Bind(var))),
            parse_guard(f"{var} < 0.5")))
    tree = annotate(tree, "battery_dead", EventAnnotation(
        "battery_dead", (("topic", BATTERY_TOPIC.lstrip("/")), ("level", Bind("Level"))),
        parse_guard("Level <= 0")))
    return serialize_tree(tree)


def _labels(tree_text, path):
    nodes = json.loads(tree_text)["nodes"]
    return " -> ".join(nodes[nid].get("label") or nid for nid in path)


def generate(name, seed):
    """Tree text, trace lines, path labels and stdin rate for one workload.
    The same (name, seed) always gives byte-identical output."""
    rng = random.Random(f"{name}:{seed}")
    if name in ("replay-noise", "live-stdin"):
        tree_text = SHIPPED_TREE.read_text(encoding="utf-8")
        n = REPLAY_EVENTS if name == "replay-noise" else LIVE_EVENTS
        lines = _episode_stream(rng, n, _inspection_episode(rng, n), _noise)
        path = ("while_moving", "stayed_too_long")
        rate = LIVE_RATE if name == "live-stdin" else None
    elif name == "fork-imagery":
        tree_text = fork_imagery_document(FULL_TREE.read_text(encoding="utf-8"))
        episode = _inspection_episode(rng, FORK_EVENTS, low_reports=2)
        lines = _episode_stream(rng, FORK_EVENTS, episode, _fork_noise)
        path = ("while_moving", "stayed_too_long")
        rate = None
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return tree_text, lines, _labels(tree_text, path), rate


def write_case(name, seed, workdir):
    """Generate one workload and write its tree and trace under ``workdir``."""
    tree_text, lines, labels, rate = generate(name, seed)
    workdir.mkdir(parents=True, exist_ok=True)
    tree = workdir / f"{name}.rvaft.json"
    tree.write_text(tree_text, encoding="utf-8")
    trace = workdir / f"{name}.trace.jsonl"
    trace.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return Case(name, tree, trace, len(lines), labels, rate)
