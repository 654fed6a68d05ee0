import io
import json
import logging
from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CASES

from rvaft.casestudy import tree_document
from rvaft.compiler import compile_tree
from rvaft.errors import SchemaError, TreeParseError
from rvaft.fileformat import (
    TraceStats,
    emit_spec,
    format_event,
    parse_tree,
    read_trace,
    serialize_tree,
    verdict_record_body,
    verdict_record_line,
)
from rvaft.engine import Monitor, Verdict, VerdictState
from rvaft.model import GateSpec, RvaftNode, RvaftTree, validate
from rvaft.terms import Atom, Bind, EventAnnotation, canonical_topic


def test_shipped_tree_parses_to_case_study():
    """The package-data tree and the one in cases/ are the same document: the
    imported package's copy and the checkout's, which differ when the tests
    run against an installed package."""
    shipped = (CASES / "remote_inspection.rvaft.json").read_bytes()
    packaged = resources.files("rvaft").joinpath("data/remote_inspection.rvaft.json")
    assert packaged.read_bytes() == shipped
    source = CASES.parent / "src" / "rvaft" / "data" / "remote_inspection.rvaft.json"
    assert source.read_bytes() == shipped
    assert validate(parse_tree(shipped), runtime_ready=True) == []


def test_empty_document_is_schema_error():
    with pytest.raises(SchemaError, match="missing root"):
        parse_tree("{}")


def test_bad_json_is_parse_error_with_position():
    with pytest.raises(TreeParseError, match="line 1"):
        parse_tree("{not json")


def test_string_k_is_schema_error():
    doc = {
        "name": "t", "root": "r",
        "nodes": {
            "r": {"gate": {"kind": "VOT", "k": "2", "children": ["a", "b"]}},
            "a": {}, "b": {},
        },
    }
    with pytest.raises(SchemaError, match="k must be an integer"):
        parse_tree(json.dumps(doc))


def test_unknown_keys_fail_closed():
    doc = {"name": "t", "root": "r", "nodes": {"r": {"gate": None}}, "extra": 1}
    with pytest.raises(SchemaError, match="unknown document keys"):
        parse_tree(json.dumps(doc))
    doc = {"name": "t", "root": "r", "nodes": {"r": {"color": "red"}}}
    with pytest.raises(SchemaError, match="unknown node keys"):
        parse_tree(json.dumps(doc))


def test_topic_canonicalization_strips_leading_slash():
    doc = {
        "name": "t", "root": "r",
        "nodes": {
            "r": {"gate": {"kind": "OR", "children": ["a", "b"]}},
            "a": {"event": {"name": "x", "pattern": {"topic": "/command"}}},
            "b": {"event": {"name": "y", "pattern": {"topic": "command"}}},
        },
    }
    tree = parse_tree(json.dumps(doc))
    assert tree.nodes["a"].annotation.topic() == "command"
    assert tree.nodes["a"].annotation.pattern == tree.nodes["b"].annotation.pattern


# ---------------------------------------------------------------------------
# Round-trip over randomized trees
# ---------------------------------------------------------------------------

_ids = st.sampled_from([f"n{i}" for i in range(8)])
_labels = st.text(
    alphabet=st.characters(whitelist_categories=("L", "N", "Zs")), max_size=12
)
_guards = st.sampled_from(
    [None, "Value >= 250", "NewWp != 'entrance'", "T2 >= T1 + 10",
     "x == 1 and y <= 2 or not z == 3"]
)


@st.composite
def trees(draw):
    n_leaves = draw(st.integers(2, 5))
    nodes = {}
    leaf_ids = []
    for i in range(n_leaves):
        nid = f"leaf{i}"
        pattern = {}
        if draw(st.booleans()):
            pattern["topic"] = draw(st.sampled_from(["command", "odom", "a/b"]))
        if draw(st.booleans()):
            pattern["waypoint"] = {"bind": "W"}
        if draw(st.booleans()):
            pattern["value"] = draw(st.integers(0, 5))
        guard = draw(_guards)
        event = None
        if pattern or guard:
            event = {"name": f"e{i}", "pattern": pattern}
            if guard:
                event["guard"] = guard
            if draw(st.booleans()):
                event["on_guard_fail"] = draw(st.sampled_from(["skip", "violate"]))
            if not pattern and not guard:
                event = None
        nodes[nid] = {
            "label": draw(_labels),
            "class": draw(st.sampled_from(["fault", "attack", "neutral"])),
            **({"event": event} if event else {}),
        }
        leaf_ids.append(nid)
    kind = draw(st.sampled_from(["AND", "OR", "SAND_LR", "SAND_RL", "VOT"]))
    gate = {"kind": kind, "children": leaf_ids}
    if kind == "VOT":
        gate["k"] = draw(st.integers(1, n_leaves))
    nodes["root"] = {"label": "root", "class": "neutral", "gate": gate}
    return {"name": draw(_labels), "root": "root", "nodes": nodes}


@given(trees())
@settings(max_examples=150, deadline=None)
def test_tree_round_trip(doc):
    tree = parse_tree(json.dumps(doc))
    assert parse_tree(serialize_tree(tree)) == tree
    # Serialization is stable.
    assert serialize_tree(parse_tree(serialize_tree(tree))) == serialize_tree(tree)


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

def test_read_trace_order_and_normalization():
    lines = "\n".join(
        [
            '{"topic": "/command", "time": 10.4, "name": "move", "waypoint": 0}',
            '{"topic": "/command", "time": 15.6, "name": "inspect", "waypoint": 0}',
        ]
    )
    events = list(read_trace(io.StringIO(lines)))
    assert [e["topic"] for e in events] == ["command", "command"]
    assert events[0]["waypoint"] == 0.0


def test_read_trace_empty_stream():
    assert list(read_trace(io.StringIO(""))) == []


def test_read_trace_skips_garbage_with_counter():
    stats = TraceStats()
    lines = "\n".join(
        [
            '{"topic": "a", "x": 1}',
            "not json at all",
            '{"x": 2}',
            '{"topic": "b"}',
            '{"topic": "c", "nested": {"deep": true}}',
            '{"topic": "d", "v": ' + "[" * 100_000 + "]" * 100_000 + "}",
        ]
    )
    events = list(read_trace(io.StringIO(lines), stats))
    assert len(events) == 3
    assert stats.malformed == 3
    assert stats.events == 3


NON_FINITE = pytest.mark.parametrize(
    "literal", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
    ids=["nan", "inf", "-inf", "1e400", "10**400"],
)


@NON_FINITE
def test_read_trace_skips_non_finite_numbers(literal):
    stats = TraceStats()
    lines = [
        '{"topic": "a", "v": 1}',
        '{"topic": "b", "v": %s}' % literal,
        '{"topic": "c", "pose": {"x": [0, %s]}}' % literal,
    ]
    events = list(read_trace(io.StringIO("\n".join(lines)), stats))
    assert [e["topic"] for e in events] == ["a"]
    assert (stats.events, stats.malformed) == (1, 2)


@NON_FINITE
def test_non_finite_pattern_number_is_schema_error(literal):
    text = json.dumps({
        "name": "t", "root": "r",
        "nodes": {
            "r": {"gate": {"kind": "OR", "children": ["a", "b"]}},
            "a": {"event": {"name": "x", "pattern": {"topic": "t", "v": 0}}},
            "b": {"event": {"name": "y", "pattern": {"topic": "t"}}},
        },
    }).replace('"v": 0', f'"v": {literal}')
    with pytest.raises(SchemaError, match="a: pattern v: "):
        parse_tree(text)


_KEYS = ["topic", "v", "w", "pose", "e1", "E"]
_TOPICS = st.sampled_from(["a", "/a", "//a", "b", "", "/", 5, None, ["a"]])
_SCALARS = (st.none() | st.booleans() | st.integers(-10**400, 10**400)
            | st.floats() | st.text(alphabet="ae1E/{}[]\\\"\r", max_size=6))
_VALUES = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3)
                       | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=3),
                       max_leaves=8)


@st.composite
def _lines(draw):
    """One JSONL line: mostly an object with a topic, sometimes padded past
    the short-line limit, nested deeply, with a duplicated topic, or not an
    object at all."""
    kind = draw(st.sampled_from(["object", "object", "object", "padded", "deep",
                                 "duplicate", "value", "garbage"]))
    if kind == "value":
        return json.dumps(draw(_VALUES))
    if kind == "garbage":
        return draw(st.sampled_from(["not json", "{", "{\"topic\": \"a\"} x", "\ufeff{}"]))
    event = {"topic": draw(_TOPICS)} if draw(st.integers(0, 9)) else {}
    event.update(draw(st.dictionaries(st.sampled_from(_KEYS[1:]), _VALUES, max_size=4)))
    line = json.dumps(event)
    if kind == "padded":
        line = line[:-1] + (", " if len(event) else "") + '"pad": "' + "x" * 300 + '"}'
    elif kind == "deep":
        depth = draw(st.sampled_from([50, 140, 600]))
        line = line[:-1] + (", " if len(event) else "") + '"d": ' + "[" * depth + "]" * depth + "}"
    elif kind == "duplicate":
        line = line[:-1] + (", " if len(event) else "") + '"topic": ' + json.dumps(draw(_TOPICS)) + "}"
    return line


class _Warnings(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _read(lines, fields=None):
    stats, warnings = TraceStats(), _Warnings()
    logger = logging.getLogger("rvaft.fileformat")
    logger.addHandler(warnings)
    try:
        events = list(read_trace(io.StringIO("\n".join(lines)), stats, fields))
    finally:
        logger.removeHandler(warnings)
    return events, stats, warnings.messages


def _typed(value):
    """A value with the type of every part made part of it, so that equal
    values of another type (``True`` and ``1.0``, ``1`` and ``1.0``) differ."""
    if isinstance(value, dict):
        return {k: _typed(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return tuple(_typed(v) for v in value)
    return type(value).__name__, value


@given(st.lists(_lines(), max_size=8),
       st.dictionaries(st.sampled_from(["a", "/a", "//a", "b", "", "/"]),
                       st.frozensets(st.sampled_from(_KEYS)), max_size=3))
@settings(max_examples=300, deadline=None)
@example(['{"topic": "/a", "v": true, "w": 1, "pose": {"x": [0, false, null, "s", 2.5]}}'],
         {"a": frozenset({"v", "w", "pose"})})
def test_read_trace_with_fields_keeps_only_the_read_keys(lines, fields):
    """Each event read with ``fields`` is the topic plus the ``fields[topic]``
    keys of the event read in full, with values of the same types; the
    counts and warnings are the same."""
    full, full_stats, full_warnings = _read(lines)
    picked, stats, warnings = _read(lines, fields)
    expected = [
        {k: v for k, v in event.items() if k == "topic" or k in fields.get(event["topic"], ())}
        for event in full
    ]
    assert [_typed(e) for e in picked] == [_typed(e) for e in expected]
    assert (stats, warnings) == (full_stats, full_warnings)


@pytest.mark.parametrize("topics", [{"a"}, {"/a"}, {"", "b"}, {"a", "/a", 5.0}],
                         ids=["a", "slash-a", "empty", "mixed"])
@pytest.mark.parametrize("wild", [False, True], ids=["frontier", "no-frontier"])
def test_step_drops_exactly_the_topics_off_the_subscription(topics, wild):
    """A step drops an event iff ``canonical_topic`` of its topic is not
    subscribed, whether the subscribed ones then meet a frontier or are
    derived. A topic that does not hash is on no subscribed topic."""
    pattern = (("x", Bind("X")),) if wild else (("topic", "zzz"),)
    term = Atom(EventAnnotation("z", pattern))
    for topic in ["", "/", "a", "/a", "//a", None, 5, 5.0, ("a",)]:
        outcome = Monitor(term, topics=topics).step({"topic": topic}).outcome
        subscribed = canonical_topic(topic) in topics
        assert outcome == ("neutral" if subscribed else "dropped"), topic
    assert Monitor(term, topics=topics).step({"topic": ["a"]}).outcome == "dropped"
    # With no topic filter, an unhashable topic is one no atom can consume.
    assert Monitor(term).step({"topic": ["a"]}).outcome == "neutral"


def test_format_event_round_trips_through_read_trace():
    ev = {"topic": "/command", "time": 10.4, "waypoint": 0}
    line = format_event(ev)
    [back] = list(read_trace(io.StringIO(line)))
    assert back["time"] == 10.4 and back["waypoint"] == 0.0


# ---------------------------------------------------------------------------
# Verdict records
# ---------------------------------------------------------------------------

def test_verdict_record_schema():
    state = VerdictState(Verdict.SATISFIED, "phi1", ("phi1",), {"T2": 30.241}, False)
    record = json.loads(verdict_record_line(3, verdict_record_body(state)))
    assert record == {
        "event_index": 3,
        "verdict": "top",
        "property": "phi1",
        "live_branches": ["phi1"],
        "skipped": False,
        "bindings": {"T2": 30.241},
    }


# ---------------------------------------------------------------------------
# Spec emission
# ---------------------------------------------------------------------------

def test_emit_spec_is_byte_deterministic(tree):
    spec = compile_tree(tree, do_merge=True)
    assert emit_spec(spec) == emit_spec(spec)
    rebuilt = compile_tree(parse_tree(tree_document()), do_merge=True)
    assert emit_spec(rebuilt) == emit_spec(spec)


def test_emit_spec_merged_surface(tree):
    text = emit_spec(compile_tree(tree, do_merge=True))
    assert "(move(Waypoint) \\/ movebase_result(Waypoint, success))" in text
    assert " matches " in text and " with " in text
    assert sum(1 for line in text.splitlines() if line.startswith("Main = ")) == 1


def test_emit_spec_unmerged_has_one_block_per_branch(tree):
    text = emit_spec(compile_tree(tree, do_merge=False))
    mains = [l for l in text.splitlines() if l.startswith("Main_phi")]
    assert len(mains) == 4
    assert not any(l.startswith("Main = ") for l in text.splitlines())


def test_emit_spec_minimal():
    a = RvaftNode("a", node_class="fault",
                  annotation=EventAnnotation("ping", (("topic", "t"),)))
    b = RvaftNode("b", node_class="fault",
                  annotation=EventAnnotation("pong", (("topic", "u"),)))
    root = RvaftNode("root", gate=GateSpec("OR", ("a", "b")))
    tree = RvaftTree("toy", "root", {"root": root, "a": a, "b": b})
    text = emit_spec(compile_tree(tree, do_merge=True))
    lines = text.strip().splitlines()
    assert lines[-1].startswith("Main = ")
    assert len([l for l in lines if " matches " in l]) == 2


def test_emit_spec_renders_shuffle_with_bars():
    nodes = {
        "root": RvaftNode("root", gate=GateSpec("AND", ("a", "b"))),
        "a": RvaftNode("a", node_class="fault",
                       annotation=EventAnnotation("ping", (("topic", "t"),))),
        "b": RvaftNode("b", node_class="fault",
                       annotation=EventAnnotation("pong", (("topic", "u"),))),
    }
    tree = RvaftTree("toy", "root", nodes)
    text = emit_spec(compile_tree(tree, do_merge=True))
    assert "(ping | pong)" in text
