import contextlib
import io
import json
import logging
import os
import tempfile
import threading
from importlib import resources
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CASES

from rvaft.casestudy import tree_document
from rvaft import fileformat
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
from rvaft.terms import Atom, Bind, Env, EventAnnotation, match_event


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

@contextlib.contextmanager
def _stream(kind, text):
    """``text`` as a binary stream: a regular file, which ``read_trace``
    reads in blocks, or the read end of a pipe, which it reads a line at a
    time."""
    data = text.encode("utf-8", "surrogateescape")
    if kind == "file":
        with tempfile.TemporaryFile() as fh:
            fh.write(data)
            fh.seek(0)
            yield fh
        return
    read_fd, write_fd = os.pipe()

    def write():
        with contextlib.suppress(BrokenPipeError), os.fdopen(write_fd, "wb") as fh:
            fh.write(data)

    # A pipe holds 64 KiB on Linux; longer text is written from a thread.
    writer = threading.Thread(target=write) if len(data) > 16384 else None
    if writer is None:
        write()
    else:
        writer.start()
    try:
        with os.fdopen(read_fd, "rb") as fh:
            yield fh
    finally:
        if writer is not None:
            writer.join()


STREAMS = ("file", "pipe")


def _events(kind, text, stats=None, fields=None):
    """The events ``read_trace`` yields from ``text`` read as ``kind``, out
    of their blocks."""
    with _stream(kind, text) as stream:
        return [event for block in read_trace(stream, stats, fields) for event in block]


def test_read_trace_order_and_normalization():
    lines = "\n".join(
        [
            '{"topic": "/command", "time": 10.4, "name": "move", "waypoint": 0}',
            '{"topic": "/command", "time": 15.6, "name": "inspect", "waypoint": 0}',
        ]
    )
    for kind in STREAMS:
        events = _events(kind, lines)
        assert [e["topic"] for e in events] == ["command", "command"]
        assert events[0]["waypoint"] == 0.0


def test_read_trace_empty_stream():
    for kind in STREAMS:
        assert _events(kind, "") == []
        with _stream(kind, "\n \n\r\n") as stream:
            assert list(read_trace(stream, fields={})) == []


def test_read_trace_skips_garbage_with_counter():
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
    for kind in STREAMS:
        stats = TraceStats()
        events = _events(kind, lines, stats)
        assert len(events) == 3
        assert stats.malformed == 3
        assert stats.events == 3


def _deeper(frames, call):
    """``call()``, made ``frames`` Python frames deeper than the caller."""
    return _deeper(frames - 1, call) if frames else call()


@pytest.mark.parametrize("fields", [None, {"a": {"d"}}], ids=["in-full", "fields"])
@pytest.mark.parametrize("kind", STREAMS)
def test_a_too_deep_line_warns_the_same_however_deep_the_reader_is_called(kind, fields):
    """Nesting deeper than 256 levels is refused with one fixed message, both
    where normalizing finds it and where the JSON decoder runs out of stack,
    and neither depends on how many frames lie above the reader."""
    lines = ['{"topic": "a", "d": %s}' % ("[" * depth + "]" * depth)
             for depth in (256, 257, 600, 100_000)]
    shallow = _read(lines, fields, kind)
    assert _deeper(200, lambda: _read(lines, fields, kind)) == shallow
    events, stats, warnings = shallow
    assert len(events) == 1 and stats == TraceStats(lines=4, events=1, malformed=3)
    assert warnings == [f"skipping malformed trace line {n}: nested deeper than 256 levels"
                        for n in (2, 3, 4)]


NON_FINITE = pytest.mark.parametrize(
    "literal", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
    ids=["nan", "inf", "-inf", "1e400", "10**400"],
)


@NON_FINITE
def test_read_trace_skips_non_finite_numbers(literal):
    lines = [
        '{"topic": "a", "v": 1}',
        '{"topic": "b", "v": %s}' % literal,
        '{"topic": "c", "pose": {"x": [0, %s]}}' % literal,
        '{"topic": "c", "v": %s}' % literal,
    ]
    for kind in STREAMS:
        for fields in (None, {"a": {"v"}, "b": {"v"}, "c": {"pose"}}):
            stats = TraceStats()
            events = _events(kind, "\n".join(lines), stats, fields)
            assert [e["topic"] for e in events] == ["a"], (kind, fields)
            assert (stats.events, stats.malformed) == (1, 3), (kind, fields)


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
        depth = draw(st.sampled_from([50, 140, 256, 257, 600]))
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


def _read(lines, fields=None, kind="pipe"):
    stats, warnings = TraceStats(), _Warnings()
    logger = logging.getLogger("rvaft.fileformat")
    logger.addHandler(warnings)
    try:
        events = _events(kind, "\n".join(lines), stats, fields)
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
    counts and warnings are the same, from a file and from a pipe."""
    full, full_stats, full_warnings = _read(lines)
    expected = [
        {k: v for k, v in event.items() if k == "topic" or k in fields.get(event["topic"], ())}
        for event in full
    ]
    for kind in STREAMS:
        picked, stats, warnings = _read(lines, fields, kind)
        assert [_typed(e) for e in picked] == [_typed(e) for e in expected], kind
        assert (stats, warnings) == (full_stats, full_warnings), kind


# Lines that a block read could join into other values than the lines read
# one at a time give: strings, objects and arrays left open or closed early,
# two objects on one line, exponents, carriage returns, a raw control
# character in a string and constants that are not finite.
_PIECES = [
    '{"topic":"a","v":1}', '{"topic":"/a","w":"x"}', '{"topic":"a","k":"', '"}',
    '{"},{"topic":"b"}', '{"topic":"a","v":1', '"k":"x"}', '{"topic":"b"},{"topic":"c"}',
    '{"topic":"a","v":[{}', '{}]}', '{"topic":"a","v":1e400}',
]
_ODDITIES = [
    '[{"topic":"a"}]', '{"topic":"a","v":[1,2]}', '{"topic":"a","v":1e5}',
    '{"topic":"a","v":1E400}', '{"topic":"a","v":-2e-3}', '{"topic":"a","v":NaN}',
    '{"topic":"a",\r"v":3}', '{"topic":"a","s":"x\ry"}', '{"topic":"a","s":"x\ty"}',
    '{"v":1}', '{"topic":5}', '{"topic":"a","p":{"q":{}}}', '{', '}', ',', '"', ' ', '\r', '',
]
# Lines that are whole objects, and objects to cut into lines at a comma.
_OBJECTS = [
    '{"topic":"a","v":1,"k":"x"}', '{"topic":"/a","w":"x"}', '{"topic":"b","v":2.5}',
    '{"topic":"a","k":"},{"}', '{"topic":"a","v":[{},{}]}', '{"topic":"a","p":{"q":{}}}',
    '{"topic":"a","v":1e400}', '{"topic":"c"}',
]
_BLOCK_FIELDS = {"a": frozenset({"v", "w", "k", "s", "p"}), "b": frozenset({"v"})}


@st.composite
def _cut_lines(draw):
    """Objects written one after another, each followed by a newline or a
    comma, with some commas turned into line ends and maybe one more line
    end put anywhere: whole lines, and values that run from one line into
    the next."""
    text = "".join(draw(st.sampled_from(_OBJECTS)) + draw(st.sampled_from(["\n", ","]))
                   for _ in range(draw(st.integers(1, 6))))
    commas = [at for at, char in enumerate(text) if char == ","]
    for at in draw(st.lists(st.sampled_from(commas), max_size=3)) if commas else ():
        text = text[:at] + "\n" + text[at + 1:]
    at = draw(st.integers(0, len(text)))
    return (text[:at] + draw(st.sampled_from(["", "\n"])) + text[at:]).split("\n")


def _block_and_line_reads(lines, fields=_BLOCK_FIELDS):
    """``lines`` read from a file, in blocks, and through a pipe, a line at
    a time: the events with their types, stats and warnings of each."""
    reads = []
    for kind in STREAMS:
        events, stats, warnings = _read(lines, fields, kind)
        reads.append(([_typed(event) for event in events], stats, warnings))
    return reads


@given(st.one_of(_cut_lines(),
                 st.lists(st.sampled_from(_PIECES), max_size=4),
                 st.lists(st.one_of(_lines(),
                                    st.lists(st.sampled_from(_PIECES + _ODDITIES), min_size=1,
                                             max_size=3).map("".join)),
                          max_size=12)),
       st.sampled_from([2, 3, fileformat.REPLAY_BATCH_LINES]))
@settings(max_examples=300, deadline=None)
def test_a_block_read_gives_what_a_line_read_gives(lines, block_lines):
    """A trace read from a regular file, whose lines are decoded a block at
    a time where ``_block_events`` allows, gives the events, stats and
    warnings that reading it a line at a time from a pipe gives."""
    with mock.patch.object(fileformat, "REPLAY_BATCH_LINES", block_lines):
        from_file, from_pipe = _block_and_line_reads(lines)
    assert from_file == from_pipe


# Lines that decode as one array into one element per line, each line
# malformed alone; each is refused by one rule of ``_block_events`` only.
@pytest.mark.parametrize("lines, malformed", [
    # A string left open runs into the next line, unless the separator's
    # newline fails it.
    (['{"topic":"a","k":"}', '{"},{"topic":"b"}'], 2),
    # An object left open takes the next line's members, unless every line
    # must start with "{" and end with "}".
    (['{"topic":"a","v":1', '"k":"x"}', '{"topic":"b"},{"topic":"c"}'], 3),
    # An array left open takes the next line's objects, unless no line may
    # hold a bracket.
    (['{"topic":"a","v":[{}', '{}]}', '{"topic":"b"},{"topic":"c"}'], 3),
    # A number that overflows a double, unless a line with an exponent is
    # read alone.
    (['{"topic":"a","v":1e400}', '{"topic":"a","v":1}'], 1),
    # Two objects on one line, unless there must be one element per line.
    (['{"topic":"a","v":1}', '{"topic":"b"},{"topic":"c"}'], 1),
], ids=["separator-newline", "braces", "brackets", "exponent", "one-per-line"])
def test_a_block_read_refuses_lines_that_join_into_other_values(lines, malformed):
    from_file, from_pipe = _block_and_line_reads(lines)
    assert from_file == from_pipe
    _, stats, warnings = from_pipe
    assert (stats.lines, stats.malformed) == (len(lines), malformed) == (len(lines),
                                                                           len(warnings))


def test_read_trace_yields_a_block_per_file_read_and_a_list_per_line_otherwise(tmp_path):
    """A regular file gives its events in blocks of up to
    ``REPLAY_BATCH_LINES`` lines, a pipe and in-memory text one per line."""
    n = fileformat.REPLAY_BATCH_LINES + 2
    text = "".join('{"topic": "a", "v": %d}\n' % i for i in range(n)) + "\n"
    with _stream("file", text) as stream:
        blocks = list(read_trace(stream, fields=_BLOCK_FIELDS))
    assert [len(block) for block in blocks] == [fileformat.REPLAY_BATCH_LINES, 2]
    assert [e["v"] for block in blocks for e in block] == list(range(n))
    with _stream("pipe", text) as stream:
        assert list(map(len, read_trace(stream, fields=_BLOCK_FIELDS))) == [1] * n
    assert list(map(len, read_trace(io.StringIO(text), fields=_BLOCK_FIELDS))) == [1] * n


@pytest.mark.parametrize("topics", [{"a"}, {"/a"}, {"", "b"}, {"a", "/a", 5.0}],
                         ids=["a", "slash-a", "empty", "mixed"])
@pytest.mark.parametrize("wild", [False, True], ids=["frontier", "no-frontier"])
def test_step_drops_exactly_the_topics_off_the_subscription(topics, wild):
    """A step drops an event iff its topic, as given, is not subscribed
    (``/a`` is another topic than ``a`` here: only the reader maps
    spellings), whether the subscribed ones then meet a frontier or are
    derived. A topic that does not hash is on no subscribed topic."""
    pattern = (("x", Bind("X")),) if wild else (("topic", "zzz"),)
    term = Atom(EventAnnotation("z", pattern))
    for topic in ["", "/", "a", "/a", "//a", None, 5, 5.0, ("a",)]:
        outcome = Monitor(term, topics=topics).step({"topic": topic}).outcome
        subscribed = topic in topics
        assert outcome == ("neutral" if subscribed else "dropped"), topic
    assert Monitor(term, topics=topics).step({"topic": ["a"]}).outcome == "dropped"
    # With no topic filter, an unhashable topic is one no atom can consume.
    assert Monitor(term).step({"topic": ["a"]}).outcome == "neutral"


@pytest.mark.parametrize("spelling", ["/t", "t"])
def test_an_annotation_built_in_code_names_its_topic_as_the_reader_does(spelling):
    """A literal topic is made canonical where the annotation is built, so
    an annotation on `/t` equals its `t` twin and matches the events that
    `read_trace` yields from lines on either spelling."""
    ann = EventAnnotation("x", (("topic", spelling), ("v", Bind("V"))))
    assert ann == EventAnnotation("x", (("topic", "t"), ("v", Bind("V"))))
    assert ann.topic() == "t"
    lines = '{"topic": "/t", "v": 1}\n{"topic": "t", "v": 2}\n'
    for fields in (None, {"t": {"topic", "v"}}):
        events = [e for block in read_trace(lines, fields=fields) for e in block]
        assert [match_event(ann, e, Env.empty()).get("V") for e in events] == [1.0, 2.0]


def test_format_event_round_trips_through_read_trace():
    ev = {"topic": "/command", "time": 10.4, "waypoint": 0}
    line = format_event(ev)
    [[back]] = list(read_trace(io.StringIO(line)))
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
