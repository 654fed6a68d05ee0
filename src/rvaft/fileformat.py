"""External representations: tree documents, guard syntax, spec emission,
trace ingestion and verdict logs.

Tree documents are UTF-8 JSON, parsed fail-closed (unknown keys are
rejected). Traces and verdict logs are JSONL. Guards use a small infix
syntax ('T2 >= T1 + 10', quoted strings are constants, bare identifiers are
variables).
"""

from __future__ import annotations

import io
import json
import logging
import re
import sys

from .errors import GuardParseError, SchemaError, TreeParseError
from .model import GATE_KINDS, NODE_CLASSES, GateSpec, RvaftNode, RvaftTree
from .record import Record
from .terms import (
    Atom,
    Bind,
    BinOp,
    Check,
    Const,
    Epsilon,
    EventAnnotation,
    NotOp,
    Seq,
    Shuffle,
    Union,
    Var,
    canonical_topic,
    iter_atoms,
    normalize_event,
    normalize_value,
    term_bind_vars,
)

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Guard expressions: parser and printer
# ---------------------------------------------------------------------------

_KEYWORDS = {"and", "or", "not"}
_CMP_OPS = ("<=", ">=", "==", "!=", "<", ">")


class _GuardParser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, message):
        raise GuardParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_word(self):
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and (
            self.text[self.pos].isalpha() or self.text[self.pos] == "_"
        ):
            self.pos += 1
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
        return self.text[start : self.pos]

    def try_word(self, word):
        save = self.pos
        if self.take_word() == word:
            return True
        self.pos = save
        return False

    def expect(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self):
        expr = self.parse_or()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        return expr

    def parse_or(self):
        left = self.parse_and()
        while self.try_word("or"):
            left = BinOp("or", left, self.parse_and())
        return left

    def parse_and(self):
        left = self.parse_not()
        while self.try_word("and"):
            left = BinOp("and", left, self.parse_not())
        return left

    def parse_not(self):
        if self.try_word("not"):
            return NotOp(self.parse_not())
        return self.parse_cmp()

    def parse_cmp(self):
        left = self.parse_sum()
        self.skip_ws()
        for op in _CMP_OPS:
            if self.text.startswith(op, self.pos):
                self.pos += len(op)
                return BinOp(op, left, self.parse_sum())
        return left

    def parse_sum(self):
        left = self.parse_term()
        while True:
            self.skip_ws()
            ch = self.text[self.pos] if self.pos < len(self.text) else ""
            if ch and ch in "+-":
                self.pos += 1
                left = BinOp(ch, left, self.parse_term())
            else:
                return left

    def parse_term(self):
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            expr = self.parse_or()
            self.expect(")")
            return expr
        if ch == "'":
            self.pos += 1
            end = self.text.find("'", self.pos)
            if end < 0:
                self.error("unterminated string")
            value = self.text[self.pos : end]
            self.pos = end + 1
            return Const(value)
        if ch.isdigit():
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isdigit() or self.text[self.pos] == "."
            ):
                self.pos += 1
            try:
                return Const(float(self.text[start : self.pos]))
            except ValueError:
                self.error("bad number")
        word = self.take_word()
        if not word:
            self.error("expected a value, variable or '('")
        if word in _KEYWORDS:
            self.error(f"keyword {word!r} is not a value")
        return Var(word)


def parse_guard(text):
    """Parse a guard expression; raises GuardParseError with a position."""
    return _GuardParser(text).parse()


_PREC = {"or": 1, "and": 2, "not": 3, "cmp": 4, "sum": 5, "atom": 6}


def _guard_prec(g):
    if isinstance(g, BinOp):
        if g.op in ("or", "and"):
            return _PREC[g.op]
        if g.op in ("+", "-"):
            return _PREC["sum"]
        return _PREC["cmp"]
    if isinstance(g, NotOp):
        return _PREC["not"]
    return _PREC["atom"]


def _format_const(value):
    if isinstance(value, str):
        return f"'{value}'"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    text = repr(value)
    if isinstance(value, float) and "e" in text:
        # repr gives a non-integer an exponent only below 1e-4, and the guard
        # parser reads none: write the same shortest digits positionally.
        mantissa, exponent = text.split("e")
        sign = "-" if mantissa.startswith("-") else ""
        digits = mantissa.lstrip("-").replace(".", "")
        return f"{sign}0.{'0' * (-int(exponent) - 1)}{digits}"
    return text


def _reads_back(value):
    """Whether the guard parser reads the printed constant back as it: a
    string without a quote, or a double that is finite and not negative."""
    if isinstance(value, str):
        return "'" not in value
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and 0 <= value <= sys.float_info.max
        and float(value) == value
    )


def print_guard(g, parent_prec=0):
    """Canonical textual form; printing then parsing is a fixpoint. Raises
    ValueError for a constant whose text would not read back as it."""
    prec = _guard_prec(g)
    if isinstance(g, Const):
        if not _reads_back(g.value):
            raise ValueError(f"guard constant {g.value!r} has no text that reads back as it")
        text = _format_const(g.value)
    elif isinstance(g, Var):
        text = g.name
    elif isinstance(g, NotOp):
        text = f"not {print_guard(g.operand, prec)}"
    elif isinstance(g, BinOp):
        # Left-associative chains print flat on the left; comparisons do not
        # chain, so both their operands get parenthesized at equal precedence.
        left_prec = prec + 1 if prec == _PREC["cmp"] else prec
        text = (
            f"{print_guard(g.left, left_prec)} {g.op} {print_guard(g.right, prec + 1)}"
        )
    else:
        raise TypeError(f"not a guard expression: {g!r}")
    return f"({text})" if prec < parent_prec else text


# ---------------------------------------------------------------------------
# Tree documents
# ---------------------------------------------------------------------------

def _schema_error(node_id, message):
    raise SchemaError(f"{node_id}: {message}" if node_id else message)


def _parse_matcher(node_id, key, raw):
    if isinstance(raw, dict) and set(raw) == {"bind"}:
        if not isinstance(raw["bind"], str):
            _schema_error(node_id, f"pattern {key}: bind must name a variable")
        return Bind(raw["bind"])
    try:
        value = normalize_value(raw)
    except ValueError as exc:
        _schema_error(node_id, f"pattern {key}: {exc}")
    if key == "topic" and isinstance(value, str):
        value = canonical_topic(value)
    return value


def parse_annotation(node_id, raw):
    """A node's event annotation from its document object; errors name the
    node."""
    allowed = {"name", "pattern", "guard", "on_guard_fail"}
    unknown = set(raw) - allowed
    if unknown:
        _schema_error(node_id, f"unknown event keys: {sorted(unknown)}")
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        _schema_error(node_id, "event needs a non-empty name")
    pattern_raw = raw.get("pattern", {})
    if not isinstance(pattern_raw, dict):
        _schema_error(node_id, "event pattern must be an object")
    pattern = tuple(
        (key, _parse_matcher(node_id, key, value)) for key, value in pattern_raw.items()
    )
    guard = None
    if "guard" in raw:
        if not isinstance(raw["guard"], str):
            _schema_error(node_id, "guard must be a string")
        try:
            guard = parse_guard(raw["guard"])
        except GuardParseError as exc:
            _schema_error(node_id, f"bad guard: {exc}")
    policy = raw.get("on_guard_fail")
    if policy not in (None, "skip", "violate"):
        _schema_error(node_id, f"bad on_guard_fail: {policy!r}")
    try:
        return EventAnnotation(name, pattern, guard, policy)
    except ValueError as exc:
        _schema_error(node_id, str(exc))


def _parse_gate(node_id, raw):
    allowed = {"kind", "k", "children"}
    unknown = set(raw) - allowed
    if unknown:
        _schema_error(node_id, f"unknown gate keys: {sorted(unknown)}")
    kind = raw.get("kind")
    if kind not in GATE_KINDS:
        _schema_error(node_id, f"unknown gate kind {kind!r}")
    children = raw.get("children")
    if not isinstance(children, list) or not all(isinstance(c, str) for c in children):
        _schema_error(node_id, "gate children must be a list of node ids")
    if not children:
        _schema_error(node_id, "gate needs children")
    k = raw.get("k")
    if k is not None and (isinstance(k, bool) or not isinstance(k, int)):
        _schema_error(node_id, "k must be an integer")
    return GateSpec(kind, tuple(children), k)


def parse_tree(data):
    """Parse a tree document from bytes or text. Fail-closed on unknown keys."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TreeParseError(f"not UTF-8: {exc}") from None
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise TreeParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        _schema_error(None, "document must be a JSON object")
    allowed = {"name", "root", "nodes"}
    unknown = set(doc) - allowed
    if unknown:
        _schema_error(None, f"unknown document keys: {sorted(unknown)}")
    if "root" not in doc:
        _schema_error(None, "missing root")
    root = doc["root"]
    if not isinstance(root, str):
        _schema_error(None, "root must be a node id")
    name = doc.get("name", "")
    nodes_raw = doc.get("nodes")
    if not isinstance(nodes_raw, dict):
        _schema_error(None, "missing nodes object")
    nodes = {}
    for node_id, raw in nodes_raw.items():
        if not isinstance(raw, dict):
            _schema_error(node_id, "node must be an object")
        allowed = {"label", "class", "gate", "event"}
        unknown = set(raw) - allowed
        if unknown:
            _schema_error(node_id, f"unknown node keys: {sorted(unknown)}")
        node_class = raw.get("class", "neutral")
        if node_class not in NODE_CLASSES:
            _schema_error(node_id, f"unknown class {node_class!r}")
        gate = _parse_gate(node_id, raw["gate"]) if raw.get("gate") is not None else None
        ann = (
            parse_annotation(node_id, raw["event"])
            if raw.get("event") is not None
            else None
        )
        label = raw.get("label", "")
        if not isinstance(label, str):
            _schema_error(node_id, "label must be a string")
        nodes[node_id] = RvaftNode(node_id, label, node_class, ann, gate)
    return RvaftTree(name if isinstance(name, str) else "", root, nodes)


def _matcher_to_json(key, matcher):
    if isinstance(matcher, Bind):
        return {"bind": matcher.var}
    if isinstance(matcher, float) and matcher.is_integer():
        return int(matcher)
    if isinstance(matcher, tuple):
        return list(matcher)
    return matcher


def _annotation_to_json(ann):
    out = {"name": ann.name, "pattern": {k: _matcher_to_json(k, m) for k, m in ann.pattern}}
    if ann.guard is not None:
        out["guard"] = print_guard(ann.guard)
    if ann.on_guard_fail is not None:
        out["on_guard_fail"] = ann.on_guard_fail
    return out


def serialize_tree(tree):
    """Deterministic textual form of a tree; parse_tree inverts it."""
    nodes = {}
    for node_id, node in tree.nodes.items():
        raw = {"label": node.label, "class": node.node_class}
        if node.gate is not None:
            gate = {"kind": node.gate.kind, "children": list(node.gate.children)}
            if node.gate.k is not None:
                gate["k"] = node.gate.k
            raw["gate"] = gate
        if node.annotation is not None:
            raw["event"] = _annotation_to_json(node.annotation)
        nodes[node_id] = raw
    doc = {"name": tree.name, "root": tree.root, "nodes": nodes}
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

class TraceStats(Record):
    """Counts of one read: non-blank lines, events yielded, lines skipped as
    malformed."""

    __slots__ = ("lines", "events", "malformed")

    def __init__(self, lines=0, events=0, malformed=0):
        self.lines = lines
        self.events = events
        self.malformed = malformed


# A line this short, in which no "e" is followed by a digit or a sign and no
# "E" appears, holds no exponent: it can hold neither a number too large for
# a double (that takes 309 digits or an exponent) nor nesting deep enough to
# exhaust the stack, so its only non-finite numbers are the constants that
# the field reader's decoder refuses while it parses.
_SHORT_LINE = 300
_EXPONENT = re.compile(r"e[-+0-9]")


def _refuse_constant(name):
    raise ValueError(f"not a finite number: {name}")


_FIELD_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def _field_table(fields):
    """Every raw spelling of a topic in ``fields`` (``t`` and ``/t``, as
    ``canonical_topic`` maps them) -> (canonical topic, keys read on it)."""
    table = {}
    for topic, keys in fields.items():
        entry = (topic, tuple(k for k in keys if k != "topic"))
        for spelling in (topic, "/" + topic):
            if canonical_topic(spelling) == topic:
                table[spelling] = entry
    return table


def _field_event(line, table):
    """The event of a short line without an exponent: its canonical topic
    plus the keys that ``table`` lists for its spelling. None when the line
    is malformed, so that reading it in full names the fault."""
    try:
        raw, end = _FIELD_DECODER.raw_decode(line)  # the line starts with no space
        topic = raw.get("topic") if end == len(line) and isinstance(raw, dict) else None
        if not isinstance(topic, str):
            return None
        entry = table.get(topic)
        if entry is None:
            return {"topic": canonical_topic(topic)}
        topic, keys = entry
        event = {"topic": topic}
        for key in keys:
            if key in raw:
                # What normalize_value does, without a call for the common
                # kinds: such a line's numbers are all finite doubles.
                value = raw[key]
                kind = type(value)
                if kind is int:
                    value = float(value)
                elif kind is not str and kind is not float:
                    value = normalize_value(value)
                event[key] = value
        return event
    except (ValueError, TypeError, RecursionError):
        return None


def read_trace(stream, stats=None, fields=None):
    """Yield events from a JSONL stream in order; malformed lines are counted
    and skipped with a warning, never aborting the stream. A line is malformed
    when it is not a JSON object with a string ``topic``, is nested too
    deeply, or holds a number that is not a finite double (NaN, Infinity or
    an overflowing literal).

    ``fields`` maps a topic to the keys that some monitor reads on it (see
    ``MonitorSpec.fields``). When given, an event holds its topic and only
    those keys of that topic; which lines are malformed, and the warnings,
    stay the same."""
    stats = stats if stats is not None else TraceStats()
    if isinstance(stream, (bytes, str)):
        stream = io.StringIO(
            stream.decode("utf-8") if isinstance(stream, bytes) else stream
        )
    if fields is not None:
        table = _field_table(fields)
    for line in stream:
        if isinstance(line, bytes):
            line = line.decode("utf-8", "replace")
        line = line.strip()
        if not line:
            continue
        stats.lines += 1
        event = None
        if (fields is not None and len(line) <= _SHORT_LINE
                and not _EXPONENT.search(line) and "E" not in line):
            event = _field_event(line, table)
        if event is None:
            try:
                raw = json.loads(line)
                if not isinstance(raw, dict) or not isinstance(raw.get("topic"), str):
                    raise ValueError("record needs a string 'topic'")
                event = normalize_event(raw)
                topic = event["topic"]
                event["topic"] = canonical_topic(topic)
            except (ValueError, TypeError, RecursionError) as exc:
                stats.malformed += 1
                log.warning("skipping malformed trace line %d: %s", stats.lines, exc)
                continue
            if fields is not None:
                _, read = table.get(topic, (None, ()))
                event = {k: v for k, v in event.items() if k == "topic" or k in read}
        stats.events += 1
        yield event


def format_event(event):
    """One JSONL line for an event (used by the scenario generator)."""
    def undo(v):
        if isinstance(v, float) and v.is_integer():
            return int(v)
        if isinstance(v, dict):
            return {k: undo(x) for k, x in v.items()}
        if isinstance(v, tuple):
            return [undo(x) for x in v]
        return v

    return json.dumps({k: undo(v) for k, v in event.items()}, ensure_ascii=False)


# ---------------------------------------------------------------------------
# Verdict records
# ---------------------------------------------------------------------------

# A line's members are, in this order: event_index, verdict, property,
# live_branches, skipped and, when some binding is set, bindings. Everything
# after event_index is the body, which depends only on the monitor's state.
_RECORD_ENCODER = json.JSONEncoder(ensure_ascii=False)


def verdict_record_body(state):
    """Every member of a verdict line after ``event_index``, up to and with
    the closing brace, from a ``VerdictState``. Only scalar bindings are
    written, and an integer-valued float as an integer."""
    out = {
        "verdict": state.verdict.value,
        "property": state.property,
        "live_branches": sorted(state.live_branches),
        "skipped": bool(state.skipped),
    }
    if state.bindings:
        out["bindings"] = {
            k: (int(v) if isinstance(v, float) and v.is_integer() else v)
            for k, v in sorted(state.bindings.items())
            if isinstance(v, (float, str, bool))
        }
    return _RECORD_ENCODER.encode(out)[1:]


def verdict_record_line(event_index, body):
    """One verdict line, without its newline: ``event_index`` and a body
    from ``verdict_record_body``."""
    return '{"event_index": ' + str(event_index) + ", " + body


# ---------------------------------------------------------------------------
# Monitor spec emission
# ---------------------------------------------------------------------------

def _atom_args(ann):
    """Display arguments: binds in pattern order, plus distinguishing string
    literals (the topic and a literal equal to the atom's own name are
    implied and omitted)."""
    args = []
    for key, matcher in ann.pattern:
        if key == "topic":
            continue
        if isinstance(matcher, Bind):
            args.append(matcher.var)
        elif isinstance(matcher, str) and matcher != ann.name:
            args.append(matcher)
    return args


def _atom_head(ann, name=None):
    """``name(args)``, the atom's own name unless ``name`` is given."""
    args = _atom_args(ann)
    name = name or ann.name
    return f"{name}({', '.join(args)})" if args else name


def _declared_heads(atoms):
    """``(atom, head)`` for each atom, in order. An atom whose head an
    earlier atom already has (same name and arguments, another pattern or
    guard) is declared as ``<name>_<n>``, with the smallest ``n`` from 2
    that gives a head no other atom has."""
    taken = {_atom_head(ann) for ann in atoms}
    seen, heads = set(), []
    for ann in atoms:
        head = _atom_head(ann)
        if head in seen:
            n = 2
            while (head := _atom_head(ann, f"{ann.name}_{n}")) in taken:
                n += 1
            taken.add(head)
        seen.add(head)
        heads.append((ann, head))
    return heads


def _pattern_text(ann):
    parts = []
    for key, matcher in ann.pattern:
        if isinstance(matcher, Bind):
            parts.append(f"{key}: {matcher.var}")
        elif isinstance(matcher, str):
            parts.append(f"{key}: '{matcher}'")
        else:
            parts.append(f"{key}: {_format_const(matcher)}")
    return "{ " + ", ".join(parts) + " }"


def _declaration(ann, head):
    line = f"{head} matches {_pattern_text(ann)}"
    if ann.guard is not None:
        line += f" with {print_guard(ann.guard)}"
    return line + ";"


def _term_text(term, heads, parenthesize=False):
    if isinstance(term, Atom):
        return next(head for ann, head in heads if ann == term.ann)
    if isinstance(term, Check):
        return f"({print_guard(term.guard)})"
    if isinstance(term, Seq):
        text = f"{_term_text(term.left, heads, True)} {_term_text(term.right, heads)}"
        return f"({text})" if parenthesize else text
    if isinstance(term, Union):
        return (f"({_term_text(term.left, heads, True)} \\/ "
                f"{_term_text(term.right, heads, True)})")
    if isinstance(term, Shuffle):
        return (f"({_term_text(term.left, heads, True)} | "
                f"{_term_text(term.right, heads, True)})")
    if isinstance(term, Epsilon):
        return "empty"
    raise TypeError(f"not a term: {term!r}")


def _main_line(label, term, heads):
    """The term's line, each atom named by its head in ``heads``; a ``let``
    list declares the variables its atoms bind, in first-occurrence order."""
    bound = term_bind_vars(term)
    if bound:
        return f"{label} = {{ let {', '.join(bound)}; {_term_text(term, heads)} }}"
    return f"{label} = {{ {_term_text(term, heads)} }}"


def emit_spec(spec):
    """Human-readable monitor specification text; byte-stable across runs.

    One declaration line per distinct atom (sorted by atom name, stable in
    first-occurrence order), each under its own head (``_declared_heads``),
    then one Main line for the merged term or one Main_<id> line per branch
    property.
    """
    terms = [spec.merged] if spec.merged is not None else [p.term for p in spec.properties]
    atoms = []
    for term in terms:
        for ann in iter_atoms(term):
            if ann not in atoms:
                atoms.append(ann)
    heads = _declared_heads(sorted(atoms, key=lambda a: a.name))
    lines = [_declaration(ann, head) for ann, head in heads]
    if spec.merged is not None:
        lines.append(_main_line("Main", spec.merged, heads))
    else:
        for prop in spec.properties:
            lines.append(_main_line(f"Main_{prop.id}", prop.term, heads))
    return "\n".join(lines) + "\n"
