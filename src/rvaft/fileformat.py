"""The tree document and its guard syntax.

Tree documents are UTF-8 JSON, parsed fail-closed (unknown keys are
rejected) and written back in one deterministic form. Guards use a small
infix syntax ('T2 >= T1 + 10', quoted strings are constants, bare
identifiers are variables). The trace and verdict streams are in
``stream``, and the monitor specification text in ``spec``.
"""

from __future__ import annotations

import json
import sys

from .errors import GuardParseError, SchemaError, TreeParseError
from .model import GATE_KINDS, NODE_CLASSES, GateSpec, RvaftNode, RvaftTree
from .terms import Bind, BinOp, Const, EventAnnotation, NotOp, Var, normalize_value


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


def format_const(value):
    """A guard or pattern constant as text: a string quoted, a boolean as
    ``true`` or ``false``, a finite number without an exponent."""
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
        text = format_const(g.value)
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
