"""Monitor term algebra: values, events, matchers, guards and parametric terms.

Terms describe sets of finite event traces. An atom consumes one event that
superset-matches its key/value pattern (binding variables on the way); a
check consumes nothing and passes when its guard holds under the current
bindings. Sequence, union and shuffle compose sub-terms.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

from .errors import TypeMismatchError, UnboundVariableError
from .record import Record

VAR_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")

_UNSET = object()


# The deepest nesting of containers in a value: well below the ~490 levels
# at which an array (two frames a level) exhausts Python's default stack.
MAX_NESTING = 256
TOO_DEEP = f"nested deeper than {MAX_NESTING} levels"


def normalize_value(v, depth=MAX_NESTING):
    """Canonicalise a JSON-ish value: all numbers become floats, containers recurse.

    A number must be a finite double: NaN, an infinity or an integer too large
    for a double raises ValueError. (A NaN time would make every ordered guard
    over it false, and it has no JSON spelling in the verdict records.) So
    does nesting deeper than ``depth``, with a message that does not vary.
    """
    if isinstance(v, bool) or v is None:
        return v
    if isinstance(v, (int, float)):
        try:
            f = float(v)
        except OverflowError:
            raise ValueError("number too large for a double") from None
        if not math.isfinite(f):
            raise ValueError(f"not a finite number: {v!r}")
        return f
    if isinstance(v, str):
        return v
    if isinstance(v, (dict, list, tuple)):
        if not depth:
            raise ValueError(TOO_DEEP)
        if isinstance(v, dict):
            return {k: normalize_value(x, depth - 1) for k, x in v.items()}
        return tuple(normalize_value(x, depth - 1) for x in v)
    raise TypeError(f"unsupported value: {v!r}")


def normalize_event(mapping):
    """Build an event (flat key->value dict) from a decoded record."""
    if not mapping:
        raise ValueError("an event needs at least one key")
    return {str(k): normalize_value(v) for k, v in mapping.items()}


def canonical_topic(topic):
    """Strip one leading '/' so '/command' and 'command' name the same channel."""
    if isinstance(topic, str) and topic.startswith("/"):
        return topic[1:]
    return topic


def values_equal(a, b):
    """Deep structural equality over the value domain.

    Unlike Python ==, booleans only equal booleans (True is not 1.0 here);
    nested maps and arrays compare element-wise under the same rule.
    """
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(values_equal(a[k], b[k]) for k in a)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(values_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, (dict, tuple)) or isinstance(b, (dict, tuple)):
        return False
    return a == b


# ---------------------------------------------------------------------------
# Environments
# ---------------------------------------------------------------------------

class Env(Record):
    """Immutable partial map from variable names to values (bind-once)."""

    __slots__ = ("items",)
    __hash__ = Record.field_hash

    def __init__(self, items=()):
        self.items = items

    @staticmethod
    def empty():
        return Env()

    def get(self, name, default=_UNSET):
        for k, v in self.items:
            if k == name:
                return v
        return default

    def __contains__(self, name):
        return self.get(name) is not _UNSET

    def bind(self, name, value):
        if name in self:
            raise ValueError(f"variable {name} already bound")
        new = tuple(sorted(self.items + ((name, value),), key=lambda kv: kv[0]))
        return Env(new)

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in self.items)
        return f"Env({inner})"


# ---------------------------------------------------------------------------
# Guard expressions
# ---------------------------------------------------------------------------

class GuardExpr(Record):
    """Base class for guard expression nodes, hashed by their fields; nothing
    assigns to a field after construction."""

    __slots__ = ()
    __hash__ = Record.field_hash


class Const(GuardExpr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class Var(GuardExpr):
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name


class BinOp(GuardExpr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        self.op = op  # one of + - < <= > >= == != and or
        self.left = left
        self.right = right


class NotOp(GuardExpr):
    __slots__ = ("operand",)

    def __init__(self, operand):
        self.operand = operand


_ORDERED_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_ARITH_OPS = {"+", "-"}
_EQ_OPS = {"==", "!="}
_BOOL_OPS = {"and", "or"}


def guard_vars(g):
    """All variable names referenced by a guard."""
    if isinstance(g, Var):
        return {g.name}
    if isinstance(g, BinOp):
        return guard_vars(g.left) | guard_vars(g.right)
    if isinstance(g, NotOp):
        return guard_vars(g.operand)
    return set()


def _require_number(v, op):
    if isinstance(v, bool) or not isinstance(v, float):
        raise TypeMismatchError(f"operator {op!r} needs numbers, got {v!r}")
    return v


def _eval(g, env):
    if isinstance(g, Const):
        return g.value
    if isinstance(g, Var):
        v = env.get(g.name)
        if v is _UNSET:
            raise UnboundVariableError(g.name)
        return v
    if isinstance(g, NotOp):
        v = _eval(g.operand, env)
        if not isinstance(v, bool):
            raise TypeMismatchError(f"'not' needs a boolean, got {v!r}")
        return not v
    if isinstance(g, BinOp):
        if g.op in _BOOL_OPS:
            left = _eval(g.left, env)
            if not isinstance(left, bool):
                raise TypeMismatchError(f"{g.op!r} needs booleans, got {left!r}")
            if g.op == "and" and not left:
                return False
            if g.op == "or" and left:
                return True
            right = _eval(g.right, env)
            if not isinstance(right, bool):
                raise TypeMismatchError(f"{g.op!r} needs booleans, got {right!r}")
            return right
        left = _eval(g.left, env)
        right = _eval(g.right, env)
        if g.op in _ARITH_OPS:
            a, b = _require_number(left, g.op), _require_number(right, g.op)
            return a + b if g.op == "+" else a - b
        if g.op in _ORDERED_OPS:
            a, b = _require_number(left, g.op), _require_number(right, g.op)
            return _ORDERED_OPS[g.op](a, b)
        if g.op in _EQ_OPS:
            # Equality is structural and total: values of different types
            # simply compare unequal (a waypoint number is != a named one).
            eq = values_equal(left, right)
            return eq if g.op == "==" else not eq
        raise ValueError(f"unknown operator {g.op!r}")
    raise TypeError(f"not a guard expression: {g!r}")


def eval_guard(g, env):
    """Evaluate a guard to a boolean under the given bindings.

    Raises UnboundVariableError for free variables and TypeMismatchError when
    an arithmetic/ordered operator meets a non-number or the result is not a
    boolean.
    """
    v = _eval(g, env)
    if not isinstance(v, bool):
        raise TypeMismatchError(f"guard evaluated to non-boolean {v!r}")
    return v


# ---------------------------------------------------------------------------
# Event annotations and matching
# ---------------------------------------------------------------------------

class Bind(Record):
    """Pattern matcher that binds (or re-checks) a variable."""

    __slots__ = ("var",)
    __hash__ = Record.field_hash

    def __init__(self, var):
        if not VAR_NAME_RE.match(var):
            raise ValueError(f"bad variable name: {var!r}")
        self.var = var


class EventAnnotation(Record):
    """A named event-type pattern with an optional guard.

    ``pattern`` is an ordered tuple of (key, matcher) pairs where a matcher is
    either a Bind or a literal value; a literal string topic is kept
    canonical, as ``canonical_topic`` maps it, so that it names the topic of
    the events ``read_trace`` yields. An empty pattern with a guard present
    is a guard-only annotation. ``on_guard_fail`` overrides the derived
    guard-failure policy ('skip' or 'violate').
    """

    __slots__ = ("name", "pattern", "guard", "on_guard_fail", "_policy")
    __hash__ = Record.field_hash

    def __init__(self, name, pattern=(), guard=None, on_guard_fail=None):
        keys = [k for k, _ in pattern]
        if len(set(keys)) != len(keys):
            raise ValueError(f"duplicate pattern keys in {name}: {keys}")
        if not pattern and guard is None:
            raise ValueError(f"annotation {name} has neither pattern nor guard")
        if on_guard_fail not in (None, "skip", "violate"):
            raise ValueError(f"bad on_guard_fail: {on_guard_fail!r}")
        self.name = name
        self.pattern = tuple((k, canonical_topic(m) if k == "topic" else m)
                             for k, m in pattern)
        self.guard = guard
        self.on_guard_fail = on_guard_fail
        # Derived once; no field, so equality, hashing and repr ignore it.
        self._policy = on_guard_fail or (
            "skip" if guard is None or guard_vars(guard) <= set(self.bound_vars())
            else "violate")

    def bound_vars(self):
        """Variables bound by this annotation's own pattern, in pattern order."""
        return tuple(m.var for _, m in self.pattern if isinstance(m, Bind))

    def effective_policy(self):
        """Guard-failure policy: explicit setting, else derived.

        A guard over only this atom's own bindings refines which events count
        (skip on failure); a guard referencing earlier bindings correlates
        events, so its failure is conclusive (violate). Derived once, when
        the annotation is made.
        """
        return self._policy

    def topic(self):
        """The literal topic this annotation listens on, if any."""
        for k, m in self.pattern:
            if k == "topic" and not isinstance(m, Bind):
                return m
        return None

    def with_extra_guard(self, extra, on_guard_fail=None):
        """Conjoin another guard onto this annotation (used by guard folding)."""
        g = extra if self.guard is None else BinOp("and", self.guard, extra)
        policy = self.on_guard_fail if self.on_guard_fail is not None else on_guard_fail
        return EventAnnotation(self.name, self.pattern, g, policy)


def match_event(ann, event, env):
    """Match one event against one annotation under the given bindings.

    The match holds when every pattern key is present, literals are equal,
    binds are consistent with the environment, and the guard (if any) holds;
    it returns the bindings extended by the pattern's binds, an ``Env``,
    which is truthy even when empty. A false guard after a successful
    pattern returns False (a guard failure); anything else returns None (no
    match). An unbound guard variable means the atom cannot discriminate
    yet, and a guard that cannot be evaluated (a type mismatch) cannot hold:
    both are no match.
    """
    new_env = env
    for key, matcher in ann.pattern:
        if key not in event:
            return None
        value = event[key]
        if isinstance(matcher, Bind):
            bound = new_env.get(matcher.var)
            if bound is _UNSET:
                new_env = new_env.bind(matcher.var, value)
            elif not values_equal(bound, value):
                return None
        elif not values_equal(matcher, value):
            return None
    if ann.guard is None:
        return new_env
    try:
        ok = eval_guard(ann.guard, new_env)
    except (UnboundVariableError, TypeMismatchError):
        return None
    return new_env if ok else False


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

class Term:
    """Base class for monitor terms."""

    __slots__ = ()


@dataclass(frozen=True)
class Epsilon(Term):
    """Matches exactly the empty trace."""


@dataclass(frozen=True)
class Atom(Term):
    ann: EventAnnotation


@dataclass(frozen=True)
class Check(Term):
    """Consumes no event; passes iff the guard holds under the environment."""

    guard: GuardExpr


@dataclass(frozen=True)
class Seq(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Union(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Shuffle(Term):
    left: Term
    right: Term


EPSILON = Epsilon()


def seq(left, right):
    """Sequence with unit simplification (for derived terms)."""
    if isinstance(left, Epsilon):
        return right
    if isinstance(right, Epsilon):
        return left
    return Seq(left, right)


def shuffle(left, right):
    if isinstance(left, Epsilon):
        return right
    if isinstance(right, Epsilon):
        return left
    return Shuffle(left, right)


def seq_all(terms):
    """Right-fold a list of terms into a sequence; empty list is epsilon."""
    out = EPSILON
    for t in reversed(list(terms)):
        out = seq(t, out)
    return out


def nullable(term, env):
    """Does the term accept the empty trace under these bindings?

    Checks make this environment-dependent: an unbound or false guard blocks
    acceptance, a bound true guard lets the remainder of a sequence through.
    """
    if isinstance(term, Epsilon):
        return True
    if isinstance(term, Atom):
        return False
    if isinstance(term, Check):
        try:
            return eval_guard(term.guard, env)
        except (UnboundVariableError, TypeMismatchError):
            return False
    if isinstance(term, Seq):
        return nullable(term.left, env) and nullable(term.right, env)
    if isinstance(term, Union):
        return nullable(term.left, env) or nullable(term.right, env)
    if isinstance(term, Shuffle):
        return nullable(term.left, env) and nullable(term.right, env)
    raise TypeError(f"not a term: {term!r}")


def iter_atoms(term):
    """All Atom annotations in the term, in preorder."""
    if isinstance(term, Atom):
        yield term.ann
    elif isinstance(term, (Seq, Union, Shuffle)):
        yield from iter_atoms(term.left)
        yield from iter_atoms(term.right)


def term_bind_vars(term):
    """Variables bound anywhere in the term, first occurrence order."""
    seen = []
    for ann in iter_atoms(term):
        for v in ann.bound_vars():
            if v not in seen:
                seen.append(v)
    return tuple(seen)
