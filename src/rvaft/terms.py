"""Monitor term algebra: values, events, matchers, guards and parametric terms.

Terms describe sets of finite event traces. An atom consumes one event that
superset-matches its key/value pattern (binding variables on the way); a
check consumes nothing and passes when its guard holds under the current
bindings. Sequence, union and shuffle compose sub-terms; a let wrapper
declares the variables a term may bind.
"""

from __future__ import annotations

import enum
import math
import operator
import re
from dataclasses import dataclass, replace

from .errors import TypeMismatchError, UnboundVariableError
from .record import Record

VAR_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")

_UNSET = object()


def normalize_value(v):
    """Canonicalise a JSON-ish value: all numbers become floats, containers recurse.

    A number must be a finite double: NaN, an infinity or an integer too large
    for a double raises ValueError. (A NaN time would make every ordered guard
    over it false, and it has no JSON spelling in the verdict records.)
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
    if isinstance(v, dict):
        return {k: normalize_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return tuple(normalize_value(x) for x in v)
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

    def as_dict(self):
        return dict(self.items)

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


@dataclass(frozen=True)
class EventAnnotation:
    """A named event-type pattern with an optional guard.

    ``pattern`` is an ordered tuple of (key, matcher) pairs where a matcher is
    either a Bind or a literal value. An empty pattern with a guard present is
    a guard-only annotation. ``on_guard_fail`` overrides the derived
    guard-failure policy ('skip' or 'violate').
    """

    name: str
    pattern: tuple = ()
    guard: GuardExpr | None = None
    on_guard_fail: str | None = None

    def __post_init__(self):
        keys = [k for k, _ in self.pattern]
        if len(set(keys)) != len(keys):
            raise ValueError(f"duplicate pattern keys in {self.name}: {keys}")
        if not self.pattern and self.guard is None:
            raise ValueError(f"annotation {self.name} has neither pattern nor guard")
        if self.on_guard_fail not in (None, "skip", "violate"):
            raise ValueError(f"bad on_guard_fail: {self.on_guard_fail!r}")
        if self.on_guard_fail is not None:
            policy = self.on_guard_fail
        elif self.guard is None or guard_vars(self.guard) <= set(self.bound_vars()):
            policy = "skip"
        else:
            policy = "violate"
        # Not a field, so equality, hashing, repr and replace() ignore it;
        # replace() runs __post_init__ again and so derives it anew.
        object.__setattr__(self, "_policy", policy)

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
        return replace(self, guard=g, on_guard_fail=policy)


class MatchOutcome(enum.Enum):
    PROGRESS = "progress"
    GUARD_FAIL = "guard_fail"
    NO_MATCH = "no_match"


class MatchResult(Record):
    __slots__ = ("outcome", "env")

    def __init__(self, outcome, env=None):
        self.outcome = outcome
        self.env = env


# The results that carry no bindings are shared.
NO_MATCH = MatchResult(MatchOutcome.NO_MATCH)
GUARD_FAILED = MatchResult(MatchOutcome.GUARD_FAIL)

# Reading a member off its Enum class costs a descriptor call.
_PROGRESS = MatchOutcome.PROGRESS


def match_event(ann, event, env):
    """Match one event against one annotation under the given bindings.

    Progress: every pattern key is present, literals are equal, binds are
    consistent with the environment, and the guard (if any) holds. A false
    guard after a successful pattern is GuardFail; anything else is NoMatch.
    An unbound guard variable means the atom cannot discriminate yet, which
    is NoMatch. TypeMismatchError propagates.
    """
    new_env = env
    for key, matcher in ann.pattern:
        if key not in event:
            return NO_MATCH
        value = event[key]
        if isinstance(matcher, Bind):
            bound = new_env.get(matcher.var)
            if bound is _UNSET:
                new_env = new_env.bind(matcher.var, value)
            elif not values_equal(bound, value):
                return NO_MATCH
        elif not values_equal(matcher, value):
            return NO_MATCH
    if ann.guard is None:
        return MatchResult(_PROGRESS, new_env)
    try:
        ok = eval_guard(ann.guard, new_env)
    except UnboundVariableError:
        return NO_MATCH
    if ok:
        return MatchResult(_PROGRESS, new_env)
    return GUARD_FAILED


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

class Term:
    """Base class for monitor terms."""

    __slots__ = ()


@dataclass(frozen=True)
class Empty(Term):
    """Matches nothing at all."""


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


@dataclass(frozen=True)
class Let(Term):
    vars: tuple
    body: Term


EMPTY = Empty()
EPSILON = Epsilon()


def seq(left, right):
    """Sequence with unit/absorption simplification (for derived terms)."""
    if isinstance(left, Empty) or isinstance(right, Empty):
        return EMPTY
    if isinstance(left, Epsilon):
        return right
    if isinstance(right, Epsilon):
        return left
    return Seq(left, right)


def union(left, right):
    if isinstance(left, Empty):
        return right
    if isinstance(right, Empty):
        return left
    return Union(left, right)


def shuffle(left, right):
    if isinstance(left, Empty) or isinstance(right, Empty):
        return EMPTY
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
    if isinstance(term, (Empty, Atom)):
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
    if isinstance(term, Let):
        return nullable(term.body, env)
    raise TypeError(f"not a term: {term!r}")


def iter_atoms(term):
    """All Atom annotations in the term, in preorder."""
    if isinstance(term, Atom):
        yield term.ann
    elif isinstance(term, (Seq, Union, Shuffle)):
        yield from iter_atoms(term.left)
        yield from iter_atoms(term.right)
    elif isinstance(term, Let):
        yield from iter_atoms(term.body)


def term_bind_vars(term):
    """Variables bound anywhere in the term, first occurrence order."""
    seen = []
    for ann in iter_atoms(term):
        for v in ann.bound_vars():
            if v not in seen:
                seen.append(v)
    return tuple(seen)


def term_topics(term):
    """Literal topics mentioned by the term's atoms."""
    out = set()
    for ann in iter_atoms(term):
        t = ann.topic()
        if t is not None:
            out.add(t)
    return out


def check_term(term, bound=frozenset()):
    """Validate static well-formedness; currently the let-scoping rule."""
    if isinstance(term, Let):
        clash = bound & set(term.vars)
        if clash:
            raise ValueError(f"let re-declares bound variables: {sorted(clash)}")
        check_term(term.body, bound | set(term.vars))
    elif isinstance(term, (Seq, Union, Shuffle)):
        check_term(term.left, bound)
        check_term(term.right, bound)
    return term
