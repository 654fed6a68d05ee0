import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rvaft.errors import GuardParseError
from rvaft.fileformat import parse_guard, print_guard
from rvaft.terms import BinOp, Const, NotOp, Var


def test_parse_timeout_guard():
    g = parse_guard("T2 >= T1 + 10")
    assert g == BinOp(">=", Var("T2"), BinOp("+", Var("T1"), Const(10.0)))


def test_parse_string_constant():
    g = parse_guard("NewWp != 'entrance'")
    assert g == BinOp("!=", Var("NewWp"), Const("entrance"))


def test_parse_parenthesized_variable():
    assert parse_guard("((x))") == Var("x")


def test_parse_boolean_structure():
    g = parse_guard("NewWp != 'entrance' and T2 >= T1 + 10")
    assert isinstance(g, BinOp) and g.op == "and"


def test_parse_not_and_precedence():
    g = parse_guard("not x == 1 or y == 2")
    assert g.op == "or"
    assert isinstance(g.left, NotOp)


def test_parse_error_positions():
    with pytest.raises(GuardParseError):
        parse_guard("x >=")
    with pytest.raises(GuardParseError):
        parse_guard("(x == 1")
    with pytest.raises(GuardParseError):
        parse_guard("'unterminated")
    with pytest.raises(GuardParseError):
        parse_guard("x == 1 junk junk")


def test_print_guard_canonical_forms():
    assert print_guard(parse_guard("T2>=T1+10")) == "T2 >= T1 + 10"
    assert print_guard(parse_guard("NewWp!='entrance'")) == "NewWp != 'entrance'"
    assert print_guard(parse_guard("a and (b or c)")) == "a and (b or c)"
    assert print_guard(parse_guard("(a and b) or c")) == "a and b or c"
    assert print_guard(parse_guard("x - (y - z)")) == "x - (y - z)"
    assert print_guard(parse_guard("x - y - z")) == "x - y - z"


_vars = st.sampled_from(["x", "y", "T1", "T2", "NewWp"])
_consts = st.one_of(
    st.integers(0, 999).map(float).map(Const),
    st.sampled_from(["entrance", "goal", "a b"]).map(Const),
)


def _guards(depth, consts=_consts):
    if depth == 0:
        return st.one_of(_vars.map(Var), consts)
    sub = _guards(depth - 1, consts)
    return st.one_of(
        _vars.map(Var),
        consts,
        st.tuples(st.sampled_from(["+", "-", "<", "<=", ">", ">=", "==", "!=",
                                   "and", "or"]), sub, sub).map(
            lambda t: BinOp(*t)
        ),
        sub.map(NotOp),
    )


@given(_guards(3))
@settings(max_examples=300, deadline=None)
def test_print_parse_is_a_fixpoint(g):
    """print -> parse -> print is stable after one round."""
    text = print_guard(g)
    reparsed = parse_guard(text)
    assert print_guard(reparsed) == text
    assert parse_guard(print_guard(reparsed)) == reparsed


# The parser reads no sign and no exponent, so these are the numbers a guard
# can spell; the small ones are those repr writes with an exponent.
_numbers = st.one_of(
    st.floats(min_value=0, allow_nan=False, allow_infinity=False),
    st.floats(min_value=0, max_value=1e-4),
).map(Const)


@given(_guards(3, st.one_of(_numbers, _consts)))
@settings(max_examples=300, deadline=None)
@example(BinOp(">=", Var("C"), Const(1e-05)))
@example(Const(5e-324))
def test_parse_reads_back_the_printed_guard(g):
    assert parse_guard(print_guard(g)) == g
