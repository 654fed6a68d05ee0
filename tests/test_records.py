"""The records that are not term nodes are plain slot classes, and keep the
value semantics the code relies on.

Creating a dataclass generates and compiles its methods at import, which
`rvaft run` pays on every spawn; only the term nodes (which
`perfbench/tracer.py` walks with `dataclasses.fields`) stay dataclasses. The
records compared by value derive equality and repr from their `__slots__`
through `rvaft.record.Record`; the rest compare by identity.
"""

import os
import subprocess
import sys

import pytest

from conftest import CASES
from oracle import RunResult

from rvaft.compiler import BranchProperty, MonitorSpec
from rvaft.engine import StepDiagnostics, Verdict, VerdictState
from rvaft.fileformat import parse_guard, parse_tree, serialize_tree
from rvaft.model import GateSpec, RvaftNode, RvaftTree, Violation
from rvaft.stream import TraceStats
from rvaft.terms import (
    EPSILON,
    BinOp,
    Bind,
    Const,
    Env,
    EventAnnotation,
    NotOp,
    Var,
)

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

TERM_NODES = {"Atom", "Check", "Epsilon", "Seq", "Shuffle", "Union"}
# Dataclasses that are not term nodes, each kept for a reason: none is.
DATACLASS_EXCEPTIONS = set()


def test_only_term_nodes_and_the_named_exceptions_are_dataclasses():
    check = (
        "import inspect, sys, rvaft.cli\n"
        "from rvaft.terms import Term\n"
        "print(sorted(n for m, mod in list(sys.modules.items()) if m.startswith('rvaft')"
        " for n, c in vars(mod).items() if inspect.isclass(c) and c.__module__ == m"
        " and '__dataclass_fields__' in vars(c)))\n"
        "print(sorted(c.__name__ for c in Term.__subclasses__()))\n"
    )
    out = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=SRC), check=True).stdout
    dataclasses, term_nodes = out.splitlines()
    assert term_nodes == repr(sorted(TERM_NODES))
    assert dataclasses == repr(sorted(TERM_NODES | DATACLASS_EXCEPTIONS))


ANN = EventAnnotation("move", (("topic", "command"), ("waypoint", Bind("W"))))
GUARD = parse_guard("T2 >= T1 + 10")

# Class, the fields of one record, the fields of another that differs in one.
VALUE_RECORDS = [
    (Env, ((("T1", 16.1),),), ((("T1", 16.2),),)),
    (Const, (10.0,), (11.0,)),
    (Var, ("T1",), ("T2",)),
    (BinOp, (">=", Var("T2"), Const(10.0)), ("<=", Var("T2"), Const(10.0))),
    (NotOp, (Var("ok"),), (Var("ko"),)),
    (Bind, ("W",), ("V",)),
    (EventAnnotation, ("r", (("v", Bind("V")),), GUARD, "skip"),
     ("r", (("v", Bind("V")),), GUARD, "violate")),
    (GateSpec, ("VOT", ("a", "b"), 1), ("VOT", ("a", "b"), 2)),
    (RvaftNode, ("a", "A", "fault", ANN, None), ("a", "A", "attack", ANN, None)),
    (RvaftTree, ("t", "r", {"r": RvaftNode("r")}), ("t", "r", {"r": RvaftNode("r", "R")})),
    (TraceStats, (3, 2, 1), (3, 1, 2)),
]


@pytest.mark.parametrize("cls, fields, other", VALUE_RECORDS,
                         ids=[c.__name__ for c, _, _ in VALUE_RECORDS])
def test_records_compare_by_class_and_fields(cls, fields, other):
    a, b = cls(*fields), cls(*fields)
    assert a == b and not a != b
    assert a != cls(*other) and not a == cls(*other)
    # Another class with the same fields is never equal: Python then falls
    # back to identity, as for Var("x") against Bind("x").
    assert a.__eq__(object()) is NotImplemented
    if cls.__hash__ is not None:
        assert hash(a) == hash(b)
    assert not hasattr(a, "__dict__")


def test_records_of_two_classes_with_equal_fields_are_unequal():
    assert Var("x") != Bind("x")
    assert Const("x") != Var("x")
    assert Const(GUARD) != NotOp(GUARD)


def test_only_env_guard_nodes_and_bind_hash():
    """And the annotations, which the term nodes that hold them hash."""
    hashable = {cls for cls, _, _ in VALUE_RECORDS if cls.__hash__ is not None}
    assert hashable == {Env, Const, Var, BinOp, NotOp, Bind, EventAnnotation}


def test_a_field_equals_itself_even_when_it_is_a_nan():
    nan = Const(float("nan"))
    assert nan == nan and not nan != nan
    assert BinOp("<", nan, Var("x")) == BinOp("<", nan, Var("x"))


# Every value record has a repr, so that a failed comparison shows both sides.
REPR_RECORDS = [(c, f) for c, f, _ in VALUE_RECORDS]


@pytest.mark.parametrize("cls, fields", REPR_RECORDS, ids=[c.__name__ for c, _ in REPR_RECORDS])
def test_repr_names_the_class_and_its_fields(cls, fields):
    record = cls(*fields)
    if cls is Env:
        assert repr(record) == "Env(T1=16.1)"
    else:
        assert repr(record) == "{}({})".format(cls.__name__, ", ".join(
            f"{name}={value!r}" for name, value in zip(cls.__slots__, fields)))


def plain_records():
    return [
        BranchProperty("phi1", ("a",), "fault", EPSILON),
        MonitorSpec((), None, {}),
        StepDiagnostics("neutral"),
        VerdictState(Verdict.UNKNOWN, "merged"),
        RunResult([], [], None, Verdict.UNKNOWN),
        Violation("a", "no such node"),
    ]


def test_plain_records_hold_their_fields_in_slots():
    records = plain_records()
    for record in records:
        assert not hasattr(record, "__dict__"), type(record).__name__
    assert str(records[-1]) == "a: no such node"


def test_plain_records_compare_by_identity():
    for a, b in zip(plain_records(), plain_records()):
        assert a == a and a != b and hash(a) != hash(b), type(a).__name__


@pytest.mark.parametrize("name", ["remote_inspection", "full_inspection"])
def test_a_tree_read_back_from_its_document_is_equal(name):
    tree = parse_tree((CASES / f"{name}.rvaft.json").read_bytes())
    assert parse_tree(serialize_tree(tree)) == tree
    node_id, node = next(iter(tree.nodes.items()))
    relabelled = RvaftTree(tree.name, tree.root, {
        **tree.nodes, node_id: RvaftNode(node.id, node.label + "!", node.node_class,
                                         node.annotation, node.gate)})
    assert relabelled != tree
