import logging

import pytest

from rvaft.casestudy import PRUNE_SET, pruned_tree
from rvaft.errors import RootAnnotationError, RootRemovalError, UnknownNodeError
from rvaft.fileformat import parse_guard
from rvaft.model import GateSpec, RvaftNode, RvaftTree, annotate, prune, validate
from rvaft.terms import Bind, EventAnnotation


def leaf(nid, label="", node_class="neutral", ann=None):
    return RvaftNode(nid, label, node_class, ann)


def toy_ann(nid):
    return EventAnnotation(nid, (("topic", f"t_{nid}"),))


def toy_tree(kind="OR", n=2, k=None, annotated=True, classes=None):
    classes = classes or ["fault"] * n
    kids = [
        leaf(f"leaf{i}", node_class=classes[i],
             ann=toy_ann(f"leaf{i}") if annotated else None)
        for i in range(n)
    ]
    root = RvaftNode("root", "toy", gate=GateSpec(kind, tuple(x.id for x in kids), k))
    return RvaftTree("toy", "root", {n.id: n for n in [root] + kids})


def test_case_study_tree_is_runtime_ready():
    assert validate(pruned_tree(), runtime_ready=True) == []


def test_single_node_tree_needs_connector():
    tree = RvaftTree("t", "root", {"root": leaf("root")})
    messages = [v.message for v in validate(tree)]
    assert any("root must have a connector" in m for m in messages)


def test_vot_k_exceeding_children_is_flagged():
    tree = toy_tree("VOT", n=3, k=4)
    messages = [str(v) for v in validate(tree)]
    assert any("k=4 exceeds child count 3" in m for m in messages)


def test_vot_without_k_is_flagged():
    tree = toy_tree("VOT", n=3)
    assert any("needs a threshold" in v.message for v in validate(tree))


def test_k_on_non_vot_gate_is_flagged():
    tree = toy_tree("AND", n=2, k=1)
    assert any("must not carry k" in v.message for v in validate(tree))


def test_missing_child_and_cycle_detection():
    a = RvaftNode("a", gate=GateSpec("OR", ("b", "ghost")))
    b = RvaftNode("b", gate=GateSpec("OR", ("a", "c")))
    c = leaf("c")
    tree = RvaftTree("t", "a", {"a": a, "b": b, "c": c})
    messages = [v.message for v in validate(tree)]
    assert any("does not exist" in m for m in messages)
    assert any("own ancestor" in m for m in messages)


def test_unreachable_node_is_flagged():
    tree = toy_tree()
    nodes = dict(tree.nodes)
    nodes["orphan"] = leaf("orphan")
    messages = [v.message for v in validate(RvaftTree("t", "root", nodes))]
    assert any("not reachable" in m for m in messages)


def test_runtime_ready_demands_leaf_annotations():
    tree = toy_tree(annotated=False)
    assert validate(tree, runtime_ready=False) == []
    problems = validate(tree, runtime_ready=True)
    assert len(problems) == 2
    assert all("missing an event annotation" in v.message for v in problems)


def test_guard_only_annotation_only_on_leaves():
    kids = [leaf("a", ann=toy_ann("a")), leaf("b", ann=toy_ann("b"))]
    mid = RvaftNode(
        "mid",
        gate=GateSpec("OR", ("a", "b")),
        annotation=EventAnnotation("g", (), parse_guard("x >= 1")),
    )
    root = RvaftNode("root", gate=GateSpec("OR", ("mid", "a")))
    tree = RvaftTree("t", "root", {n.id: n for n in [root, mid] + kids})
    assert any("only permitted on leaves" in v.message for v in validate(tree))


# ---------------------------------------------------------------------------
# prune
# ---------------------------------------------------------------------------

def test_prune_empty_set_is_identity():
    tree = pruned_tree()
    assert prune(tree, set()) == tree


def test_prune_root_and_unknown_are_errors():
    tree = pruned_tree()
    with pytest.raises(RootRemovalError):
        prune(tree, {tree.root})
    with pytest.raises(UnknownNodeError):
        prune(tree, {"nonexistent"})


def test_prune_case_study_reproduces_monitor_ready_tree(full_tree):
    pruned = prune(full_tree, PRUNE_SET)
    expected = pruned_tree()
    assert set(pruned.nodes) == set(expected.nodes)
    for nid in expected.nodes:
        assert pruned.nodes[nid].gate == expected.nodes[nid].gate, nid
        assert pruned.nodes[nid].annotation == expected.nodes[nid].annotation, nid
    assert validate(pruned, runtime_ready=True) == []


def _or_paths(tree):
    """Exhaustive root-to-leaf choice walk; the independent branch oracle."""
    def walk(nid):
        gate = tree.nodes[nid].gate
        if gate is None:
            return [(nid,)]
        if gate.kind == "OR":
            return [(nid,) + p for child in gate.children for p in walk(child)]
        combos = [()]
        for child in gate.children:
            combos = [c + p for c in combos for p in walk(child)]
        return [(nid,) + c for c in combos]

    return walk(tree.root)


def test_prune_drops_branches_monotonically():
    tree = toy_tree("OR", n=3)
    before = _or_paths(tree)
    after_tree = prune(tree, {"leaf2"})
    after = _or_paths(after_tree)
    assert len(before) == 3
    assert len(after) == 2
    assert set(after) <= set(before)
    assert after_tree.nodes["root"].gate.children == ("leaf0", "leaf1")


def test_prune_collapses_single_child_gate():
    inner = RvaftNode("inner", gate=GateSpec("AND", ("a", "b")))
    nodes = {
        "root": RvaftNode("root", gate=GateSpec("OR", ("inner", "c"))),
        "inner": inner,
        "a": leaf("a", ann=toy_ann("a"), node_class="fault"),
        "b": leaf("b", ann=toy_ann("b"), node_class="fault"),
        "c": leaf("c", ann=toy_ann("c"), node_class="fault"),
    }
    tree = RvaftTree("t", "root", nodes)
    pruned = prune(tree, {"b"})
    assert "inner" not in pruned.nodes
    assert pruned.nodes["root"].gate.children == ("a", "c")
    assert validate(pruned, runtime_ready=True) == []


def test_prune_clamps_vot_threshold_with_warning(caplog):
    tree = toy_tree("VOT", n=3, k=3)
    with caplog.at_level(logging.WARNING):
        pruned = prune(tree, {"leaf2"})
    assert pruned.nodes["root"].gate.k == 2
    assert any("clamping" in r.message for r in caplog.records)


def test_prune_gate_left_childless_becomes_leaf():
    inner = RvaftNode("inner", gate=GateSpec("AND", ("a", "b")))
    nodes = {
        "root": RvaftNode("root", gate=GateSpec("OR", ("inner", "c"))),
        "inner": inner,
        "a": leaf("a"),
        "b": leaf("b"),
        "c": leaf("c", ann=toy_ann("c")),
    }
    tree = RvaftTree("t", "root", nodes)
    pruned = prune(tree, {"a", "b"})
    assert pruned.nodes["inner"].gate is None
    # The new leaf is unannotated: fine structurally, flagged when runtime-ready.
    assert validate(pruned, runtime_ready=False) == []
    assert any(
        "missing an event annotation" in v.message
        for v in validate(pruned, runtime_ready=True)
    )


def test_prune_collapse_can_reroot():
    tree = toy_tree("OR", n=2)
    pruned = prune(tree, {"leaf1"})
    assert pruned.root == "leaf0"
    assert list(pruned.nodes) == ["leaf0"]


# ---------------------------------------------------------------------------
# annotate
# ---------------------------------------------------------------------------

def test_annotate_installs_and_replaces():
    tree = toy_tree(annotated=False)
    ann = EventAnnotation(
        "radiation",
        (("topic", "radiation_sensor_plugin/sensor_0"), ("value", Bind("Value")),
         ("time", Bind("T1"))),
    )
    out = annotate(tree, "leaf0", ann)
    assert out.nodes["leaf0"].annotation == ann
    assert tree.nodes["leaf0"].annotation is None  # original untouched
    assert annotate(out, "leaf0", ann) == out  # idempotent


def test_annotate_guard_only_leaf():
    tree = toy_tree(annotated=False)
    ann = EventAnnotation("high", (), parse_guard("Value >= 250"))
    out = annotate(tree, "leaf1", ann)
    assert out.nodes["leaf1"].annotation.guard is not None


def test_annotate_errors():
    tree = toy_tree()
    ann = toy_ann("x")
    with pytest.raises(UnknownNodeError):
        annotate(tree, "ghost", ann)
    with pytest.raises(RootAnnotationError):
        annotate(tree, "root", ann)


def test_operations_revalidate_cleanly(full_tree):
    """Soundness: anything produced by prune/annotate on a valid tree passes
    structural validation with zero violations."""
    tree = full_tree
    assert validate(tree) == []
    pruned = prune(tree, PRUNE_SET)
    assert validate(pruned) == []
    out = annotate(pruned, "goal_sent", toy_ann("g"))
    assert validate(out) == []


@pytest.mark.parametrize("seed", range(6))
def test_prune_random_subsets_revalidate(seed, full_tree):
    """Any prune of a valid tree yields a tree with zero structural
    violations (collapse and GC leave no dangling edges or thin gates)."""
    import random

    rng = random.Random(seed)
    base = full_tree
    candidates = [nid for nid in base.nodes if nid != base.root]
    for _ in range(40):
        k = rng.randrange(1, 6)
        removal = set(rng.sample(candidates, k))
        pruned = prune(base, removal)
        if pruned.nodes[pruned.root].gate is None:
            continue  # pruned down to a single leaf; nothing left to check
        assert validate(pruned, runtime_ready=False) == [], (removal,
            validate(pruned, runtime_ready=False))
        for node in pruned.nodes.values():
            if node.gate is not None:
                assert len(node.gate.children) >= 2, removal
