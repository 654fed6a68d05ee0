"""In-memory attack-fault trees with runtime-event annotations.

A tree is a rooted DAG. Intermediate nodes carry a gate connector over
ordered children; leaves carry event annotations once the tree is made
runtime-ready. All operations return new trees; values are never mutated.
"""

from __future__ import annotations

import re

from .errors import Log, RootAnnotationError, RootRemovalError, UnknownNodeError
from .record import Record

log = Log(__name__)

NODE_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*$")

FAULT = "fault"
ATTACK = "attack"
NEUTRAL = "neutral"
NODE_CLASSES = (FAULT, ATTACK, NEUTRAL)

GATE_KINDS = ("AND", "OR", "SAND_LR", "SAND_RL", "VOT")


# Trees, nodes and gates equal others of their class with equal fields, so
# that a tree read back from its document equals the tree written.

class GateSpec(Record):
    """A logical connector: kind, ordered children, and k for voting gates."""

    __slots__ = ("kind", "children", "k")

    def __init__(self, kind, children, k=None):
        if kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind: {kind!r}")
        if not children:
            raise ValueError("a gate needs at least one child")
        self.kind = kind
        self.children = children
        self.k = k


class RvaftNode(Record):
    __slots__ = ("id", "label", "node_class", "annotation", "gate")

    def __init__(self, id, label="", node_class=NEUTRAL, annotation=None, gate=None):
        self.id = id
        self.label = label
        self.node_class = node_class
        self.annotation = annotation  # an EventAnnotation, or None
        self.gate = gate  # a GateSpec, or None

    @property
    def is_leaf(self):
        return self.gate is None

    def with_gate(self, gate):
        return RvaftNode(self.id, self.label, self.node_class, self.annotation, gate)


class RvaftTree(Record):
    __slots__ = ("name", "root", "nodes")

    def __init__(self, name, root, nodes):
        self.name = name
        self.root = root
        self.nodes = nodes  # id -> RvaftNode; insertion order is the document order

    def reachable(self):
        """Node ids reachable from the root, preorder, shared nodes once."""
        seen = []
        stack = [self.root]
        while stack:
            nid = stack.pop()
            if nid in seen or nid not in self.nodes:
                continue
            seen.append(nid)
            gate = self.nodes[nid].gate
            if gate is not None:
                stack.extend(reversed([c for c in gate.children if c not in seen]))
        return seen


class Violation:
    __slots__ = ("node_id", "message")

    def __init__(self, node_id, message):
        self.node_id = node_id
        self.message = message

    def __str__(self):
        return f"{self.node_id}: {self.message}"


def validate(tree, runtime_ready=False):
    """Every structural breach as data; empty result means the tree is valid.

    With runtime_ready set, additionally demands an event annotation on every
    non-root leaf (annotation completeness for monitor generation).
    """
    out = []
    if tree.root not in tree.nodes:
        out.append(Violation(tree.root, "root is not a node of the tree"))
        return out

    for nid, node in tree.nodes.items():
        if not NODE_ID_RE.match(nid):
            out.append(Violation(nid, "node id must match [A-Za-z_][A-Za-z0-9_-]*"))
        if nid != node.id:
            out.append(Violation(nid, f"node map key differs from node id {node.id!r}"))
        if node.node_class not in NODE_CLASSES:
            out.append(Violation(nid, f"unknown node class {node.node_class!r}"))
        gate = node.gate
        if gate is not None:
            if len(gate.children) < 2:
                out.append(Violation(nid, "gate must have at least 2 children"))
            for child in gate.children:
                if child not in tree.nodes:
                    out.append(Violation(nid, f"gate child {child!r} does not exist"))
            if gate.kind == "VOT":
                if gate.k is None:
                    out.append(Violation(nid, "VOT gate needs a threshold k"))
                elif gate.k > len(gate.children):
                    out.append(
                        Violation(nid, f"k={gate.k} exceeds child count {len(gate.children)}")
                    )
                elif gate.k < 1:
                    out.append(Violation(nid, f"k={gate.k} must be at least 1"))
            elif gate.k is not None:
                out.append(Violation(nid, f"{gate.kind} gate must not carry k"))
        ann = node.annotation
        if ann is not None and not ann.pattern and not node.is_leaf:
            out.append(Violation(nid, "guard-only annotation is only permitted on leaves"))

    root_node = tree.nodes[tree.root]
    if root_node.gate is None:
        out.append(Violation(tree.root, "root must have a connector"))
    if root_node.annotation is not None:
        out.append(Violation(tree.root, "root never carries an event annotation"))

    # Reachability and acyclicity by DFS with an explicit path stack.
    state = {}  # id -> "open" | "done"

    def visit(nid, path):
        if nid not in tree.nodes:
            return
        if state.get(nid) == "open":
            out.append(Violation(nid, f"node is its own ancestor via {path}"))
            return
        if state.get(nid) == "done":
            return
        state[nid] = "open"
        gate = tree.nodes[nid].gate
        if gate is not None:
            for child in gate.children:
                visit(child, path + [nid])
        state[nid] = "done"

    visit(tree.root, [])
    for nid in tree.nodes:
        if state.get(nid) != "done":
            out.append(Violation(nid, "node is not reachable from the root"))

    if runtime_ready:
        for nid in tree.nodes:
            node = tree.nodes[nid]
            if nid != tree.root and node.is_leaf and node.annotation is None:
                out.append(Violation(nid, "runtime-ready leaf is missing an event annotation"))
    return out


def prune(tree, remove):
    """Drop the listed nodes plus everything that becomes unreachable.

    Gates left with one child collapse (the parent adopts the survivor; a
    collapsing root is replaced by its survivor). Gates left with no children
    turn their node into a leaf. Voting thresholds are clamped to the new
    child count with a logged warning.
    """
    remove = set(remove)
    for nid in remove:
        if nid not in tree.nodes:
            raise UnknownNodeError(nid)
    if tree.root in remove:
        raise RootRemovalError(tree.root)
    if not remove:
        return tree

    nodes = {nid: n for nid, n in tree.nodes.items() if nid not in remove}
    root = tree.root

    # Iterate edge cleanup + collapses until stable; then GC unreachables.
    changed = True
    while changed:
        changed = False
        collapsed = {}  # gate node replaced by its single surviving child
        for nid, node in list(nodes.items()):
            if node.gate is None:
                continue
            kids = tuple(c for c in node.gate.children if c in nodes)
            if kids != node.gate.children:
                changed = True
            if not kids:
                nodes[nid] = node.with_gate(None)
                continue
            if len(kids) == 1:
                collapsed[nid] = kids[0]
                continue
            k = node.gate.k
            if node.gate.kind == "VOT" and k is not None and k > len(kids):
                log.warning(
                    "prune: clamping VOT threshold on %s from %d to %d", nid, k, len(kids)
                )
                k = len(kids)
                changed = True
            if kids != node.gate.children or k != node.gate.k:
                nodes[nid] = node.with_gate(GateSpec(node.gate.kind, kids, k))
        for nid in collapsed:
            changed = True
            survivor = collapsed[nid]
            while survivor in collapsed:  # nested collapses in one pass
                survivor = collapsed[survivor]
            del nodes[nid]
            if nid == root:
                root = survivor
            for other_id, other in list(nodes.items()):
                gate = other.gate
                if gate is not None and nid in gate.children:
                    kids = tuple(survivor if c == nid else c for c in gate.children)
                    nodes[other_id] = other.with_gate(GateSpec(gate.kind, kids, gate.k))

    pruned = RvaftTree(tree.name, root, nodes)
    keep = set(pruned.reachable())
    nodes = {nid: n for nid, n in nodes.items() if nid in keep}
    return RvaftTree(tree.name, root, nodes)


def annotate(tree, node_id, ann):
    """Install (or replace) the runtime-event annotation of one node."""
    if node_id not in tree.nodes:
        raise UnknownNodeError(node_id)
    if node_id == tree.root:
        raise RootAnnotationError(node_id)
    nodes = dict(tree.nodes)
    old = nodes[node_id]
    nodes[node_id] = RvaftNode(old.id, old.label, old.node_class, ann, old.gate)
    return RvaftTree(tree.name, tree.root, nodes)
