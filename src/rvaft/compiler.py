"""Branch decomposition and gate-to-term translation.

Disjunction gates fork branches; every other gate composes in place. Each
branch compiles to a sequence spine in which guard-only leaves immediately
following an atom fold into that atom's guard. The merged term comes from the
same walk with the disjunctions left open: each becomes a union of its arms'
spines, with the head and tail that all arms share factored out of it. A
disjunction below a shuffle or a vote is resolved at that gate instead, so
the union sits above the gate, as it does between separate branches.
"""

from __future__ import annotations

import itertools

from .errors import InvalidKError, Log, UnclassifiedBranchError
from .model import ATTACK, FAULT, NEUTRAL, validate
from .terms import (
    Atom,
    Check,
    EventAnnotation,
    Seq,
    Shuffle,
    Union,
    iter_atoms,
    seq_all,
)

log = Log(__name__)


# ---------------------------------------------------------------------------
# Gate translations
# ---------------------------------------------------------------------------

def translate_or(children):
    """Disjunction: the union of the children, in order (right fold)."""
    children = list(children)
    if not children:
        raise ValueError("translate_or needs at least one child")
    out = children[-1]
    for t in reversed(children[:-1]):
        out = Union(t, out)
    return out


def translate_and(children):
    """Unordered conjunction: any interleaving of the children (right fold)."""
    children = list(children)
    if not children:
        raise ValueError("translate_and needs at least one child")
    out = children[-1]
    for t in reversed(children[:-1]):
        out = Shuffle(t, out)
    return out


def translate_sand(children, direction="LR"):
    """Ordered conjunction: plain concatenation, reversed for right-to-left."""
    children = list(children)
    if not children:
        raise ValueError("translate_sand needs at least one child")
    if direction == "RL":
        children = children[::-1]
    elif direction != "LR":
        raise ValueError(f"bad SAND direction: {direction!r}")
    out = children[-1]
    for t in reversed(children[:-1]):
        out = Seq(t, out)
    return out


def translate_vot(k, children):
    """At-least-k-of-n: any k of the children, interleaved as in AND.

    vot(n, S) is AND and vot(1, S) is OR; otherwise the first child either
    is one of the k, shuffled with k-1 of the rest, or k of the rest occur.
    """
    children = list(children)
    n = len(children)
    if not 1 <= k <= n:
        raise InvalidKError(k, n)
    if k == n:
        return translate_and(children)
    if k == 1:
        return translate_or(children)
    first, rest = children[0], children[1:]
    return Union(Shuffle(first, translate_vot(k - 1, rest)), translate_vot(k, rest))


# ---------------------------------------------------------------------------
# Branch spines
# ---------------------------------------------------------------------------

# A spine is a tuple of terms: atoms, the whole term of an AND or VOT gate,
# and unions. A guard-only leaf enters as an atom with no name and no
# pattern, so _factor compares it by guard and policy alone; fold_spine then
# conjoins it into the atom before it, or makes it a check.

def fold_spine(spine):
    """Fold a spine into a sequence term."""
    parts = []
    for t in spine:
        if isinstance(t, Atom) and not t.ann.pattern:
            if parts and isinstance(parts[-1], Atom):
                t = Atom(parts.pop().ann.with_extra_guard(t.ann.guard, t.ann.on_guard_fail))
            else:
                t = Check(t.ann.guard)
        parts.append(t)
    return seq_all(parts)


class BranchProperty:
    """One root-to-cause branch of the tree, compiled to a monitor term."""

    __slots__ = ("id", "path", "node_class", "term")

    def __init__(self, id, path, node_class, term):
        self.id = id
        self.path = path  # chosen child ids at each disjunction, tree order
        self.node_class = node_class  # fault or attack
        self.term = term


class MonitorSpec:
    __slots__ = ("properties", "merged", "fields")

    def __init__(self, properties, merged, fields=None):
        self.properties = properties
        self.merged = merged  # a Term, or None
        # The subscription: per canonical topic, the event keys that some
        # atom on it reads; None when some atom's topic is not a literal
        # string, so any key of any event may be read.
        self.fields = fields

    @property
    def topics(self):
        """The subscribed topics: the keys of ``fields``, or None (every
        topic) when ``fields`` is None."""
        return None if self.fields is None else frozenset(self.fields)

    def property_ids(self):
        return tuple(p.id for p in self.properties)


def _collect_or_nodes(tree):
    """Disjunction nodes in document preorder from the root."""
    out = []
    for nid in tree.reachable():
        gate = tree.nodes[nid].gate
        if gate is not None and gate.kind == "OR":
            out.append(nid)
    return out


def _resolutions(tree, nids, choices):
    """Every extension of ``choices`` by one child of each disjunction that
    the subtrees at ``nids`` pass; a disjunction already chosen keeps its
    choice."""
    maps = [choices]
    for nid in nids:
        gate = tree.nodes[nid].gate
        if gate is None:
            continue
        out = []
        for m in maps:
            if gate.kind != "OR":
                out.extend(_resolutions(tree, gate.children, m))
            elif nid in m:  # shared disjunction already resolved
                out.extend(_resolutions(tree, [m[nid]], m))
            else:
                for child in gate.children:
                    out.extend(_resolutions(tree, [child], {**m, nid: child}))
        maps = out
    return maps


def _enumerate_choices(tree):
    """All disjunction resolutions, ordered so deeper choices vary slowest.

    That ordering groups the branches of the outermost disjunction together
    last, which numbers the case-study branches fault, fault, attack, attack.
    """
    or_nodes = _collect_or_nodes(tree)
    choice_maps = _resolutions(tree, [tree.root], {})

    def sort_key(cm):
        key = []
        for nid in reversed(or_nodes):
            if nid in cm:
                key.append(tree.nodes[nid].gate.children.index(cm[nid]))
            else:
                key.append(-1)
        return tuple(key)

    return or_nodes, sorted(choice_maps, key=sort_key)


def _factor(arms):
    """One spine for the arms of a disjunction: the head and tail that every
    arm shares stay outside, and a single union covers where they differ."""
    arms = [a for i, a in enumerate(arms) if a not in arms[:i]]
    if len(arms) == 1:
        return arms[0]
    p = 0
    while all(len(a) > p and a[p] == arms[0][p] for a in arms):
        p += 1
    s = 0
    while all(len(a) - p > s and a[-1 - s] == arms[0][-1 - s] for a in arms):
        s += 1
    middle = translate_or(fold_spine(a[p : len(a) - s]) for a in arms)
    return arms[0][:p] + (middle,) + arms[0][len(arms[0]) - s :]


def _build_spine(tree, nid, choices, visited):
    """Spine of the subtree at ``nid``; a disjunction in ``choices`` follows
    its chosen child, any other follows all of them, as a union in place on a
    sequence and as one union of whole gates below a shuffle or a vote. Every
    node walked is appended to ``visited``."""
    node = tree.nodes[nid]
    visited.append(nid)
    ann = node.annotation
    prefix = []
    if ann is not None:
        prefix = [Atom(ann if ann.pattern else
                       EventAnnotation("", (), ann.guard, ann.on_guard_fail))]
    gate = node.gate
    if gate is None:
        return tuple(prefix)
    if gate.kind == "OR":
        arms = [choices[nid]] if nid in choices else gate.children
        return tuple(prefix) + _factor(
            [_build_spine(tree, child, choices, visited) for child in arms]
        )
    if gate.kind in ("SAND_LR", "SAND_RL"):
        kids = gate.children if gate.kind == "SAND_LR" else gate.children[::-1]
        spine = []
        for child in kids:
            spine.extend(_build_spine(tree, child, choices, visited))
        return tuple(prefix) + tuple(spine)
    if gate.kind not in ("AND", "VOT"):
        raise ValueError(f"unknown gate kind: {gate.kind!r}")
    # A disjunction below a shuffle or a vote is resolved here, one arm per
    # choice, so that the union sits above the gate: the monitor then splits
    # the arms into separate alternatives at the first event the gate takes.
    arms = []
    for pick in _resolutions(tree, gate.children, choices):
        child_terms = [
            fold_spine(_build_spine(tree, child, pick, visited))
            for child in gate.children
        ]
        k = len(child_terms) if gate.kind == "AND" else gate.k
        arms.append((translate_vot(k, child_terms),))
    return tuple(prefix) + _factor(arms)


def decompose(tree):
    """Split the tree into branch properties, one per disjunction resolution."""
    problems = validate(tree, runtime_ready=True)
    if problems:
        raise ValueError(
            "tree is not runtime-ready: " + "; ".join(str(v) for v in problems)
        )
    or_nodes, choice_maps = _enumerate_choices(tree)
    props = []
    for i, choices in enumerate(choice_maps, start=1):
        visited = []
        term = fold_spine(_build_spine(tree, tree.root, choices, visited))
        classes = {tree.nodes[n].node_class for n in visited} - {NEUTRAL}
        path = tuple(choices[nid] for nid in or_nodes if nid in choices)
        if not classes:
            raise UnclassifiedBranchError(path)
        node_class = ATTACK if ATTACK in classes else FAULT
        for n in visited:
            node = tree.nodes[n]
            if node.annotation is None and node.gate is not None and n != tree.root:
                log.info("phi%d: intermediate node %s has no annotation and adds no atom", i, n)
        if classes == {ATTACK, FAULT}:
            log.info("phi%d: branch mixes fault and attack leaves; classed as attack", i)
        props.append(BranchProperty(f"phi{i}", path, node_class, term))
    return props


# ---------------------------------------------------------------------------
# Merging
# ---------------------------------------------------------------------------

def _shared_disjunctions(tree):
    """Disjunctions one branch can pass more than once, in preorder: those
    below two children of the same conjunctive or voting gate."""
    below = {}
    shared = set()

    def walk(nid):
        if nid not in below:
            gate = tree.nodes[nid].gate
            found = set()
            if gate is not None:
                for child in gate.children:
                    sub = walk(child)
                    if gate.kind != "OR":
                        shared.update(sub & found)
                    found |= sub
                if gate.kind == "OR":
                    found.add(nid)
            below[nid] = found
        return below[nid]

    walk(tree.root)
    return [nid for nid in _collect_or_nodes(tree) if nid in shared]


def merge(tree):
    """One term whose language is the union of the tree's branch languages.

    Built by the same walk as each branch, but with every disjunction left
    open so that it becomes a union. A disjunction that one branch can pass
    more than once is resolved first, one arm per choice, so that its
    occurrences cannot choose differently.
    """
    shared = _shared_disjunctions(tree)
    picks = itertools.product(*(tree.nodes[nid].gate.children for nid in shared))
    return fold_spine(_factor(
        [_build_spine(tree, tree.root, dict(zip(shared, pick)), []) for pick in picks]
    ))


def read_fields(terms):
    """Per literal topic, the pattern keys its atoms read in ``terms``, or
    None when some atom's topic is not a literal string."""
    fields = {}
    for term in terms:
        for ann in iter_atoms(term):
            topic = ann.topic()
            if not isinstance(topic, str):
                return None
            fields.setdefault(topic, set()).update(key for key, _ in ann.pattern)
    return {topic: frozenset(keys) for topic, keys in fields.items()}


def compile_tree(tree, do_merge=True):
    """Full compilation: branch properties, optional merged term and the
    subscription, the event keys read on each topic. The merged term's atoms
    have the branches' patterns, so the branches alone give the
    subscription."""
    props = tuple(decompose(tree))
    return MonitorSpec(
        properties=props,
        merged=merge(tree) if do_merge else None,
        fields=read_fields(p.term for p in props),
    )
