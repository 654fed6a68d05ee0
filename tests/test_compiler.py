import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import plain_atom, plain_event
from oracle import language

from rvaft.compiler import (
    compile_tree,
    decompose,
    merge,
    read_fields,
    translate_and,
    translate_or,
    translate_sand,
    translate_vot,
)
from rvaft.errors import InvalidKError, UnclassifiedBranchError
from rvaft.fileformat import parse_guard
from rvaft.model import GateSpec, RvaftNode, RvaftTree
from rvaft.engine import Monitor, Verdict
from rvaft.terms import (
    Atom, Bind, Check, Env, EventAnnotation, Seq, Shuffle, Term, Union, term_bind_vars,
)

A, B, C = (plain_atom(x) for x in "abc")
EVENTS = [plain_event(x) for x in "abc"]


def lang(term, events=EVENTS, max_len=3):
    return language(term, Env.empty(), events, max_len)


def ann(tree, nid):
    return tree.nodes[nid].annotation


def _leaf(nid, annotation=None):
    return RvaftNode(nid, node_class="fault",
                     annotation=annotation or plain_atom(nid).ann)


# ---------------------------------------------------------------------------
# Gate translations (golden shapes)
# ---------------------------------------------------------------------------

def test_or_is_right_folded_union():
    assert translate_or([A, B, C]) == Union(A, Union(B, C))


def test_or_keeps_duplicates():
    assert translate_or([A, A]) == Union(A, A)
    assert lang(translate_or([A, A])) == lang(A)


def test_or_over_composites():
    term = translate_or([Seq(A, B), C])
    assert term == Union(Seq(A, B), C)
    assert lang(term) == {(0, 1), (2,)}


def test_and_is_right_folded_shuffle():
    assert translate_and([A, B, C]) == Shuffle(A, Shuffle(B, C))


def test_and_accepts_every_ordering():
    import itertools

    term = translate_and([A, B, C])
    assert lang(term) == set(itertools.permutations(range(3)))


def test_and_with_epsilon_is_neutral_at_language_level():
    from rvaft.terms import Epsilon

    term = translate_and([A, Epsilon()])
    assert lang(term) == lang(A)


def test_and_interleaves_composites():
    term = translate_and([Seq(A, B), C])
    assert lang(term) == {(0, 1, 2), (0, 2, 1), (2, 0, 1)}


def test_sand_directions():
    assert translate_sand([A, B, C], "LR") == Seq(A, Seq(B, C))
    assert translate_sand([A, B, C], "RL") == Seq(C, Seq(B, A))
    assert translate_sand([A], "LR") == A  # degenerate after prune collapse


def test_vot_two_of_three_shape():
    term = translate_vot(2, [A, B, C])
    assert term == Union(Shuffle(A, Union(B, C)), Shuffle(B, C))


def test_vot_bounds():
    for k in (0, 4):
        with pytest.raises(InvalidKError):
            translate_vot(k, [A, B, C])


def test_vot_language_laws():
    assert lang(translate_vot(1, [A, B, C])) == lang(translate_or([A, B, C]))
    assert lang(translate_vot(3, [A, B, C])) == lang(translate_and([A, B, C]))


def test_vot_of_all_or_one_child_is_and_or_or():
    for n in (1, 2, 3, 4):
        atoms = [plain_atom(x) for x in "abcd"[:n]]
        assert translate_vot(n, atoms) == translate_and(atoms)
        assert translate_vot(1, atoms) == translate_or(atoms)


def test_vot_children_interleave_as_in_and():
    """Two of three children, two of them two-event sequences: the trace
    a1 b1 a2 b2 completes both sequences, interleaved."""
    a1, a2, b1, b2, c = (plain_atom(x) for x in ("a1", "a2", "b1", "b2", "c"))
    term = translate_vot(2, [Seq(a1, a2), Seq(b1, b2), c])
    monitor = Monitor(term)
    for name in ("a1", "b1", "a2", "b2"):
        monitor.step(plain_event(name))
    assert monitor.verdict == Verdict.SATISFIED


_VOT_EVENTS = [plain_event(x) for x in "abcdef"]
_vot_atoms = st.sampled_from("abcdef").map(plain_atom)
_vot_children = st.lists(
    st.one_of(_vot_atoms, st.tuples(_vot_atoms, _vot_atoms).map(lambda p: Seq(*p))),
    min_size=1, max_size=4,
)


@given(_vot_children, st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_vot_language_is_the_union_of_and_over_k_subsets(children, k):
    k = min(k, len(children))
    expected = set()
    for subset in itertools.combinations(children, k):
        expected |= lang(translate_and(subset), _VOT_EVENTS, max_len=4)
    assert lang(translate_vot(k, children), _VOT_EVENTS, max_len=4) == expected


def _term_nodes(term):
    stack, count = [term], 0
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(v for v in (getattr(node, f.name) for f in dataclasses.fields(node))
                     if isinstance(v, Term))
    return count


def test_vot_term_grows_with_the_subsets_not_the_orderings():
    # The ordered unrolling was 12!/6! = 665,280 arms; the subsets are C(12,6) = 924.
    atoms = [plain_atom(f"a{i}") for i in range(12)]
    assert _term_nodes(translate_vot(6, atoms)) <= 3500


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------

def expected_phi1_body(tree):
    return Seq(
        Atom(ann(tree, "move_to_waypoint")),
        Seq(
            Atom(ann(tree, "inspect_waypoint")),
            Seq(
                Atom(ann(tree, "radiation_reading").with_extra_guard(
                    ann(tree, "radiation_high").guard)),
                Atom(
                    ann(tree, "move_away")
                    .with_extra_guard(ann(tree, "target_not_entrance").guard)
                    .with_extra_guard(ann(tree, "stayed_too_long").guard)
                ),
            ),
        ),
    )


def test_decompose_case_study_terms(tree):
    props = decompose(tree)
    assert [p.id for p in props] == ["phi1", "phi2", "phi3", "phi4"]
    assert [p.node_class for p in props] == ["fault", "fault", "attack", "attack"]

    phi1 = props[0]
    assert phi1.term == expected_phi1_body(tree)
    assert term_bind_vars(phi1.term) == ("Waypoint", "Value", "T1", "NewWp", "T2")

    # phi2 swaps only the first atom.
    phi2_body = Seq(Atom(ann(tree, "arrived_at_waypoint")), phi1.term.right)
    assert props[1].term == phi2_body

    # phi3/phi4 carry the goal-alteration tail instead of the timeout guard.
    phi3 = props[2].term
    tail = phi3.right.right.right
    assert isinstance(tail, Seq)
    assert tail.right == Atom(ann(tree, "goal_sent").with_extra_guard(parse_guard("NewWp != MBGoal")))


def test_decompose_policies(tree):
    props = decompose(tree)
    phi1_atoms = list(p.ann for p in _atoms_of(props[0].term))
    radiation = next(a for a in phi1_atoms if a.name == "radiation")
    assert radiation.effective_policy() == "skip"
    move_away = phi1_atoms[-1]
    assert move_away.effective_policy() == "violate"
    goal = list(_atoms_of(props[2].term))[-1].ann
    assert goal.effective_policy() == "violate"


def _atoms_of(term):
    from rvaft.terms import iter_atoms, Atom

    return [Atom(a) for a in iter_atoms(term)]


def _or_of_two_leaves():
    root = RvaftNode("root", gate=GateSpec("OR", ("a", "b")))
    return RvaftTree("toy", "root", {"root": root, "a": _leaf("a"), "b": _leaf("b")})


def test_decompose_smallest_tree():
    props = decompose(_or_of_two_leaves())
    assert [p.term for p in props] == [A, B]
    assert [p.path for p in props] == [("a",), ("b",)]


def _tree(name, gates, leaves="abcd", anns=None):
    """Gate nodes given as id -> (kind, children[, k]) over leaves that carry
    plain atoms unless ``anns`` maps their id to another annotation."""
    anns = anns or {}
    nodes = {nid: RvaftNode(nid, gate=GateSpec(*spec)) for nid, spec in gates.items()}
    nodes.update((nid, _leaf(nid, anns.get(nid))) for nid in leaves)
    return RvaftTree(name, next(iter(gates)), nodes)


def _nested_or_tree():
    return _tree("nested", {
        "root": ("SAND_LR", ("left", "right")),
        "left": ("OR", ("a", "b")),
        "right": ("OR", ("c", "d")),
    })


def test_decompose_nested_ors_cartesian():
    props = decompose(_nested_or_tree())
    # Exhaustive path walk: 2 x 2 choices.
    assert len(props) == 4
    heads = [(p.path[0], p.path[1]) for p in props]
    assert set(heads) == {("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")}
    # Deeper disjunction varies slowest.
    assert heads == [("a", "c"), ("b", "c"), ("a", "d"), ("b", "d")]


def test_branch_count_matches_arity_product(tree):
    or_arities = [
        len(n.gate.children)
        for n in tree.nodes.values()
        if n.gate is not None and n.gate.kind == "OR"
    ]
    expected = 1
    for a in or_arities:
        expected *= a
    assert len(decompose(tree)) == expected == 4


def test_unclassified_branch_is_an_error():
    a = RvaftNode("a", annotation=plain_atom("a").ann)  # neutral leaf
    b = RvaftNode("b", node_class="fault", annotation=plain_atom("b").ann)
    root = RvaftNode("root", gate=GateSpec("OR", ("a", "b")))
    tree = RvaftTree("toy", "root", {"root": root, "a": a, "b": b})
    with pytest.raises(UnclassifiedBranchError):
        decompose(tree)


def test_decompose_requires_runtime_ready():
    tree = toy = RvaftTree(
        "t",
        "root",
        {
            "root": RvaftNode("root", gate=GateSpec("OR", ("a", "b"))),
            "a": RvaftNode("a", node_class="fault"),
            "b": RvaftNode("b", node_class="fault"),
        },
    )
    with pytest.raises(ValueError, match="runtime-ready"):
        decompose(tree)


# ---------------------------------------------------------------------------
# Merge
# ---------------------------------------------------------------------------

def test_merge_case_study_shape(tree, spec):
    body = spec.merged
    # Head: (move \/ movebase_result), then inspect, radiation, move-away.
    assert body.left == Union(Atom(ann(tree, "move_to_waypoint")),
                              Atom(ann(tree, "arrived_at_waypoint")))
    assert body.right.left == Atom(ann(tree, "inspect_waypoint"))
    assert body.right.right.left == Atom(
        ann(tree, "radiation_reading").with_extra_guard(ann(tree, "radiation_high").guard))
    move_away = body.right.right.right.left
    assert move_away == Atom(
        ann(tree, "move_away").with_extra_guard(ann(tree, "target_not_entrance").guard))
    tail = body.right.right.right.right
    assert tail == Union(
        Check(ann(tree, "stayed_too_long").guard),
        Atom(ann(tree, "goal_sent").with_extra_guard(parse_guard("NewWp != MBGoal"))),
    )


def test_merge_idempotent_pair():
    """An OR whose two children carry equal annotations merges to one arm."""
    anns = {"xa": A.ann, "xb": B.ann, "ya": A.ann, "yb": B.ann}
    tree = _tree("pair", {
        "root": ("OR", ("x", "y")),
        "x": ("SAND_LR", ("xa", "xb")),
        "y": ("SAND_LR", ("ya", "yb")),
    }, leaves=anns, anns=anns)
    assert [p.term for p in decompose(tree)] == [Seq(A, B), Seq(A, B)]
    assert merge(tree) == Seq(A, B)


def test_merge_disjoint_alphabets_is_plain_union():
    merged = merge(_or_of_two_leaves())
    assert merged == Union(A, B)
    assert lang(merged, EVENTS[:2], 2) == lang(A, EVENTS[:2], 2) | lang(
        B, EVENTS[:2], 2
    )


def test_merge_translates_each_disjunction_once():
    """A sequence of m two-way ORs has 2^m branches and merges to m unions."""
    m = 7
    gates = {"root": ("SAND_LR", tuple(f"o{i}" for i in range(m)))}
    gates.update((f"o{i}", ("OR", (f"a{i}", f"b{i}"))) for i in range(m))
    tree = _tree("wide", gates, leaves=[f"{x}{i}" for i in range(m) for x in "ab"])
    assert len(decompose(tree)) == 2 ** m
    assert merge(tree) == translate_sand(
        [Union(plain_atom(f"a{i}"), plain_atom(f"b{i}")) for i in range(m)]
    )


@pytest.mark.parametrize("make_tree", [
    _nested_or_tree,
    # the OR is resolved at the gate above it, so the union sits above the
    # shuffle or the vote
    lambda: _tree("or-under-and", {
        "root": ("AND", ("o", "c")),
        "o": ("OR", ("a", "s")),
        "s": ("SAND_LR", ("b", "d")),
    }),
    lambda: _tree("or-under-vot", {
        "root": ("VOT", ("o", "c", "d"), 2),
        "o": ("OR", ("a", "b")),
    }),
    # one branch passes the shared OR twice and must choose alike both times
    lambda: _tree("shared-or", {
        "root": ("AND", ("x", "y")),
        "x": ("SAND_LR", ("o", "a")),
        "y": ("SAND_LR", ("o", "b")),
        "o": ("OR", ("c", "d")),
    }),
], ids=["nested-or", "or-under-and", "or-under-vot", "shared-or"])
def test_merged_language_is_the_union_of_branch_languages(make_tree):
    tree = make_tree()
    events = [plain_event(x) for x in "abccdd"]  # the pool is drawn without repeats
    merged = lang(merge(tree), events, 4)
    branches = set()
    for p in decompose(tree):
        branches |= lang(p.term, events, 4)
    assert merged == branches and merged


def test_merged_verdicts_match_any_branch_with_an_or_under_an_and():
    """Below a shuffle, the OR's arms must split into separate alternatives
    at the first event the shuffle takes. Were they one alternative, the
    violate-policy guard failure of arm x would drop arm y with it."""
    x = Atom(EventAnnotation("x", (("topic", "t_x"), ("v", Bind("X"))),
                             parse_guard("X < 1"), "violate"))
    y, c = plain_atom("y"), plain_atom("c")
    tree = _tree("or-under-and", {
        "root": ("AND", ("o", "c")),
        "o": ("OR", ("x", "y")),
    }, leaves="xyc", anns={"x": x.ann})
    merged = merge(tree)
    assert merged == Union(Shuffle(x, c), Shuffle(y, c))
    trace = [plain_event("c"), {"topic": "t_x", "v": 1.0}, plain_event("y")]
    monitors = [Monitor(merged)] + [Monitor(p.term) for p in decompose(tree)]
    for event in trace:
        for m in monitors:
            m.step(event)
        verdicts = [m.verdict for m in monitors]
        any_branch = (Verdict.SATISFIED if Verdict.SATISFIED in verdicts[1:]
                      else Verdict.UNKNOWN if Verdict.UNKNOWN in verdicts[1:]
                      else Verdict.VIOLATED)
        assert verdicts[0] is any_branch
    assert verdicts == [Verdict.SATISFIED, Verdict.VIOLATED, Verdict.SATISFIED]


def test_compile_flags(tree):
    with_merge = compile_tree(tree, do_merge=True)
    without = compile_tree(tree, do_merge=False)
    assert with_merge.merged is not None
    assert without.merged is None
    assert len(without.properties) == 4
    assert with_merge.topics == frozenset(
        {"command", "move_base/result", "radiation_sensor_plugin/sensor_0",
         "move_base/goal"}
    )


# ---------------------------------------------------------------------------
# Language-level gate laws
# ---------------------------------------------------------------------------

def test_or_and_commutative_and_associative_at_language_level():
    for make in (translate_or, translate_and):
        assert lang(make([A, B, C])) == lang(make([C, A, B])) == lang(make([B, C, A]))
        left_nested = make([make([A, B]), C])
        right_nested = make([A, make([B, C])])
        assert lang(left_nested) == lang(right_nested) == lang(make([A, B, C]))


def test_sand_associative_but_not_commutative():
    left_nested = translate_sand([translate_sand([A, B]), C])
    right_nested = translate_sand([A, translate_sand([B, C])])
    assert lang(left_nested) == lang(right_nested) == {(0, 1, 2)}
    assert lang(translate_sand([B, A, C])) == {(1, 0, 2)} != lang(
        translate_sand([A, B, C])
    )


def test_dag_sharing_expands_into_every_branch(tree):
    """The radiation chain has two parents in the node map but its atoms show
    up in all four branch terms."""
    from rvaft.terms import iter_atoms

    parents = [
        nid for nid, n in tree.nodes.items()
        if n.gate is not None and "radiation_episode" in n.gate.children
    ]
    assert len(parents) == 2
    for prop in decompose(tree):
        names = [a.name for a in iter_atoms(prop.term)]
        assert "inspect" in names and "radiation" in names


def test_fields_are_the_pattern_keys_read_on_each_topic(spec):
    assert spec.fields == {
        "command": {"topic", "name", "waypoint", "time"},
        "radiation_sensor_plugin/sensor_0": {"topic", "value", "time"},
        "move_base/result": {"topic", "waypoint", "result"},
        "move_base/goal": {"topic", "goal"},
    }
    assert set(spec.fields) == spec.topics


@pytest.mark.parametrize("pattern", [(("topic", Bind("T")),), (("v", 1.0),), (("topic", 5.0),)],
                         ids=["bound-topic", "no-topic", "number-topic"])
def test_fields_are_unknown_when_an_atom_has_no_literal_string_topic(pattern):
    wild = Atom(EventAnnotation("w", pattern))
    assert read_fields([A]) == {"t_a": {"topic"}}
    assert read_fields([Seq(A, wild)]) is None
