"""Plumbing forests: linking matrices, exact signatures, moves, and
structure transport at the forest level."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from spinmod import structures, surgery
from spinmod.corpus import e8_forest, random_forest, random_move_sequence
from spinmod.surgery import (ForestError, SignaturePair, apply_move,
                             blow_down, blow_up, chain, forest,
                             forest_signature, reverse, signature, stabilize,
                             structure_transport)


def test_linking_matrix_examples():
    assert forest([5]).linking_matrix() == ((5,),)
    hopf = forest([0, 0], [(0, 1, 1)])
    assert hopf.linking_matrix() == ((0, 1), (1, 0))
    tri = chain([1, 2, 3])
    assert tri.linking_matrix() == ((1, 1, 0), (1, 2, 1), (0, 1, 3))


def test_forest_validation():
    with pytest.raises(ForestError):
        forest([0, 0], [(0, 0, 1)])
    with pytest.raises(ForestError):
        forest([0, 0], [(0, 1, 1), (1, 0, -1)])
    with pytest.raises(ForestError):
        forest([0, 0, 0], [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    with pytest.raises(ForestError):
        forest([0, 0], [(0, 1, 2)])


def _component_count(n, pairs):
    """Trees of the graph by min-label propagation, independent of the
    walk under test."""
    label = list(range(n))
    changed = True
    while changed:
        changed = False
        for (u, v) in pairs:
            low = min(label[u], label[v])
            if label[u] != low or label[v] != low:
                label[u] = label[v] = low
                changed = True
    return len(set(label))


@st.composite
def edge_lists(draw):
    """n vertices and a set of distinct non-loop edges in either
    orientation, with signs; cycles allowed."""
    n = draw(st.integers(2, 8))
    pair = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)).map(
        lambda e: tuple(sorted((e[0], (e[0] + e[1]) % n))))
    edges = draw(st.dictionaries(pair, st.sampled_from((1, -1)),
                                 max_size=n + 1))
    flips = draw(st.lists(st.booleans(), min_size=len(edges),
                          max_size=len(edges)))
    return n, [(v, u, s) if flip else (u, v, s)
               for ((u, v), s), flip in zip(edges.items(), flips)]


@settings(max_examples=200, deadline=None)
@given(edge_lists())
def test_forest_rejects_exactly_the_cyclic_edge_lists(case):
    # a graph is a forest iff it has n - |E| components
    n, edges = case
    if _component_count(n, [e[:2] for e in edges]) == n - len(edges):
        assert forest([0] * n, edges).n == n
    else:
        with pytest.raises(ForestError):
            forest([0] * n, edges)


def test_rooted_view_is_leaves_first_with_least_roots():
    rng = random.Random(12)
    for _ in range(300):
        n = rng.randint(1, 12)
        label = list(range(n))
        rng.shuffle(label)
        f = forest([0] * n, [(label[rng.randrange(v)], label[v],
                              rng.choice((1, -1)))
                             for v in range(1, n) if rng.random() < 0.7])
        first = rng.randrange(n)
        for view, pinned in ((f.rooted, None), (f.rooted_at(first), first)):
            parent, sign, order = view
            assert sorted(order) == list(range(n))
            pos = {v: i for i, v in enumerate(order)}
            trees = {}
            for v in range(n):
                p, root = parent[v], v
                if p < 0:
                    assert sign[v] == 0
                else:
                    assert pos[v] < pos[p]
                    assert (min(v, p), max(v, p), sign[v]) in f.edges
                while parent[root] >= 0:
                    root = parent[root]
                trees.setdefault(root, []).append(v)
            assert len(trees) == n - len(f.edges)
            for root, members in trees.items():
                assert root == (pinned if pinned in members
                                else min(members))
    assert f.rooted is f.rooted
    # a root that is not a vertex leaves the default rooting
    assert f.rooted_at(-1) == f.rooted_at(n) == f.rooted


def test_signature_examples():
    assert signature(((0, 1), (1, 0))) == SignaturePair(1, 1, 0)
    assert signature(((7,),)).b_plus == 1
    assert signature(((-2,),)).b_minus == 1
    assert signature(((0,),)).nullity == 1
    sig = signature(e8_forest().linking_matrix())
    assert (sig.b_plus, sig.b_minus, sig.nullity) == (8, 0, 0)


@pytest.mark.parametrize("framings, edges, expected", [
    ([], [], (0, 0, 0)),
    ([0], [], (0, 0, 1)),                                # zero isolated vertex
    ([0, 0], [(0, 1, 1)], (1, 1, 0)),                    # zero leaf, live root
    ([1, 1], [(0, 1, -1)], (1, 0, 1)),                   # root pivot 1 - 1 = 0
    ([1, 0, 0], [(0, 1, 1), (0, 2, 1)], (1, 1, 1)),      # two zero leaves
    ([2, 0, 0], [(0, 1, 1), (1, 2, -1)], (2, 1, 0)),     # the cut drops out
    # a zero leaf under a cut parent, then a zero root
    ([0, 0, 0, 0], [(0, 1, 1), (1, 2, 1), (1, 3, 1)], (1, 1, 2)),
    # two cuts, one of them at the root
    ([-1, 0, 5, 0, 0], [(0, 1, 1), (1, 2, 1), (1, 3, 1), (0, 4, -1)],
     (3, 2, 0)),
])
def test_forest_signature_hand_cases(framings, edges, expected):
    f = forest(framings, edges)
    assert forest_signature(f) == SignaturePair(*expected)
    assert signature(f.linking_matrix()) == SignaturePair(*expected)


def random_weighted_forest(rng, max_vertices=9):
    """A symmetric matrix whose off-diagonal support is a forest on
    shuffled labels (several trees and isolated vertices): diagonal in
    -3..3, edge weights +-1..+-3."""
    n = rng.randint(0, max_vertices)
    label = list(range(n))
    rng.shuffle(label)
    mat = [[0] * n for _ in range(n)]
    for v in range(n):
        mat[label[v]][label[v]] = rng.randint(-3, 3)
        if v and rng.random() < 0.7:
            u = rng.randrange(v)
            mat[label[u]][label[v]] = mat[label[v]][label[u]] = \
                rng.choice([1, 2, 3]) * rng.choice([1, -1])
    return tuple(map(tuple, mat))


def test_forest_signature_matches_signature_on_random_forests():
    # |framing| <= 3 makes zero pivots, hence cuts and nullity, common;
    # plumbing forests (edge terms 1) and weighted forest-supported
    # matrices (edge terms L_pc L_cp) take the same leaf elimination
    rng = random.Random(2014)
    degenerate = 0
    for _ in range(10_000):
        f = random_forest(rng, 9, 3)
        sig = forest_signature(f)
        assert sig == signature(f.linking_matrix()), f
        degenerate += sig.nullity > 0
    assert degenerate > 1_000
    degenerate = 0
    for _ in range(10_000):
        mat = random_weighted_forest(rng)
        tree = surgery._support_order(mat)
        assert tree is not None
        sig = surgery._matrix_signature(mat, tree)
        assert sig == signature(mat), mat
        degenerate += sig.nullity > 0
    assert degenerate > 1_000


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_signature_congruence_invariance(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        mat[i][i] = rng.randint(-4, 4)
        for j in range(i + 1, n):
            v = rng.choice([0, 0, 1, -1, 2])
            mat[i][j] = mat[j][i] = v
    # random unimodular P as a product of elementary row additions
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(6):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.choice([-2, -1, 1, 2])
            for k in range(n):
                p[i][k] += c * p[j][k]

    def matmul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    pt = [[p[j][i] for j in range(n)] for i in range(n)]
    conj = matmul(matmul(pt, mat), p)
    assert signature(tuple(map(tuple, conj))) == signature(tuple(map(tuple, mat)))


def test_stabilize_is_block_diagonal():
    f = chain([2, 3])
    for eps in (1, -1):
        g = apply_move(f, stabilize(eps))
        mat = g.linking_matrix()
        assert mat[2][2] == eps
        assert mat[0][2] == mat[1][2] == 0
        assert tuple(tuple(row[:2]) for row in mat[:2]) == f.linking_matrix()


def test_blow_up_blow_down_roundtrip():
    f = forest([3, -1, 0], [(0, 1, -1)])
    for u in range(f.n):
        for eps in (1, -1):
            g = apply_move(f, blow_up(u, eps))
            assert g.framings[u] == f.framings[u] + eps
            assert g.framings[-1] == eps
            back = apply_move(g, blow_down(g.n - 1))
            assert back == f


def test_blow_down_of_isolated_vertex_is_destabilization():
    f = forest([2, 1])
    g = apply_move(f, blow_down(1))
    assert g == forest([2])


def test_blow_down_legality():
    with pytest.raises(ForestError):
        apply_move(forest([3]), blow_down(0))
    center = forest([1, 0, 0], [(0, 1, 1), (0, 2, 1)])
    with pytest.raises(ForestError):
        apply_move(center, blow_down(0))


def test_reverse_flips_incident_edge_signs():
    f = forest([0, 0, 0], [(0, 1, 1), (1, 2, -1)])
    g = apply_move(f, reverse(1))
    assert g.edges == ((0, 1, -1), (1, 2, 1))
    assert apply_move(g, reverse(1)) == f


def test_transport_examples():
    f = forest([2])
    # spin stabilization appends d/2
    s = structure_transport("spin", f, stabilize(1), (0,), 2)
    assert s == (0, 1)
    h = structure_transport("coh", f, stabilize(-1), (1,), 2)
    assert h == (1, 0)
    s2 = structure_transport("spin", forest([2, 1]), reverse(0), (0, 1), 2)
    assert s2 == (0, 1)
    hm = structure_transport("hom", forest([0]), reverse(0), (2,), 5)
    assert hm == (3,)


def _structure_set(kind, mat, d):
    if kind == "spin":
        return structures.spin_solutions(mat, d).solutions
    if kind == "coh":
        return structures.cohomology_classes(mat, d).solutions
    if kind == "chern":
        return structures.chern_representatives(mat, d)
    return structures.homology_representatives(mat, d)


def _canonical_class(kind, mat, d, vec):
    """Lex-minimal representative of the class of vec (coset kinds)."""
    if kind in ("spin", "coh"):
        return vec
    if kind == "chern":
        sub = structures.image_subgroup(mat, 2 * d, scale=2)
        mod = 2 * d
    else:
        sub = structures.image_subgroup(mat, d)
        mod = d
    return min(tuple((a + b) % mod for a, b in zip(vec, s)) for s in sub)


@pytest.mark.parametrize("kind,d", [("spin", 2), ("spin", 4), ("coh", 2),
                                    ("coh", 3), ("chern", 2), ("hom", 3)])
def test_transport_is_a_structure_set_bijection(kind, d):
    rng = random.Random(hash((kind, d)) & 0xFFFF)
    for _ in range(12):
        f = random_forest(rng, max_vertices=4, max_framing=3)
        mat = f.linking_matrix()
        els = _structure_set(kind, mat, d)
        if not els:
            continue
        moves, g = random_move_sequence(rng, f, rng.randint(1, 4),
                                        max_vertices=6)
        mat2 = g.linking_matrix()
        out = []
        for e in els:
            cur, ff = e, f
            for mv in moves:
                cur = structure_transport(kind, ff, mv, cur, d)
                ff = apply_move(ff, mv)
            out.append(cur)
        target = _structure_set(kind, mat2, d)
        canon = sorted(_canonical_class(kind, mat2, d, e) for e in out)
        assert canon == sorted(target), (kind, d, f, moves)


def test_blow_down_with_opposite_edge_sign():
    # a +1-framed leaf attached by a -1 edge still blows down (lk^2 = 1)
    f = forest([3, 1], [(0, 1, -1)])
    g = apply_move(f, blow_down(1))
    assert g == forest([2])
    d = 2
    for s in structures.spin_solutions(f.linking_matrix(), d).solutions:
        out = structure_transport("spin", f, blow_down(1), s, d)
        assert out in structures.spin_solutions(g.linking_matrix(), d).solutions


def test_transport_roundtrip_on_structures():
    f = chain([2, 0, 3])
    d = 2
    sols = structures.spin_solutions(f.linking_matrix(), d).solutions
    for u in range(f.n):
        mv = blow_up(u, -1)
        g = apply_move(f, mv)
        down = blow_down(g.n - 1)
        for s in sols:
            there = structure_transport("spin", f, mv, s, d)
            back = structure_transport("spin", g, down, there, d)
            assert back == s


@pytest.mark.parametrize("kind", ["spin", "coh", "chern", "hom"])
@pytest.mark.parametrize("f, move", [
    (chain([2, 3]), blow_down(0)),
    (chain([2, 1, 2]), blow_down(1)),
    (chain([2, 3]), stabilize(2)),
    (chain([2, 3]), reverse(2)),
], ids=["framing-2", "degree-2", "stabilize-2", "out-of-range"])
def test_transport_refuses_an_illegal_move(kind, f, move):
    element = _structure_set(kind, f.linking_matrix(), 2)[0]
    with pytest.raises(ForestError):
        structure_transport(kind, f, move, element, 2)


@pytest.mark.parametrize("kind", ["spin", "coh", "chern", "hom"])
@pytest.mark.parametrize("d", [0, -3])
def test_transport_refuses_a_modulus_below_one(kind, d):
    with pytest.raises(structures.StructureError):
        structure_transport(kind, forest([2]), stabilize(1), (0,), d)


@pytest.mark.parametrize("kind, f, move, element", [
    ("spin", forest([1]), stabilize(1), (0,)),
    ("spin", forest([1, 1]), blow_down(1), (0, 1)),
    ("chern", forest([1]), reverse(0), (0,)),
    ("nope", forest([1]), reverse(0), (1,)),
    ("hom", forest([1]), reverse(0), (1, 0)),
], ids=["spin-non-solution", "spin-isolated-blow-down", "chern-parity",
        "unknown-kind", "length"])
def test_transport_validates_elements(kind, f, move, element):
    with pytest.raises(structures.StructureError):
        structure_transport(kind, f, move, element, 2)


def test_isolated_blow_down_reduces_the_element():
    assert structure_transport("hom", forest([0, 1]), blow_down(1),
                               (7, 1), 3) == (1,)


def test_spin_blow_up_on_a_long_chain_reads_no_linking_matrix(monkeypatch):
    def refuse(self):
        raise AssertionError("transport built the dense linking matrix")

    f = chain([2] * 5000)
    monkeypatch.setattr(surgery.PlumbingForest, "linking_matrix", refuse)
    out = structure_transport("spin", f, blow_up(4999, 1), (0,) * 5000, 2)
    assert out == (0,) * 5000 + (1,)
