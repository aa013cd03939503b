"""Invariant evaluation: colored values, oracle agreement, normalization,
refined tables, vanishing, sum formulas, Gauss-sum invariants and the
decomposition formula."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from spinmod.category import kirby_color
from spinmod.constructions import abelian_category, sl2_category
from spinmod.corpus import corpus, e8_forest, random_forest
from spinmod.cyclo import CycloField, cyclo_field, make_root
from spinmod import invariants, structures, surgery, verify
from spinmod.invariants import (Evaluator, InvariantError, MooError,
                                MooParams, NormalizationError,
                                RefinementError, decomposition_check,
                                decomposition_data, delta_weight, moo,
                                moo_refined)
from spinmod.budget import ENUMERATION_LIMIT, SizeLimitError
from spinmod.structures import as_matrix
from spinmod.surgery import apply_move, chain, forest, forest_signature, \
    reverse, signature, stabilize


@pytest.fixture(scope="module")
def ev5():
    return Evaluator(sl2_category(5))


@pytest.fixture(scope="module")
def ev6():
    return Evaluator(sl2_category(6))


@pytest.fixture(scope="module")
def ev8():
    return Evaluator(sl2_category(8))


def test_colored_examples(ev5):
    cat = ev5.cat
    hopf = forest([0, 0], [(0, 1, 1)])
    for a in range(cat.size):
        for b in range(cat.size):
            assert ev5.eval_colored(hopf, [a, b]) == cat.smat[a][b]
    single = forest([4])
    for lam in range(cat.size):
        assert ev5.eval_colored(single, [lam]) \
            == cat.twist[lam] ** 4 * cat.qdim[lam]
    tree = forest([1, -2, 3], [(0, 1, 1), (1, 2, -1)])
    assert ev5.eval_colored(tree, [0, 0, 0]).is_one()


def test_rerooting_invariance(ev5):
    rng = random.Random(2)
    for _ in range(25):
        f = random_forest(rng, max_vertices=10, max_framing=3)
        colors = [rng.randrange(ev5.cat.size) for _ in range(f.n)]
        values = {ev5.eval_colored(f, colors, root=r) for r in range(f.n)}
        assert len(values) == 1


def test_delta_weights_reduce_to_colored(ev5):
    cat = ev5.cat
    hopf = forest([0, 0], [(0, 1, -1)])
    for a in range(cat.size):
        for b in range(cat.size):
            w = [delta_weight(cat, a), delta_weight(cat, b)]
            assert ev5.eval_weighted(hopf, w) == ev5.eval_colored(hopf, [a, b])


def test_weighted_oracle_agreement():
    rng = random.Random(31)
    cats = [sl2_category(5), abelian_category(3, make_root(3, 1))]
    evs = [Evaluator(c) for c in cats]
    for _ in range(40):
        i = rng.randrange(len(cats))
        cat, ev = cats[i], evs[i]
        f = random_forest(rng, max_vertices=4, max_framing=3)
        weights = [kirby_color(cat, "plain")] * f.n
        assert ev.eval_weighted(f, weights) == ev.brute_weighted(f, weights)


def test_brute_weighted_never_calls_the_packed_product(monkeypatch):
    # the oracle stays independent of the fold's packed S-transform
    cat = sl2_category(6)
    ev = Evaluator(cat)
    rng = random.Random(5)
    cases = []
    for _ in range(6):
        f = random_forest(rng, max_vertices=4, max_framing=3)
        weights = [kirby_color(cat, "plain")] * f.n
        cases.append((f, weights, ev.eval_weighted(f, weights)))

    def refuse(*args):
        raise AssertionError("brute_weighted reached CycloField.vecmat")

    monkeypatch.setattr(CycloField, "vecmat", refuse)
    for f, weights, want in cases:
        assert ev.brute_weighted(f, weights) == want
    with pytest.raises(AssertionError, match="vecmat"):
        Evaluator(cat).eval_weighted(chain([1, 2]),
                                     [kirby_color(cat, "plain")] * 2)


def test_brute_weighted_is_the_sum_of_colored_values(ev5):
    # the oracle against its definition: every coloring, weighted, by
    # the product formula; one weight vector has a single zero entry and
    # one has none, which makes the sum zero
    cat = ev5.cat
    one, zero = cat.field.one, cat.field.zero
    rng = random.Random(17)
    for _ in range(8):
        f = random_forest(rng, max_vertices=3, max_framing=3)
        vecs = [tuple(make_root(cat.field.order, rng.randrange(40))
                      * rng.randint(-2, 2) for _ in range(cat.size))
                for _ in range(f.n)]
        vecs[0] = (zero,) + (one,) * (cat.size - 1)
        want = zero
        for colors in product(range(cat.size), repeat=f.n):
            term = ev5.eval_colored(f, colors)
            for vec, lam in zip(vecs, colors):
                term = term * vec[lam]
            want = want + term
        assert ev5.brute_weighted(f, vecs) == want
        assert ev5.brute_weighted(f, [(zero,) * cat.size] + vecs[1:]) == 0


def repeated_subtree_forests():
    """Forests whose subtrees repeat: a star with equal leaves beside its
    leaf as an isolated vertex; a tree with one two-vertex branch hanging
    by a +1 and by a -1 edge beside the same branch as a tree of its own;
    and E8."""
    star = forest([2, 1, 1, 1, 1], [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
    shared = forest([2, 3, 1, 3, 1, 3, 1],
                    [(0, 1, 1), (1, 2, 1), (0, 3, -1), (3, 4, 1), (5, 6, 1)])
    return [star, shared, e8_forest()]


def uniform_weights(cat):
    """Plain, every graded and dual color and every delta weight."""
    from spinmod.category import grading, invertibles
    grad = grading(cat, invertibles(cat))
    return ([kirby_color(cat, "plain")]
            + [kirby_color(cat, kind, p, grad) for kind in ("graded", "dual")
               for p in range(grad.modulus)]
            + [delta_weight(cat, lam) for lam in range(cat.size)])


ATOM_CATEGORIES = pytest.mark.parametrize(
    "make", [lambda: sl2_category(5), lambda: sl2_category(8),
             lambda: abelian_category(3, make_root(3, 1))],
    ids=["sl2_5", "sl2_8", "abelian_3"])


@ATOM_CATEGORIES
def test_vertex_atom_is_the_direct_product(make):
    cat = make()
    ev = Evaluator(cat)
    for lam in range(cat.size):
        for framing in range(-4, 5):
            for k in range(-1, 4):
                want = cat.twist[lam] ** framing * cat.qdim[lam] ** -k
                assert ev._scale(lam, framing, k) == want, (lam, framing, k)


def test_vertex_atom_refuses_a_zero_dimension_only_when_inverted():
    cat = sl2_category(4)
    qdim = list(cat.qdim)
    qdim[2] = cat.field.zero
    broken = type(cat)(cat.name, cat.field, cat.labels, cat.dual, qdim,
                       cat.twist, cat.smat, cat.fusion)
    ev = Evaluator(broken)
    from spinmod.invariants import ZeroDimensionError
    for framing in (-2, 0, 3):
        assert ev._scale(2, framing, -1).is_zero()
        assert ev._scale(2, framing, 0) == cat.twist[2] ** framing
        for k in (1, 2, 3):
            with pytest.raises(ZeroDimensionError):
                ev._scale(2, framing, k)
        assert ev._scale(1, framing, 2) == \
            cat.twist[1] ** framing * cat.qdim[1] ** -2


@ATOM_CATEGORIES
def test_unknot_value_is_the_one_vertex_evaluation(make):
    # plain, graded, dual and delta weights, whose entries equal qdim or
    # not, and random integer weights
    cat = make()
    ev = Evaluator(cat)
    rng = random.Random(11)
    weights = uniform_weights(cat) + [
        tuple(cat.field.from_integer(rng.randint(-3, 3))
              for _ in range(cat.size)) for _ in range(4)]
    for w in weights:
        for framing in range(-3, 4):
            one_vertex = forest([framing])
            value = ev.unknot_value(framing, w)
            assert value == ev.eval_weighted(one_vertex, [w])
            assert value == ev.brute_weighted(one_vertex, [w])
    assert ev.denominator(1) == ev.unknot_value(1, ev.plain_color())
    assert ev.denominator(-1) == ev.unknot_value(-1, ev.plain_color())


# abelian_3 has non-self-dual labels, so the edge sign changes a message
@pytest.mark.parametrize("make", [lambda: sl2_category(4),
                                  lambda: abelian_category(3, make_root(3, 1))],
                         ids=["sl2_4", "abelian_3"])
def test_warm_subtree_store_matches_fresh_and_brute(make):
    cat = make()
    warm = Evaluator(cat)
    colors = uniform_weights(cat)
    rng = random.Random(5)
    for f in repeated_subtree_forests():
        mixed = [[rng.choice(colors) for _ in range(f.n)] for _ in range(2)]
        for weights in [[w] * f.n for w in colors] + mixed:
            got = warm.eval_weighted(f, weights)
            assert got == Evaluator(cat).eval_weighted(f, weights)
            assert got == warm.brute_weighted(f, weights)


def test_subtree_store_interns_by_content():
    # the star stores its leaf once under the root and once as a root;
    # the shared forest has 7 vertices but 5 distinct rooted subtrees: the
    # leaf (three times), the branch under +1, under -1 and as a root, and
    # the root of the larger tree
    cat = abelian_category(3, make_root(3, 1))
    star, shared, _ = repeated_subtree_forests()
    for weight in uniform_weights(cat):
        for f, distinct in ((star, 3), (shared, 5)):
            ev = Evaluator(cat)
            ev.eval_weighted(f, [weight] * f.n)
            assert len(ev._subtrees) == distinct


class _BoundedStore(dict):
    """A subtree store that fails the moment it outgrows `limit`."""

    def __init__(self, limit):
        super().__init__()
        self.limit = limit

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        assert len(self) <= self.limit


@pytest.mark.parametrize("limit", [1, 2, 3])
def test_subtree_store_limit(monkeypatch, limit):
    # chains of equal vertices nest equal keys, so an id handed out twice
    # across a clear would serve one subtree's message for another
    cat = abelian_category(3, make_root(3, 1))
    colors = uniform_weights(cat)
    forests = repeated_subtree_forests() + [chain([1] * 6), chain([2] * 5)]
    cases = [(f, [w] * f.n) for f in forests for w in colors]
    expected = [Evaluator(cat).eval_weighted(f, ws) for f, ws in cases]
    # the budget counts field coefficients: labels x degree per entry
    per_entry = cat.size * cat.field.degree
    monkeypatch.setattr(invariants, "SUBTREE_STORE_BUDGET",
                        limit * per_entry + per_entry - 1)
    ev = Evaluator(cat)
    assert ev._store_limit == limit
    ev._subtrees = _BoundedStore(limit)
    for _ in range(2):
        assert [ev.eval_weighted(f, ws) for f, ws in cases] == expected


def test_subtree_store_limit_scales_with_the_field(monkeypatch):
    # a larger field holds fewer entries, and never fewer than one
    small, large = Evaluator(sl2_category(4)), Evaluator(sl2_category(24))
    for ev in (small, large):
        cat = ev.cat
        assert ev._store_limit == (invariants.SUBTREE_STORE_BUDGET
                                   // (cat.size * cat.field.degree))
    assert large._store_limit < small._store_limit
    monkeypatch.setattr(invariants, "SUBTREE_STORE_BUDGET", 1)
    assert Evaluator(sl2_category(4))._store_limit == 1


def relabelled_forest(rng, n):
    """A forest on n vertices under a random labelling: several trees,
    isolated vertices, and parents with larger labels than their
    children."""
    label = list(range(n))
    rng.shuffle(label)
    return forest([rng.randint(-3, 3) for _ in range(n)],
                  [(label[rng.randrange(v)], label[v], rng.choice((1, -1)))
                   for v in range(1, n) if rng.random() < 0.6])


@pytest.mark.parametrize("make", [lambda: sl2_category(5),
                                  lambda: abelian_category(3, make_root(3, 1))],
                         ids=["sl2_5", "abelian_3"])
def test_weighted_pass_on_relabelled_forests(make):
    from spinmod.category import grading, invertibles
    cat = make()
    ev = Evaluator(cat)
    grad = grading(cat, invertibles(cat))
    colors = [kirby_color(cat, "plain")] + [
        kirby_color(cat, kind, p, grad) for kind in ("graded", "dual")
        for p in range(grad.modulus)]
    rng = random.Random(17)
    field = cat.field
    shapes = set()
    for _ in range(30):
        f = relabelled_forest(rng, rng.randint(1, 5))
        parent, _, _ = f.rooted
        shapes.add((parent.count(-1) > 1,
                    any(f.degree(v) == 0 for v in range(f.n)),
                    any(p > v for v, p in enumerate(parent))))
        random_weights = [tuple(field.zeta(rng.randrange(field.order))
                                * rng.randint(-2, 2) for _ in range(cat.size))
                          for _ in range(f.n)]
        for weights in ([rng.choice(colors) for _ in range(f.n)],
                        random_weights):
            assert ev.eval_weighted(f, weights) \
                == ev.brute_weighted(f, weights)
    # the sample covers several trees, isolated vertices and parents with
    # larger labels, all in one forest
    assert (True, True, True) in shapes


def test_wrt_basics(ev5):
    assert ev5.wrt(forest([])).exact.is_one()
    assert ev5.wrt(forest([1])).exact.is_one()
    assert ev5.wrt(forest([-1])).exact.is_one()
    cat = ev5.cat
    global_dim = cat.field.zero
    for lam in range(cat.size):
        global_dim = global_dim + cat.qdim[lam] * cat.qdim[lam]
    assert ev5.wrt(forest([0])).exact == global_dim


def test_invariant_value_approx_shadow(ev5):
    val = ev5.wrt(chain([2, 3]))
    assert abs(val.approx - val.exact.embed_complex()) < 1e-9
    assert val.b_plus == 2 and val.b_minus == 0


def test_normalization_error_for_non_modular_category():
    # twists (1, -1) make the +-1-framed unknot evaluate to zero
    cat = abelian_category(2, make_root(2, 1))
    ev = Evaluator(cat)
    assert ev.denominator(1).is_zero()
    with pytest.raises(NormalizationError):
        ev.wrt(forest([1]))


def test_graded_unknot_vanishing(ev8, ev6):
    grad8 = ev8.structure_grading(2, spin=True)
    grad6 = ev6.structure_grading(2, spin=False)
    for sign in (1, -1):
        assert ev8.unknot_value(sign, ev8.graded_color(grad8, 0, 1)).is_zero()
        assert not ev8.unknot_value(sign, ev8.graded_color(grad8, 1, 1)).is_zero()
        assert ev6.unknot_value(sign, ev6.graded_color(grad6, 1, 1)).is_zero()
        assert not ev6.unknot_value(sign, ev6.graded_color(grad6, 0, 1)).is_zero()


def test_wrt_spin_single_vertex(ev8):
    table = ev8.wrt_spin(forest([1]), 2)
    assert set(table.entries) == {(1,)}
    assert table.entries[(1,)].exact.is_one()


def test_wrt_spin_sum_formula(ev8):
    rng = random.Random(12)
    manifolds = [forest([0]), chain([2, 2]), e8_forest()] \
        + [random_forest(rng, max_vertices=5) for _ in range(10)]
    for f in manifolds:
        table = ev8.wrt_spin(f, 2)
        assert table.total() == ev8.wrt(f).exact


def test_wrt_spin_two_entries_on_s1xs2(ev8):
    table = ev8.wrt_spin(forest([0]), 2)
    assert len(table.entries) == 2
    assert table.total() == ev8.wrt(forest([0])).exact


def test_wrt_spin_requires_spin_category(ev6):
    with pytest.raises(RefinementError):
        ev6.wrt_spin(forest([1]), 2)


def test_wrt_cohomology(ev6, ev8):
    table = ev6.wrt_cohomology(forest([1]), 2)
    assert set(table.entries) == {(0,)}
    assert table.entries[(0,)].exact.is_one()
    rng = random.Random(13)
    for f in [forest([0]), chain([0, 2])] \
            + [random_forest(rng, max_vertices=5) for _ in range(8)]:
        table = ev6.wrt_cohomology(f, 2)
        assert table.total() == ev6.wrt(f).exact
    with pytest.raises(RefinementError):
        ev8.wrt_cohomology(forest([1]), 2)


def test_wrt_homology(ev6):
    table = ev6.wrt_homology(forest([1]), 2)
    assert set(table.entries) == {(0,)}
    assert table.entries[(0,)].exact.is_one()
    table0 = ev6.wrt_homology(forest([0]), 2)
    assert len(table0.entries) == 2
    # partition: d^n * sum of class values = sum over all of (Z_d)^n
    f = chain([2, 0])
    d = 2
    grad = ev6.structure_grading(d, spin=False)
    total = ev6.cat.field.zero
    from itertools import product
    for eps in product(range(d), repeat=f.n):
        weights = [ev6.dual_color(grad, v, 1) for v in eps]
        total = total + ev6.eval_weighted(f, weights)
    table = ev6.wrt_homology(f, d)
    sig = signature(f.linking_matrix())
    lhs = ev6.cat.field.zero
    for val in table.entries.values():
        lhs = lhs + val.exact
    rhs = ev6.normalize(total.scale(Fraction(1, d ** f.n)), sig).exact
    assert lhs == rhs


def test_dual_color_orientation_reversal_identity(ev6):
    # replacing v by -v on a reversed vertex leaves the value unchanged
    grad = ev6.structure_grading(2, spin=False)
    f = chain([2, 3])
    g = apply_move(f, reverse(0))
    for v0 in range(2):
        for v1 in range(2):
            w_f = [ev6.dual_color(grad, v0, 1), ev6.dual_color(grad, v1, 1)]
            w_g = [ev6.dual_color(grad, -v0 % 2, 1), ev6.dual_color(grad, v1, 1)]
            assert ev6.eval_weighted(f, w_f) == ev6.eval_weighted(g, w_g)


def test_wrt_spinc_override_single_vertex(ev8):
    # exploration mode: 2d = 2 spin structure, d = 1
    table = ev8.wrt_spinc(forest([1]), 1, override=True)
    assert len(table.entries) == 1
    val = next(iter(table.entries.values()))
    assert val.exact.is_one()
    # stabilization invariance of the multiset in the explored case
    t2 = ev8.wrt_spinc(apply_move(forest([1]), stabilize(1)), 1, override=True)
    assert t2.multiset() == table.multiset()


def test_wrt_spinc_requires_even_d(ev8):
    with pytest.raises(RefinementError):
        ev8.wrt_spinc(forest([1]), 1)
    with pytest.raises(RefinementError):
        ev8.wrt_spinc(forest([1]), 2)  # sl2(8) is not 4-spin


def coset_table_oracle(ev, kind, f, d, e_k=1):
    """The coset-by-coset double loop: for each class, the dual-color
    evaluation summed over the whole subgroup, |classes| * |Im L| forest
    evaluations in all."""
    spinc = kind == "spinc"
    mod = 2 * d if spinc else d
    grad = ev.structure_grading(mod, spin=spinc, e_k=e_k)
    mat = f.linking_matrix()
    sig = signature(mat)
    cosets = (structures.chern_vectors if spinc
              else structures.homology_classes)(mat, d)
    scale = Fraction((-1) ** f.n if spinc else 1, d ** f.n)
    colors = [ev.dual_color(grad, v, e_k) for v in range(mod)]
    entries = {}
    for rep in cosets.classes:
        acc = ev.cat.field.zero
        for shift in cosets.subgroup:
            weights = [colors[(a + b) % mod] for a, b in zip(rep, shift)]
            acc = acc + ev.eval_weighted(f, weights)
        entries[rep] = ev.normalize(acc.scale(scale), sig).exact
    return entries


def _exact_entries(table):
    return [(k, v.exact) for k, v in table.entries.items()]


# every modulus of a non-spin refinable structure among the categories the
# package builds: sl2(r) for r = 2 mod 4 (d = 2), the pointed categories
# with trivial twists (d | n); max_vertices keeps the oracle's d^n small
HOM_CASES = [
    ("sl2_6", lambda: sl2_category(6), 2, 1, 8),
    ("sl2_10", lambda: sl2_category(10), 2, 1, 7),
    ("abelian_3", lambda: abelian_category(3, cyclo_field(3).one), 3, 1, 7),
    ("abelian_4_d2", lambda: abelian_category(4, cyclo_field(4).one), 2, 1, 8),
    ("abelian_4", lambda: abelian_category(4, cyclo_field(4).one), 4, 1, 5),
    ("abelian_4_e3", lambda: abelian_category(4, cyclo_field(4).one), 4, 3, 5),
    ("abelian_6", lambda: abelian_category(6, cyclo_field(6).one), 6, 1, 4),
]


@pytest.mark.parametrize("name,make,d,e_k,max_n", HOM_CASES,
                         ids=[c[0] for c in HOM_CASES])
def test_hom_table_matches_coset_oracle(name, make, d, e_k, max_n):
    ev = Evaluator(make())
    rng = random.Random(f"hom/{name}")
    trees = [forest([0]), forest([0, 0]), chain([2, 0]), chain([d, d])]
    trees += [random_forest(rng, max_vertices=max_n, max_framing=4)
              for _ in range(12)]
    for f in trees:
        table = ev.wrt_homology(f, d, e_k=e_k)
        assert _exact_entries(table) \
            == list(coset_table_oracle(ev, "hom", f, d, e_k).items())


@pytest.mark.parametrize("r", [8, 12, 16])
def test_spinc_override_table_matches_coset_oracle(r):
    ev = Evaluator(sl2_category(r))
    rng = random.Random(r)
    trees = [forest([0]), forest([0, 0]), chain([1, 2]), chain([0, 3])]
    trees += [random_forest(rng, max_vertices=8, max_framing=4)
              for _ in range(12)]
    for f in trees:
        table = ev.wrt_spinc(f, 1, override=True)
        assert _exact_entries(table) \
            == list(coset_table_oracle(ev, "spinc", f, 1).items())


def test_hom_table_on_a_30_vertex_tree(ev6):
    # the old walk refused (Z_2)^30; the table needs |ker| evaluations
    rng = random.Random(30)
    f = forest([rng.randint(-4, 4) for _ in range(30)],
               [((v - 1) // 2, v, rng.choice([1, -1])) for v in range(1, 30)])
    mat = f.linking_matrix()
    table = ev6.wrt_homology(f, 2)
    assert len(table.entries) == structures.coker_count(mat, 2)
    # the characters of the classes sum to |coker| at delta = 0 only
    grad = ev6.structure_grading(2, spin=False)
    degree0 = ev6.eval_weighted(f, [ev6.graded_color(grad, 0, 1)] * f.n)
    assert table.total() == ev6.normalize(degree0, signature(mat)).exact


def test_generalized_spin_product_is_refused_before_any_evaluation(
        monkeypatch):
    # each set has 2^12 points of 12 coordinates, within budget; their
    # product, 2^24 points, is not
    ev = Evaluator(sl2_category(6))
    t = ev.structure_grading(2, spin=False).generator
    f = forest([0] * 12)
    evaluated = []
    monkeypatch.setattr(Evaluator, "eval_weighted",
                        lambda self, *args: evaluated.append(args))
    # building the product at all would take gigabytes: fail first
    monkeypatch.setattr(invariants, "product", _unexpected_path)
    with pytest.raises(SizeLimitError, match="exceeds size limit"):
        ev.wrt_generalized_spin(f, [t, t])
    # three sets of 2^7 points on 7 vertices: 2^21 points, but each has
    # 3 * 7 coordinates, so the output is 21 * 2^21 > 2^24
    with pytest.raises(SizeLimitError, match="of 21 coordinates"):
        ev.wrt_generalized_spin(forest([0] * 7), [t, t, t])
    assert evaluated == []


def test_moo_examples():
    xi = make_root(4, 1)
    assert moo(as_matrix([[1]]), 2, xi).exact.is_one()
    assert moo(as_matrix([[0]]), 2, xi).exact == 2
    assert moo(as_matrix([[0, 1], [1, 0]]), 2, xi).exact.is_one()
    with pytest.raises(MooError):
        moo(as_matrix([[1]]), 3, make_root(4, 1))


def test_moo_refuses_over_budget_before_enumerating(monkeypatch):
    def never(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(invariants, "_quadratic_sum", never)
    mat = as_matrix([[1, 0], [0, 1]])
    xi = make_root(3, 1)
    m = math.isqrt(ENUMERATION_LIMIT) + 1
    with pytest.raises(SizeLimitError, match="exceeds size limit"):
        moo(mat, m, xi)
    with pytest.raises(SizeLimitError, match="exceeds size limit"):
        moo_refined(mat, MooParams(1, xi, alpha=m), (0, 0))


def _unexpected_path(*args):
    raise AssertionError("this path should not run")


def random_forest_matrix(rng, n):
    """A linking-type matrix whose off-diagonal support is a random forest
    on shuffled vertices: framings in [-3, 3], some vertices isolated,
    edge weights of both signs with |w| up to 3, and now and then split
    unevenly between L_pc and L_cp (a non-symmetric input)."""
    mat = [[0] * n for _ in range(n)]
    label = list(range(n))
    rng.shuffle(label)
    for v in range(n):
        mat[label[v]][label[v]] = rng.randint(-3, 3)
        if v and rng.random() < 0.8:
            p, c = label[rng.randrange(v)], label[v]
            w = rng.choice([-3, -2, -1, 1, 2, 3])
            if rng.random() < 0.25:
                mat[p][c], mat[c][p] = w, rng.randint(-3, 3)
            else:
                mat[p][c] = mat[c][p] = w
    return tuple(map(tuple, mat))


def test_forest_counts_match_the_dense_loop():
    # the dense loop is the oracle for the forest pass, plain and refined
    rng = random.Random(8)
    assert surgery._support_order(()) == ([], [])
    for n in range(9):
        for _ in range(6):
            mat = random_forest_matrix(rng, n)
            tree = surgery._support_order(mat)
            assert tree is not None
            m, order = rng.choice([(m, o) for m, o in
                                   ((2, 4), (3, 3), (3, 6), (4, 8), (5, 5))
                                   if m ** n <= 7000])
            values = [range(m)] * n
            assert invariants._forest_counts(mat, values, order, tree) \
                == invariants._dense_counts(mat, values, order)
    for n in range(4):
        mat = random_forest_matrix(rng, n)
        tree = surgery._support_order(mat)
        for m, delta, alpha in product((1, 2), (1, 2, 3), (1, 2)):
            big = alpha * delta * m
            order = big if (delta * m) % 2 else 2 * big
            for klass in product(range(delta), repeat=n):
                values = [range(c, c + big, delta) for c in klass]
                assert invariants._forest_counts(mat, values, order, tree) \
                    == invariants._dense_counts(mat, values, order)
    for _, f in corpus(7, 50):
        mat = f.linking_matrix()
        tree = surgery._support_order(mat)
        for values, order in (([range(2)] * f.n, 4),
                              ([range(c, c + 4, 2) for c in
                                rng.choices((0, 1), k=f.n)], 8)):
            assert invariants._forest_counts(mat, values, order, tree) \
                == invariants._dense_counts(mat, values, order)


def test_moo_of_the_empty_matrix_is_one():
    xi = make_root(3, 1)
    assert moo(as_matrix([]), 3, xi).exact.is_one()
    assert moo_refined(as_matrix([]), MooParams(3, xi), ()).exact.is_one()


def test_moo_on_30_vertex_trees_matches_the_pointed_category(monkeypatch):
    # m^30 vectors were over the dense budget; the forest pass is checked
    # against the tree evaluator over the pointed category Z_m.  The dense
    # loop only counts the normalizing sum, the form [1]
    dense = invariants._dense_counts

    def only_the_normalizing_sum(mat, values, order):
        assert mat == ((1,),)
        return dense(mat, values, order)

    monkeypatch.setattr(invariants, "_dense_counts", only_the_normalizing_sum)
    rng = random.Random(30)
    for m, xi in ((3, make_root(3, 1)), (4, make_root(8, 1)),
                  (5, make_root(5, 2))):
        f = forest([rng.randint(-5, 5) for _ in range(30)],
                   [((v - 1) // 2, v, rng.choice((1, -1)))
                    for v in range(1, 30)])
        mat = f.linking_matrix()
        value = moo(mat, m, xi).exact
        assert value == Evaluator(abelian_category(m, xi)).wrt(f).exact
        assert moo_refined(mat, MooParams(m, xi), (0,) * 30).exact == value


def test_moo_with_a_cycle_takes_the_dense_loop(monkeypatch):
    calls = []
    dense = invariants._dense_counts

    def spy(*args):
        calls.append(args)
        return dense(*args)

    signatures = []

    def signature_spy(mat):
        signatures.append(mat)
        return signature(mat)

    monkeypatch.setattr(invariants, "_dense_counts", spy)
    monkeypatch.setattr(invariants, "_forest_counts", _unexpected_path)
    monkeypatch.setattr(surgery, "signature", signature_spy)
    # a 4-cycle 0-1-2-3 with a pendant vertex 4
    mat = as_matrix([[1, 1, 0, -2, 0], [1, 0, 1, 0, 0], [0, 1, 2, 1, 1],
                     [-2, 0, 1, -1, 0], [0, 0, 1, 0, 3]])
    assert surgery._support_order(mat) is None
    xi = make_root(3, 1)
    moo(mat, 3, xi)
    moo_refined(mat, MooParams(1, make_root(4, 1), delta=2), (0, 1, 0, 1, 1))
    # the Gauss sums, plus the normalizing sums of the form [1]
    assert len(calls) == 4
    # only a support with a cycle pays the dense signature
    assert signatures == [mat, mat]


def test_gauss_sums_on_forests_never_take_the_dense_signature(monkeypatch):
    monkeypatch.setattr(surgery, "signature", _unexpected_path)
    rng = random.Random(16)
    xi = make_root(3, 1)
    for _ in range(20):
        f = random_forest(rng, max_vertices=7, max_framing=3)
        mat = f.linking_matrix()
        value = moo(mat, 3, xi)
        assert (value.b_plus, value.b_minus) == (
            forest_signature(f).b_plus, forest_signature(f).b_minus)
        moo_refined(mat, MooParams(1, make_root(4, 1), delta=2),
                    tuple(rng.randrange(2) for _ in range(f.n)))
    cat = sl2_category(5)
    ev, red = Evaluator(cat), Evaluator(decomposition_data(cat).reduced)
    for f in (chain([2, 3]), e8_forest()):
        assert decomposition_check(cat, f, decomposition_data(cat),
                                   evaluator=ev, reduced_evaluator=red)["equal"]
    # the refined-moo partition identity passes its own signatures
    assert verify.verify_moo().passed


def test_moo_refuses_over_budget_before_enumerating_on_any_shape(
        monkeypatch):
    monkeypatch.setattr(invariants, "_quadratic_sum", _unexpected_path)
    triangle = as_matrix([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
    assert surgery._support_order(triangle) is None
    with pytest.raises(SizeLimitError, match="exceeds size limit"):
        moo(triangle, 257, make_root(3, 1))
    # a forest is charged n * m^2 * bound: 30 * 211^3 is over budget too
    with pytest.raises(SizeLimitError,
                       match="forest of 30 vertices .* exceeds"):
        moo(chain([2] * 30).linking_matrix(), 211, make_root(3, 1))


def test_pointed_category_invariant_equals_moo():
    # the tree evaluator routed through category data and the direct
    # Gauss-sum enumeration are independent paths to the same invariant
    rng = random.Random(5)
    for m, xi in ((2, make_root(4, 1)), (3, make_root(3, 1)),
                  (4, make_root(8, 1)), (5, make_root(5, 2))):
        ev = Evaluator(abelian_category(m, xi))
        for _ in range(8):
            f = random_forest(rng, max_vertices=5, max_framing=4)
            assert ev.wrt(f).exact == moo(f.linking_matrix(), m, xi).exact


def test_moo_refined_reduces_to_plain():
    mat = as_matrix([[3, 1], [1, 0]])
    xi = make_root(5, 2)
    params = MooParams(m=5, xi=xi, delta=1, alpha=1)
    assert moo_refined(mat, params, (0, 0)).exact == moo(mat, 5, xi).exact


def test_moo_refined_single_vertex_spin_class():
    # forced spin value c = delta/2 on a +1-framed vertex gives 1
    xi = make_root(4, 1)
    params = MooParams(m=1, xi=xi, delta=2, alpha=1)
    val = moo_refined(as_matrix([[1]]), params, (1,))
    assert val.exact.is_one()


def test_moo_refined_partition_scales_plain():
    mat = as_matrix([[0, 1], [1, 2]])
    xi = make_root(3, 1)
    sig = signature(mat)
    params = MooParams(m=3, xi=xi, delta=1, alpha=2)
    total = moo_refined(mat, params, (0, 0)).exact
    plain = moo(mat, 3, xi).exact
    assert total == plain.scale(Fraction(2 ** sig.nullity))


def test_decomposition_data_and_check():
    for r in (5, 7, 9):
        cat = sl2_category(r)
        data = decomposition_data(cat)
        assert data.m == 2 and data.delta == 1
        assert data.xi == cat.twist[r - 2]
        assert data.eta * data.eta == cat.field.embed(make_root(2, 1))
        ev = Evaluator(cat)
        red = Evaluator(data.reduced)
        for f in (forest([1]), forest([0]), chain([2, 3]), e8_forest()):
            assert decomposition_check(cat, f, data, ev, red)["equal"]


def test_decomposition_requires_cyclic_group():
    from spinmod.constructions import product_category
    cat = product_category(sl2_category(4), sl2_category(6))
    with pytest.raises(InvariantError):
        decomposition_data(cat)


def test_blow_down_preserves_invariant(ev5):
    # chain [m, +1-leaf] and the single vertex [m-1] present the same
    # manifold; the normalized invariant agrees exactly
    from spinmod.surgery import blow_down
    for m in (-2, 0, 3, 5):
        f = chain([m, 1])
        g = apply_move(f, blow_down(1))
        assert g == forest([m - 1])
        assert ev5.wrt(f).exact == ev5.wrt(g).exact
    # same with the clasp sign opposite to the leaf framing
    f = forest([4, -1], [(0, 1, 1)])
    g = apply_move(f, blow_down(1))
    assert g == forest([5])
    assert ev5.wrt(f).exact == ev5.wrt(g).exact


def test_move_invariance_of_wrt_and_tables(ev8):
    from spinmod.corpus import random_move_sequence
    rng = random.Random(77)
    for f0 in (forest([1]), chain([2, 3]), chain([0, 2])):
        base_wrt = ev8.wrt(f0).exact
        base_tab = ev8.wrt_spin(f0, 2).multiset()
        for _ in range(15):
            _, f1 = random_move_sequence(rng, f0, rng.randint(1, 5))
            assert ev8.wrt(f1).exact == base_wrt
            assert ev8.wrt_spin(f1, 2).multiset() == base_tab


def test_generalized_spin_on_a_product_category():
    # sl2(4) x sl2(8) carries a non-cyclic refinable Z2 x Z2 with both
    # generators of twist -1; the product-set table still sums to wrt
    from spinmod.constructions import product_category
    cat = product_category(sl2_category(4), sl2_category(8))
    ev = Evaluator(cat)
    group = ev.group()
    gens = sorted(g for g in group.elements
                  if g != 0 and group.element_orders[g] == 2)
    g1 = gens[0]
    g2 = next(g for g in gens[1:] if group.table[(g1, g)] not in (0, g1, g))
    for f in (forest([1]), forest([0]), chain([2, 3])):
        table = ev.wrt_generalized_spin(f, [g1, g2])
        assert table.total() == ev.wrt(f).exact
        for key in table.entries:
            assert len(key) == 2 * f.n
    single = ev.wrt_generalized_spin(forest([1]), [g1, g2])
    assert len(single.entries) == 1
    assert next(iter(single.entries.values())).exact.is_one()


def test_generalized_spin_validates_generators(ev8):
    with pytest.raises(RefinementError):
        ev8.wrt_generalized_spin(forest([1]), [1])  # not invertible
    ev5 = Evaluator(sl2_category(5))
    with pytest.raises(RefinementError):
        # generator of nontrivial degree: subgroup not refinable
        ev5.wrt_generalized_spin(forest([1]), [3])


def test_generalized_spin_rejects_non_primitive_root_convention(ev8):
    g = ev8.find_structure(2, True).generator
    with pytest.raises(RefinementError):
        ev8.wrt_generalized_spin(forest([1]), [g], e_k=2)


@pytest.mark.parametrize("r,spin,refined", [(8, True, "wrt_spin"),
                                            (6, False, "wrt_cohomology"),
                                            (12, True, "wrt_spin")])
def test_one_generator_refinement_is_the_spin_or_coh_table(r, spin, refined):
    # a spin or coh table is the product refinement with one generator:
    # same keys, values and order, only the kind/modulus labels differ
    ev = Evaluator(sl2_category(r))
    g = ev.find_structure(2, spin).generator
    for _, f in corpus(7, 30, 6):
        kv = ev.wrt_generalized_spin(f, [g])
        table = getattr(ev, refined)(f, 2)
        assert (kv.kind, kv.modulus) == ("kv", 0)
        assert list(kv.entries.items()) == list(table.entries.items())


def test_leaf_cache_distinguishes_root_conventions():
    # same (kind, parameter) under two primitive-root conventions must not
    # collide in the evaluation caches
    from spinmod.category import grading, invertibles, kirby_color
    cat = abelian_category(5, make_root(5, 1))
    group = invertibles(cat)
    grad1 = grading(cat, group, e_d=cat.field.zeta(1))
    grad2 = grading(cat, group, e_d=cat.field.zeta(2))
    assert grad1.degree != grad2.degree
    col1 = kirby_color(cat, "graded", 1, grad1)
    col2 = kirby_color(cat, "graded", 1, grad2)
    assert col1 != col2
    f = chain([2, 3])
    shared = Evaluator(cat)
    got1 = shared.eval_weighted(f, [col1, col1])
    got2 = shared.eval_weighted(f, [col2, col2])
    assert got1 == Evaluator(cat).eval_weighted(f, [col1, col1])
    assert got2 == Evaluator(cat).eval_weighted(f, [col2, col2])


def test_evaluator_caches_follow_weight_content():
    # a multiple of the plain color must not be served the plain color's
    # cached leaf messages or unknot values
    cat = sl2_category(5)
    ev = Evaluator(cat)
    plain = kirby_color(cat, "plain")
    double = tuple(q * 2 for q in cat.qdim)
    for f, factor in ((forest([1]), 2), (e8_forest(), 2 ** 8)):
        base = ev.eval_weighted(f, [plain] * f.n)
        assert ev.eval_weighted(f, [double] * f.n) == base * factor


def test_graded_and_dual_colors_follow_the_grading_root():
    from spinmod.category import grading, invertibles
    cat = abelian_category(5, make_root(5, 1))
    group = invertibles(cat)
    ev = Evaluator(cat)
    for k in (1, 2):
        grad = grading(cat, group, e_d=cat.field.zeta(k))
        for p in range(grad.modulus):
            assert ev.graded_color(grad, p, 1) \
                == kirby_color(cat, "graded", p, grad)
            assert ev.dual_color(grad, p, 1) \
                == kirby_color(cat, "dual", p, grad)


def test_zero_quantum_dimension_error():
    # clamp a zero qdim onto a label and put it on an internal vertex
    cat = sl2_category(4)
    zero = cat.field.zero
    qdim = list(cat.qdim)
    qdim[2] = zero
    smat = [list(row) for row in cat.smat]
    smat[2][0] = smat[0][2] = zero
    broken = type(cat)(cat.name, cat.field, cat.labels, cat.dual, qdim,
                       cat.twist, smat, cat.fusion)
    ev = Evaluator(broken)
    tree = forest([0, 0, 0], [(0, 1, 1), (1, 2, 1)])
    from spinmod.invariants import ZeroDimensionError
    with pytest.raises(ZeroDimensionError):
        ev.eval_colored(tree, [0, 2, 0])
