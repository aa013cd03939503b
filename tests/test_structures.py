"""Structure-set solvers: Smith normal form, coset enumeration, counts,
and brute-force cross-validation."""

import math
import random
import time
from itertools import chain, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from spinmod import structures
from spinmod.budget import ENUMERATION_LIMIT, SizeLimitError
from spinmod.structures import (GeneratedCoset, StructureError, as_matrix,
                                brute_chern_vectors,
                                brute_cohomology_classes,
                                brute_homology_classes, brute_spin_solutions,
                                chern_vectors, cohomology_classes,
                                chern_representatives, coker_count,
                                homology_classes, homology_representatives,
                                howell_pivots, image_subgroup,
                                image_subgroup_factored,
                                smith_normal_form, solution_coset,
                                solve_mod, spin_solutions)


def rand_symmetric(rng, n, span=5):
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        mat[i][i] = rng.randint(-span, span)
        for j in range(i + 1, n):
            v = rng.choice([0, 0, 0, 1, -1, 2])
            mat[i][j] = mat[j][i] = v
    return as_matrix(mat)


def test_spin_solution_examples():
    assert spin_solutions(as_matrix([[1]]), 2).solutions == ((1,),)
    assert spin_solutions(as_matrix([[0]]), 2).solutions == ((0,), (1,))
    assert spin_solutions(as_matrix([[2]]), 2).solutions == ((0,), (1,))
    with pytest.raises(StructureError):
        spin_solutions(as_matrix([[1]]), 3)


def test_cohomology_examples():
    assert cohomology_classes(as_matrix([[1]]), 5).solutions == ((0,),)
    assert cohomology_classes(as_matrix([[0]]), 4).count == 4
    assert cohomology_classes(as_matrix([[2, 1], [1, 2]]), 3).count == 3


def test_chern_examples():
    assert chern_vectors(as_matrix([[0]]), 3).classes == ((0,), (2,), (4,))
    for d in (2, 3, 5):
        assert chern_vectors(as_matrix([[1]]), d).count == 1
    got = chern_vectors(as_matrix([[0, 2], [2, 0]]), 2)
    assert got.classes == brute_chern_vectors(as_matrix([[0, 2], [2, 0]]), 2)


def test_homology_examples():
    assert homology_classes(as_matrix([[1]]), 7).count == 1
    assert homology_classes(as_matrix([[0]]), 5).count == 5
    assert homology_classes(as_matrix([[2]]), 4).count == 2
    assert coker_count(as_matrix([[2]]), 4) == 2


def test_chern_parity_and_lex_minimality():
    mat = as_matrix([[3, 1], [1, 2]])
    got = chern_vectors(mat, 2)
    for rep in got.classes:
        assert rep[0] % 2 == 1 and rep[1] % 2 == 0
        coset = [tuple((a + b) % 4 for a, b in zip(rep, s))
                 for s in got.subgroup]
        assert rep == min(coset)


def det(x):
    total = 0
    for perm in permutations(range(len(x))):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(len(perm))
                           for j in range(i + 1, len(perm)))
        total += sign * math.prod(x[i][perm[i]] for i in range(len(x)))
    return total


def test_smith_normal_form_solves_square_systems_exhaustively():
    # every n <= 3 and mod <= 12, zero and random right-hand sides, and
    # every y in (Z_mod)^n: x = V y solves a x = rhs exactly when each
    # diagonal_i y_i = c_i
    rng = random.Random(92)
    for mod in range(1, 13):
        for n in range(4):
            for _ in range(3):
                a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
                for rhs in ([0] * n, [rng.randint(-6, 6) for _ in range(n)]):
                    diagonal, c, v = smith_normal_form(a, rhs, mod)
                    assert all(0 <= x < mod
                               for x in [*diagonal, *c, *chain(*v)])
                    assert math.gcd(det(v), mod) == 1
                    for y in product(range(mod), repeat=n):
                        x = [sum(r * k for r, k in zip(row, y)) for row in v]
                        solves = all(
                            (sum(r * k for r, k in zip(row, x)) - b) % mod == 0
                            for row, b in zip(a, rhs))
                        assert solves == all(
                            (di * k - ci) % mod == 0
                            for di, k, ci in zip(diagonal, y, c))


def test_smith_normal_form_rejects_nonpositive_modulus():
    for mod in (0, -3):
        with pytest.raises(StructureError):
            smith_normal_form([[2, 1], [1, 2]], (0, 0), mod)


def test_solve_mod_agrees_with_enumeration():
    rng = random.Random(17)
    for _ in range(150):
        n = rng.randint(1, 3)
        d = rng.choice([2, 3, 4, 5, 6, 8, 9])
        mat = rand_symmetric(rng, n)
        rhs = tuple(rng.randrange(d) for _ in range(n))
        got = solve_mod(mat, rhs, d)
        want = sorted(x for x in product(range(d), repeat=n)
                      if tuple(sum(mat[i][j] * x[j] for j in range(n)) % d
                               for i in range(n)) == rhs)
        assert got == want


def test_solvers_match_brute_force_and_counts():
    rng = random.Random(99)
    for _ in range(120):
        n = rng.randint(1, 4)
        d = rng.choice([2, 2, 3, 4, 5, 6])
        mat = rand_symmetric(rng, n)
        if d % 2 == 0:
            spin = spin_solutions(mat, d)
            assert spin.solutions == brute_spin_solutions(mat, d)
            coh = cohomology_classes(mat, d)
            assert spin.count in (0, coh.count)
        assert cohomology_classes(mat, d).solutions \
            == brute_cohomology_classes(mat, d)
        assert chern_vectors(mat, d).classes == brute_chern_vectors(mat, d)
        assert homology_classes(mat, d).classes \
            == brute_homology_classes(mat, d)
        assert chern_vectors(mat, d).count == coker_count(mat, d)
        assert image_subgroup(mat, d) == image_subgroup_factored(mat, d)
        assert image_subgroup(mat, 2 * d, scale=2) \
            == image_subgroup_factored(mat, 2 * d, scale=2)
        assert chern_vectors(mat, d).subgroup \
            == image_subgroup(mat, 2 * d, scale=2)


def test_even_diagonal_spin_set_is_kernel_translate():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(1, 3)
        d = rng.choice([2, 4])
        mat = [[0] * n for _ in range(n)]
        for i in range(n):
            mat[i][i] = 2 * rng.randint(-2, 2)
            for j in range(i + 1, n):
                v = rng.choice([0, 1, -1])
                mat[i][j] = mat[j][i] = v
        mat = as_matrix(mat)
        sols = set(spin_solutions(mat, d).solutions)
        for s in sols:
            doubled = tuple(2 * x % d for x in s)
            shifted = {tuple((a + b) % d for a, b in zip(x, doubled))
                       for x in sols}
            assert shifted == sols


def test_enumeration_limits():
    big = as_matrix([[0] * 9 for _ in range(9)])
    with pytest.raises(SizeLimitError):
        homology_classes(big, 8)


def test_solution_enumeration_refuses_before_walking():
    # 2^25 kernel vectors: refused from the Smith normal form alone
    zero = as_matrix([[0] * 25 for _ in range(25)])
    assert solution_coset(zero, (0,) * 25, 2).count == 2 ** 25
    with pytest.raises(SizeLimitError, match="exceeds size limit"):
        cohomology_classes(zero, 2)
    with pytest.raises(SizeLimitError, match="exceeds size limit"):
        homology_representatives(zero, 2)
    # exactly 2^24 vectors, but of 24 coordinates each: the budget charges
    # the output, so this is refused too
    zero = as_matrix([[0] * 24 for _ in range(24)])
    assert solution_coset(zero, (0,) * 24, 2).count == ENUMERATION_LIMIT
    with pytest.raises(SizeLimitError, match="exceeds size limit"):
        cohomology_classes(zero, 2)
    with pytest.raises(SizeLimitError, match="exceeds size limit"):
        homology_representatives(zero, 2)
    # a chain of 25 has few classes: no (Z_2)^25 walk is needed
    chain = [[0] * 25 for _ in range(25)]
    for i in range(25):
        chain[i][i] = 2
        if i:
            chain[i][i - 1] = chain[i - 1][i] = 1
    chain = as_matrix(chain)
    assert len(homology_representatives(chain, 2)) == coker_count(chain, 2)


@st.composite
def generated_cosets(draw):
    d = draw(st.integers(1, 6))
    n = draw(st.integers(0, 4))
    vec = st.lists(st.integers(-8, 8), min_size=n, max_size=n).map(tuple)
    gens = draw(st.lists(vec, max_size=3))
    orders = draw(st.lists(st.integers(1, 4), min_size=len(gens),
                           max_size=len(gens)))
    return GeneratedCoset(d, draw(vec), tuple(gens), tuple(orders))


def product_points(coset):
    """The reference walk: one point per k in product(range(order)),
    summed from scratch."""
    out = []
    for ks in product(*[range(g) for g in coset.orders]):
        vec = list(coset.offset)
        for k, gen in zip(ks, coset.gens):
            vec = [x + k * y for x, y in zip(vec, gen)]
        out.append(tuple(x % coset.modulus for x in vec))
    return out


@settings(max_examples=200, deadline=None)
@given(generated_cosets())
def test_generated_coset_points_match_the_product_walk(coset):
    # same points in the same order; the generators need not be
    # independent here, so repeats must survive too
    assert coset.points() == product_points(coset)


def test_generated_coset_refuses_before_walking():
    gens = tuple(tuple(int(i == j) for j in range(25)) for i in range(25))
    coset = GeneratedCoset(2, (0,) * 25, gens, (2,) * 25)
    assert coset.count > ENUMERATION_LIMIT
    with pytest.raises(SizeLimitError, match="exceeds size limit"):
        coset.points()


def test_generated_coset_work_is_bounded_by_its_points():
    # a free coordinate at a large modulus: d points, not a d x d table
    d = 1 << 20
    coset = solution_coset(as_matrix([[0]]), (0,), d)
    assert coset.count == d
    assert sorted(coset.points()) == [(x,) for x in range(d)]
    # two points at d = 10^9: no table over every residue
    d = 10 ** 9
    coset = solution_coset(as_matrix([[2]]), (0,), d)
    assert coset.count == 2
    assert sorted(coset.points()) == [(0,), (d // 2,)]
    assert solve_mod(as_matrix([[2]]), (4,), d) == [(2,), (d // 2 + 2,)]


@st.composite
def symmetric_matrices(draw, max_n=4, span=4):
    n = draw(st.integers(1, max_n))
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            mat[i][j] = mat[j][i] = draw(st.integers(-span, span))
    return as_matrix(mat)


def check_representatives(mat, d):
    reps = homology_representatives(mat, d)
    assert reps == brute_homology_classes(mat, d)
    assert math.prod(howell_pivots(mat, d)) == coker_count(mat, d)
    assert homology_classes(mat, d).subgroup == image_subgroup(mat, d)
    assert chern_representatives(mat, d) == brute_chern_vectors(mat, d)
    assert chern_vectors(mat, d).subgroup == image_subgroup(mat, 2 * d, 2)


@settings(max_examples=150, deadline=None)
@given(symmetric_matrices(), st.integers(1, 6))
def test_howell_representatives_match_brute_force(mat, d):
    check_representatives(mat, d)


@pytest.mark.parametrize("d", [2, 3, 4, 6])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_howell_representatives_pinned_cases(n, d):
    # diag(d, 1, ..., 1): the pivot sits on the leading coordinate, and a
    # walk that stops at the first full coset would stop too early
    lead = as_matrix([[(d if i == 0 else 1) if i == j else 0
                       for j in range(n)] for i in range(n)])
    assert howell_pivots(lead, d) == (d,) + (1,) * (n - 1)
    check_representatives(lead, d)
    # zero matrix: the cokernel (Z_d)^n is not cyclic
    zero = as_matrix([[0] * n for _ in range(n)])
    assert howell_pivots(zero, d) == (d,) * n
    assert homology_representatives(zero, d) \
        == tuple(product(range(d), repeat=n))
    check_representatives(zero, d)


# ---------------------------------------------------------------------------
# Subgroups from the Hermite walk, against breadth-first closure

# largest subgroup the closure oracle is asked to build per example
CLOSURE_BUDGET = 2000


@st.composite
def subgroup_cases(draw):
    """(mat, d): n in 0..6, d in 1..12, every entry a multiple of a drawn
    divisor q of d, so the pivots run over 1, d and proper divisors of d
    while Im L (inside q Z_d) stays within the closure budget."""
    d = draw(st.integers(1, 12))
    n = draw(st.integers(0, 6))
    q = draw(st.sampled_from([q for q in range(1, d + 1) if d % q == 0
                              and (d // q) ** n <= CLOSURE_BUDGET]))
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            mat[i][j] = mat[j][i] = q * draw(st.integers(-4, 4))
    return as_matrix(mat), d


def check_hermite_basis(mat, d):
    rows = structures._hermite_rows(list(zip(*mat)), d)
    pivots = [row[i] for i, row in enumerate(rows)]
    assert howell_pivots(mat, d) == tuple(pivots)
    for i, row in enumerate(rows):
        assert d % pivots[i] == 0
        assert not any(row[:i])
        assert all(0 <= x < d for x in row[i + 1:])
        # reduced above every pivot: a column with pivot 1 is zero above it
        assert all(0 <= above[i] < pivots[i] for above in rows[:i])


@settings(max_examples=120, deadline=None)
@given(subgroup_cases())
def test_image_subgroup_walk_matches_closure(case):
    mat, d = case
    check_hermite_basis(mat, d)
    # the same points in the same (sorted) order
    assert image_subgroup_factored(mat, d) == image_subgroup(mat, d)
    assert image_subgroup_factored(mat, 2 * d, 2) \
        == image_subgroup(mat, 2 * d, 2)


@pytest.mark.parametrize("scale,mod", [(3, 8), (4, 6), (-2, 6), (6, 9),
                                       (0, 5), (5, 5)])
def test_image_subgroup_walk_with_a_scale_not_dividing_the_modulus(scale,
                                                                   mod):
    for mat in ([[2, 1], [1, 2]], [[0, 3], [3, 4]], [[1, 0, 2], [0, 4, 0],
                                                     [2, 0, 0]]):
        mat = as_matrix(mat)
        assert image_subgroup_factored(mat, mod, scale) \
            == image_subgroup(mat, mod, scale)


def test_image_subgroup_walk_pinned_cases():
    # basis rows (2, 2), (0, 4) at d = 8: after x_0 = 2 the second
    # coordinate starts at the carried sum 2, not at 0
    mat = as_matrix([[2, 2], [2, 6]])
    assert structures._hermite_rows(list(zip(*mat)), 8) == [[2, 2], [0, 4]]
    assert image_subgroup_factored(mat, 8)[:4] == ((0, 0), (0, 4), (2, 2),
                                                   (2, 6))
    assert image_subgroup_factored(mat, 8) == image_subgroup(mat, 8)
    assert image_subgroup_factored(as_matrix([]), 7) == ((),)
    assert image_subgroup_factored(as_matrix([[0]]), 10 ** 9) == ((0,),)
    assert image_subgroup_factored(as_matrix([[1]]), 1) == ((0,),)
    with pytest.raises(StructureError):
        image_subgroup_factored(as_matrix([[1]]), 0)


def test_image_subgroup_walk_needs_no_smith_form_and_no_coset(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the Hermite walk called it")

    monkeypatch.setattr(structures, "smith_normal_form", forbidden)
    monkeypatch.setattr(GeneratedCoset, "points", forbidden)
    rng = random.Random(8)
    for _ in range(20):
        mat = rand_symmetric(rng, rng.randint(0, 4))
        d = rng.choice([2, 3, 4, 6])
        image_subgroup_factored(mat, d)
        image_subgroup_factored(mat, 2 * d, 2)
        homology_classes(mat, d)
        chern_vectors(mat, d)


def test_image_subgroup_walk_refuses_before_building_a_column(monkeypatch):
    # |Im L| = 2^25 for the 25 x 25 identity at d = 2: refused from the
    # pivots alone
    walks = []
    walk = structures._lex_walk
    monkeypatch.setattr(structures, "_lex_walk",
                        lambda *args: walks.append(args) or walk(*args))
    eye = as_matrix([[int(i == j) for j in range(25)] for i in range(25)])
    start = time.perf_counter()
    with pytest.raises(SizeLimitError, match="exceeds size limit"):
        image_subgroup_factored(eye, 2)
    with pytest.raises(SizeLimitError, match="exceeds size limit"):
        homology_classes(eye, 2)
    with pytest.raises(SizeLimitError, match="exceeds size limit"):
        chern_vectors(eye, 2)
    assert time.perf_counter() - start < 1
    assert walks == []
    assert len(image_subgroup_factored(as_matrix([[1]]), 2)) == 2
    assert len(walks) == 1
