"""Category data model: axiom battery, invertibles, gradings, refinable
structures, Kirby colors."""

import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

from spinmod import category
from spinmod.category import (GradingError, MalformedCategoryError,
                              _prime_and_root_powers, _rank, _rank_mod_p,
                              check_axioms, default_primitive_root, grading,
                              invertibles, kirby_color, refinable_structures)
from spinmod.constructions import (abelian_category, extend_category,
                                   product_category, sl2_category,
                                   trivial_category)
from spinmod.cyclo import CycloNumber, cyclo_field, make_root
from spinmod.invariants import Evaluator
from spinmod.surgery import forest


def test_one_object_category_is_modular():
    rep = check_axioms(trivial_category())
    assert rep.premodular and rep.modular and rep.transparent == (0,)


def test_sl2_5_axioms():
    rep = check_axioms(sl2_category(5))
    assert rep.premodular and rep.modular
    assert rep.transparent == (0,)
    assert rep.criterion_agreement is True


def test_abelian_degenerate_is_all_transparent_not_modular():
    cat = abelian_category(3, cyclo_field(3).one)
    rep = check_axioms(cat)
    assert rep.premodular and not rep.modular
    assert rep.transparent == (0, 1, 2)


def test_abelian_zeta3_is_modular():
    rep = check_axioms(abelian_category(3, make_root(3, 1)))
    assert rep.premodular and rep.modular and rep.transparent == (0,)


def _extension(r, alpha, xi_power):
    cat = sl2_category(r)
    grad = grading(cat, invertibles(cat))
    return extend_category(cat, alpha, cat.field.zeta(xi_power), grad.degree,
                           grad)


RANK_CASES = [
    *((f"sl2_{r}", lambda r=r: sl2_category(r), r - 1) for r in range(3, 17)),
    ("abelian_zeta3", lambda: abelian_category(3, make_root(3, 1)), 3),
    ("abelian_degenerate", lambda: abelian_category(3, cyclo_field(3).one), 1),
    ("product_sl2_4_sl2_6",
     lambda: product_category(sl2_category(4), sl2_category(6)), 15),
    ("ext_sl2_5_a1_x0", lambda: _extension(5, 1, 0), 4),
    ("ext_sl2_5_a1_x5", lambda: _extension(5, 1, 5), 2),
    ("ext_sl2_5_a2_x0", lambda: _extension(5, 2, 0), 4),
    ("ext_sl2_8_a2_x4", lambda: _extension(8, 2, 4), 7),
]


@pytest.mark.parametrize("build,expected", [c[1:] for c in RANK_CASES],
                         ids=[c[0] for c in RANK_CASES])
def test_mod_p_rank_is_bounded_by_exact_rank(build, expected):
    cat = build()
    assert _rank_mod_p(cat) <= _rank(cat) == expected


def test_modularity_falls_back_to_exact_rank(monkeypatch):
    exact_calls = []

    def spy(cat):
        exact_calls.append(cat.name)
        return _rank(cat)

    monkeypatch.setattr(category, "_rank", spy)
    # The certificate settles a modular category without exact elimination.
    assert check_axioms(sl2_category(5)).modular is True
    assert exact_calls == []
    # A short mod-p rank leaves the decision to the exact rank.
    degenerate = abelian_category(3, cyclo_field(3).one)
    assert _rank_mod_p(degenerate) < degenerate.size
    assert check_axioms(degenerate).modular is False
    assert exact_calls == [degenerate.name]
    # So does a denominator divisible by p, where the map to F_p is undefined.
    cat = sl2_category(5)
    p, _ = _prime_and_root_powers(cat.field.order)
    scaled = [[v * Fraction(1, p) for v in row] for row in cat.smat]
    odd = type(cat)("scaled", cat.field, cat.labels, cat.dual, cat.qdim,
                    cat.twist, scaled, cat.fusion)
    assert _rank_mod_p(odd) == 0
    assert check_axioms(odd).modular is True
    assert exact_calls == [degenerate.name, "scaled"]


def _dense_associativity_violations(fusion):
    n = len(fusion)
    out = []
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    left = sum(fusion[a][b][e] * fusion[e][c][d]
                               for e in range(n))
                    right = sum(fusion[b][c][e] * fusion[a][e][d]
                                for e in range(n))
                    if left != right:
                        out.append(
                            f"fusion associativity fails at ({a},{b},{c};{d})")
    return out


@pytest.mark.parametrize("a,b,c,mult", [(1, 2, 3, 2), (1, 1, 1, 1),
                                        (2, 2, 2, 0)])
def test_associativity_violations_match_dense_loop(a, b, c, mult):
    cat = sl2_category(5)
    fusion = [[list(row) for row in plane] for plane in cat.fusion]
    assert fusion[a][b][c] != mult
    fusion[a][b][c] = mult
    broken = type(cat)(cat.name, cat.field, cat.labels, cat.dual, cat.qdim,
                       cat.twist, cat.smat, fusion)
    expected = _dense_associativity_violations(broken.fusion)
    assert expected
    rep = check_axioms(broken)
    assert not rep.premodular
    assert [v for v in rep.violations if "associativity" in v] == expected


def _channel_associativity_violations(cat):
    """The associativity check as a triple loop over nonzero channels:
    (a b) c against a (b c), one message per label d that differs."""
    n = cat.size
    chan = cat.fusion_channels
    out = []
    for a in range(n):
        for b in range(n):
            ab = chan(a, b)
            for c in range(n):
                left = [0] * n
                for e, m1 in ab:
                    for d, m2 in chan(e, c):
                        left[d] += m1 * m2
                right = [0] * n
                for e, m1 in chan(b, c):
                    for d, m2 in chan(a, e):
                        right[d] += m1 * m2
                for d in range(n):
                    if left[d] != right[d]:
                        out.append(
                            f"fusion associativity fails at ({a},{b},{c};{d})")
    return out


def _corrupted(cat, rng, changes):
    fusion = [[list(row) for row in plane] for plane in cat.fusion]
    n = cat.size
    for _ in range(changes):
        a, b, c = (rng.randrange(n) for _ in range(3))
        fusion[a][b][c] = rng.choice([0, 1, 2, 3, 7, 40])
    return type(cat)(cat.name, cat.field, cat.labels, cat.dual, cat.qdim,
                     cat.twist, cat.smat, fusion)


@pytest.mark.parametrize("name", ["sl2_4", "sl2_5", "sl2_6", "sl2_7",
                                  "sl2_8", "pointed_6"])
def test_packed_associativity_matches_the_channel_triple_loop(name):
    cat = (abelian_category(6, make_root(12, 1)) if name == "pointed_6"
           else sl2_category(int(name[4:])))
    assert _channel_associativity_violations(cat) == []
    rng = random.Random(cat.size)
    seen_failures = 0
    for trial in range(12):
        broken = _corrupted(cat, rng, 1 + trial % 3)
        expected = _channel_associativity_violations(broken)
        report = check_axioms(broken).violations
        got = [v for v in report if "associativity" in v]
        assert got == expected
        if got:
            # one contiguous block, where the triple loop put it
            first = report.index(got[0])
            assert report[first:first + len(got)] == got
            seen_failures += 1
    assert seen_failures >= 6


def test_packed_associativity_holds_one_table_b_at_a_time():
    # P, Q and one T[b] hold n^3 w bits each (about 19 KB here); all n
    # tables T[b] at once would be n^4 w bits, about 0.55 MiB
    cat = sl2_category(32)
    rows = [row for plane in cat.fusion for row in plane]
    w = (max(map(sum, rows)) * max(map(max, rows))).bit_length()
    tracemalloc.start()
    try:
        check_axioms(cat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cat.size ** 4 * w // 8 // 2


def test_malformed_data_rejected_before_checking():
    cat = sl2_category(4)
    with pytest.raises(MalformedCategoryError):
        type(cat)(cat.name, cat.field, cat.labels, (0, 2, 1, 3), cat.qdim,
                  cat.twist, cat.smat, cat.fusion)
    with pytest.raises(MalformedCategoryError):
        type(cat)(cat.name, cat.field, cat.labels, cat.dual, cat.qdim[:-1],
                  cat.twist, cat.smat, cat.fusion)


def test_axiom_checker_flags_broken_twist():
    cat = sl2_category(5)
    bad_twist = list(cat.twist)
    bad_twist[1] = -bad_twist[1]
    broken = type(cat)(cat.name, cat.field, cat.labels, cat.dual, cat.qdim,
                       tuple(bad_twist), cat.smat, cat.fusion)
    rep = check_axioms(broken)
    assert not rep.premodular
    assert any("ribbon" in v for v in rep.violations)


def test_axiom_checker_flags_broken_hopf_row():
    cat = sl2_category(5)
    smat = [list(row) for row in cat.smat]
    smat[0][2] = smat[2][0] = cat.field.zero
    broken = type(cat)(cat.name, cat.field, cat.labels, cat.dual, cat.qdim,
                       cat.twist, smat, cat.fusion)
    rep = check_axioms(broken)
    assert not rep.premodular
    assert any("qdim" in v for v in rep.violations)


def test_invertibles_sl2():
    for r in (5, 8):
        cat = sl2_category(r)
        group = invertibles(cat)
        assert group.elements == (0, r - 2)
        assert group.order == 2
        assert group.generator == r - 2
        assert group.table[(r - 2, r - 2)] == 0


def test_invertibles_abelian_is_everything():
    cat = abelian_category(5, make_root(5, 1))
    group = invertibles(cat)
    assert group.elements == tuple(range(5))
    assert group.order == 5
    assert group.element_orders[1] == 5


@pytest.mark.parametrize("a,b,c", [(0, 0, None), (2, 1, 2)])
def test_invertibles_reject_corrupt_fusion(a, b, c):
    # (0, 0): the unit has no channel 0 (x) 0 -> 0; (2, 1): a
    # non-commutative table in which the powers 1, 2, 2, ... of label 1
    # never reach the unit
    cat = abelian_category(4, make_root(8, 1))
    fusion = [[list(row) for row in plane] for plane in cat.fusion]
    fusion[a][b] = [int(x == c) for x in range(cat.size)]
    broken = type(cat)(cat.name, cat.field, cat.labels, cat.dual, cat.qdim,
                       cat.twist, cat.smat, fusion)
    with pytest.raises(MalformedCategoryError):
        invertibles(broken)


def test_invertibles_of_product_is_klein_group():
    cat = product_category(sl2_category(4), sl2_category(6))
    group = invertibles(cat)
    assert group.order == 4
    assert group.generator is None
    orders = sorted(group.element_orders.values())
    assert orders == [1, 2, 2, 2]


def test_grading_sl2():
    for r, want in ((5, 1), (8, 0)):
        cat = sl2_category(r)
        group = invertibles(cat)
        grad = grading(cat, group)
        assert grad.modulus == 2
        assert grad.degree[0] == 0
        assert grad.degree[r - 2] == want
        assert grad.degree == tuple(i % 2 for i in range(r - 1))


def test_grading_degree_additivity():
    for cat in (sl2_category(7), abelian_category(4, make_root(8, 1))):
        grad = grading(cat, invertibles(cat))
        d = grad.modulus
        for a in range(cat.size):
            for b in range(cat.size):
                for c, mult in cat.fusion_channels(a, b):
                    assert (grad.degree[a] + grad.degree[b] - grad.degree[c]) % d == 0
        assert grad.degree[0] == 0
        for a in range(cat.size):
            assert (grad.degree[cat.dual[a]] + grad.degree[a]) % d == 0


def _chi(cat, lam, g):
    """The monodromy by division, S / (d d): the oracle for the
    multiplicative test the package uses."""
    return cat.smat[lam][g] * (cat.qdim[lam] * cat.qdim[g]).invert()


def _oracle_degrees(cat, d, t, e_d):
    powers = {}
    cur = cat.field.one
    for k in range(d):
        powers[cur] = k
        cur = cur * e_d
    return tuple(powers[_chi(cat, lam, t)] for lam in range(cat.size))


def _oracle_trivial_degree(cat, group):
    one = cat.field.one
    return [g for g in group.elements
            if all(_chi(cat, g, h) == one for h in group.elements)]


def _grading_cases():
    for r in range(3, 17):
        yield f"sl2_{r}", lambda r=r: sl2_category(r)
    for n in range(1, 9):
        root = n if n % 2 else 2 * n   # q^n = 1 (n odd), q^2n = 1 (n even)
        for k in (1, 2):
            yield (f"abelian_{n}_q{k}",
                   lambda n=n, k=k, root=root:
                   abelian_category(n, make_root(root, k)))
    for name, build, _ in RANK_CASES:
        if name.startswith("ext_"):
            yield name, build
    yield ("product_sl2_4_sl2_6",
           lambda: product_category(sl2_category(4), sl2_category(6)))


GRADING_CASES = list(_grading_cases())


@pytest.mark.parametrize("build", [c[1] for c in GRADING_CASES],
                         ids=[c[0] for c in GRADING_CASES])
def test_gradings_and_trivial_degrees_match_the_division_oracle(
        build, monkeypatch):
    cat = build()
    group = invertibles(cat)
    pools = []
    all_subgroups = category._all_subgroups

    def spy(group, pool):
        pools.append(list(pool))
        return all_subgroups(group, pool)

    monkeypatch.setattr(category, "_all_subgroups", spy)
    refinable_structures(cat, group)
    assert pools == [_oracle_trivial_degree(cat, group)]
    t = group.generator
    if t is None:
        with pytest.raises(GradingError, match="not cyclic"):
            grading(cat, group)
        return
    d = group.element_orders[t]
    for k in range(1, d + 1):
        if math.gcd(k, d) == 1:
            e_d = default_primitive_root(cat.field, d, k)
            grad = grading(cat, group, t, e_d)
            assert grad.degree == _oracle_degrees(cat, d, t, e_d), k


def _subset_walk_subgroups(group, pool):
    """Oracle: close every subset of ``pool`` and keep the closures that
    stay inside it (2^|pool| closures)."""
    allowed = set(pool) | {0}
    seen = {frozenset({0})}
    for size in range(1, len(pool) + 1):
        for gens in combinations(pool, size):
            closure = {0}
            frontier = list(gens)
            while frontier:
                g = frontier.pop()
                if g in closure:
                    continue
                closure.add(g)
                frontier.extend(group.table[(g, h)] for h in list(closure))
            if closure <= allowed:
                seen.add(frozenset(closure))
    return sorted((tuple(sorted(s)) for s in seen), key=lambda s: (len(s), s))


SUBGROUP_CASES = GRADING_CASES + [
    (f"degenerate_abelian_{n}", lambda n=n: abelian_category(n, make_root(2, 0)))
    for n in (6, 9, 12)]


@pytest.mark.parametrize("build", [c[1] for c in SUBGROUP_CASES],
                         ids=[c[0] for c in SUBGROUP_CASES])
def test_subgroups_match_the_subset_walk(build):
    # the trivial-degree pool, the whole group, and a pool that is not
    # closed (the elements of even order, with the unit)
    cat = build()
    group = invertibles(cat)
    pools = [_oracle_trivial_degree(cat, group), list(group.elements),
             [g for g in group.elements
              if g == 0 or group.element_orders[g] % 2 == 0]]
    for pool in pools:
        assert category._all_subgroups(group, pool) \
            == _subset_walk_subgroups(group, pool)


def test_degenerate_pointed_category_subgroups_are_not_enumerated_by_subset():
    # every element of Z_24 has trivial degree; its 8 subgroups, one per
    # divisor, are found without walking the 2^24 subsets of the pool
    cat = abelian_category(24, make_root(2, 0))
    structs = refinable_structures(cat)
    assert sorted(s.order for s in structs) == [1, 2, 3, 4, 6, 8, 12, 24]
    assert all(s.generator is not None and not s.is_spin for s in structs)


def test_zero_dimensions_and_foreign_characters_are_grading_errors():
    cat = sl2_category(6)
    group = invertibles(cat)
    qdim = list(cat.qdim)
    qdim[2] = cat.field.zero
    broken = type(cat)(cat.name, cat.field, cat.labels, cat.dual, qdim,
                       cat.twist, cat.smat, cat.fusion)
    with pytest.raises(GradingError,
                       match=r"^qdim of label 2 is zero \(corrupt data\)$"):
        grading(broken, group)
    smat = [list(row) for row in cat.smat]
    smat[3][group.generator] = smat[3][group.generator] * cat.field.zeta(1)
    broken = type(cat)(cat.name, cat.field, cat.labels, cat.dual, cat.qdim,
                       cat.twist, smat, cat.fusion)
    with pytest.raises(GradingError, match="character of label 3 is not a "
                       r"power of e_d \(corrupt data\)"):
        grading(broken, group)


def test_monodromy_tests_invert_nothing(monkeypatch):
    cat = sl2_category(6)
    group = invertibles(cat)
    t = group.generator
    f = forest([1, -2, 0], [(0, 1, 1), (1, 2, -1)])
    ev = Evaluator(cat)
    ev.wrt(f)   # warms every inverse the evaluation itself needs
    inverts = []
    invert = CycloNumber.invert

    def spy(x):
        inverts.append(x)
        return invert(x)

    monkeypatch.setattr(CycloNumber, "invert", spy)
    grading(cat, group)
    refinable_structures(cat, group)
    table = ev.wrt_generalized_spin(f, [t])
    assert inverts == []
    assert table.entries


def test_characters_are_roots_of_unity_of_dividing_order():
    cat = sl2_category(6)
    group = invertibles(cat)
    chars = {(lam, g): _chi(cat, lam, g)
             for lam in range(cat.size) for g in group.elements}
    for (lam, g), chi in chars.items():
        assert (chi ** group.element_orders[g]).is_one()
    # multiplicativity on the group
    for g in group.elements:
        for h in group.elements:
            gh = group.table[(g, h)]
            assert chars[(g, 0)].is_one()
            for lam in range(cat.size):
                assert chars[(lam, gh)] == chars[(lam, g)] * chars[(lam, h)]


def test_grading_rejects_non_cyclic_group():
    cat = product_category(sl2_category(4), sl2_category(6))
    group = invertibles(cat)
    with pytest.raises(GradingError):
        grading(cat, group)


def test_refinable_structures_spin_pattern():
    ref8 = [s for s in refinable_structures(sl2_category(8)) if not s.is_trivial]
    assert len(ref8) == 1 and ref8[0].is_spin and ref8[0].order == 2
    ref6 = [s for s in refinable_structures(sl2_category(6)) if not s.is_trivial]
    assert len(ref6) == 1 and not ref6[0].is_spin
    ref5 = [s for s in refinable_structures(sl2_category(5)) if not s.is_trivial]
    assert ref5 == []


def test_qdim_of_generator_sign():
    # odd cyclic order forces qdim 1; order 2 allows a sign
    cat3 = abelian_category(3, make_root(3, 1))
    g3 = invertibles(cat3)
    assert cat3.qdim[g3.generator].is_one()
    for r in (5, 8):
        cat = sl2_category(r)
        t = invertibles(cat).generator
        assert cat.qdim[t].is_rational()
        assert cat.qdim[t].as_rational() in (1, -1)


def test_kirby_colors():
    cat = sl2_category(8)
    grad = grading(cat, invertibles(cat))
    plain = kirby_color(cat, "plain")
    assert plain == cat.qdim
    graded1 = kirby_color(cat, "graded", 1, grad)
    for lam in range(cat.size):
        if lam % 2:
            assert graded1[lam] == cat.qdim[lam]
        else:
            assert graded1[lam].is_zero()
    total = [cat.field.zero] * cat.size
    for u in range(grad.modulus):
        w = kirby_color(cat, "graded", u, grad)
        total = [a + b for a, b in zip(total, w)]
    assert tuple(total) == plain
    assert kirby_color(cat, "dual", 0, grad) == plain
    with pytest.raises(ValueError):
        kirby_color(cat, "graded", 5, grad)


def test_default_primitive_root():
    f = cyclo_field(24)
    assert default_primitive_root(f, 2) == -f.one
    assert default_primitive_root(f, 3) == f.zeta(8)
    with pytest.raises(GradingError):
        default_primitive_root(f, 5)
    with pytest.raises(GradingError):
        default_primitive_root(f, 4, k=2)
