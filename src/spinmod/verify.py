"""Machine verification suites with witnesses.

Each driver checks one family of exact statements (axioms, refinability,
vanishing, sum formulas, move invariance, oracle agreement, bijection
counts, decomposition, Gauss-sum sanity, complex-spin machinery) over a
seeded corpus and returns a ``Report``: pass/fail, human-readable lines,
and a witness record for the first failure.  The command line and the
acceptance test suite both consume these drivers, so there is a single
source of truth for every verified statement.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from itertools import product

from . import structures
from .budget import charge
from .category import check_axioms, kirby_color, refinable_structures
from .constructions import abelian_category, search_higher_spin, sl2_category
from .corpus import corpus, e8_forest, random_forest, random_move_sequence
from .cyclo import gauss_sum, make_root
from .invariants import (Evaluator, MooParams, decomposition_check,
                         decomposition_data, moo, moo_refined)
from .surgery import (_matrix_signature, _support_order, apply_move, chain,
                      forest, stabilize, reverse)
from .structures import as_matrix

# the kirby suite: moves per random sequence, and random manifolds added
# to its fixed base list
KIRBY_MOVES_PER_SEQUENCE = 6
KIRBY_RANDOM_BASES = 3
# the spinc suite's bounded extension search: bases sl2(r) for r in
# SPINC_SEARCH_RS, extension orders alpha in SPINC_SEARCH_ALPHAS
SPINC_SEARCH_RS = (4, 5, 6, 8)
SPINC_SEARCH_ALPHAS = (1, 2)
# the axioms and refinability suites check sl2(r) for r in these ranges
AXIOMS_RS = tuple(range(3, 13))
REFINABILITY_RS = tuple(range(4, 13))
# the sum suite's random forests have at most this many vertices
SUM_MAX_VERTICES = 8
# random instances per comparison in the oracle and bijection suites
ORACLE_INSTANCES = 200
BIJECTION_INSTANCES = 100
# the decomposition suite splits the invariant of sl2(r) for these r
DECOMPOSITION_RS = (5, 7, 9)


@dataclass
class Report:
    name: str
    passed: bool
    lines: list[str] = dataclass_field(default_factory=list)
    witness: dict | None = None

    def render(self) -> str:
        head = f"[{'PASS' if self.passed else 'FAIL'}] {self.name}"
        body = "".join(f"\n  {ln}" for ln in self.lines)
        if self.witness is not None:
            body += f"\n  witness: {self.witness}"
        return head + body


def _fail(report: Report, line: str, witness: dict) -> None:
    report.passed = False
    report.lines.append(line)
    if report.witness is None:
        report.witness = witness


def _random_symmetric(rng, n: int, bound: int, off) -> list[list[int]]:
    """A symmetric n x n matrix: diagonal in [-bound, bound], each entry
    above it drawn from ``off``, row by row."""
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        mat[i][i] = rng.randint(-bound, bound)
        for j in range(i + 1, n):
            mat[i][j] = mat[j][i] = rng.choice(off)
    return mat


# ---------------------------------------------------------------------------


def verify_axioms() -> Report:
    """Premodular + modular + trivial transparency for the built-ins."""
    rep = Report("axioms", True)
    for r in AXIOMS_RS:
        cat = sl2_category(r)
        res = check_axioms(cat)
        ok = res.premodular and res.modular and res.transparent == (0,)
        rep.lines.append(f"sl2({r}): {res.summary()}")
        if not ok:
            _fail(rep, f"sl2({r}) fails the axiom battery",
                  {"category": cat.name, "violations": res.violations})
    for name, cat in (("abelian(2,zeta8)", abelian_category(2, make_root(8, 1))),
                      ("abelian(3,zeta3)", abelian_category(3, make_root(3, 1))),
                      ("abelian(4,zeta8)", abelian_category(4, make_root(8, 1)))):
        res = check_axioms(cat)
        rep.lines.append(f"{name}: {res.summary()}")
        if not (res.premodular and res.modular and res.transparent == (0,)):
            _fail(rep, f"{name} fails the axiom battery",
                  {"category": name, "violations": res.violations})
    return rep


def verify_refinability() -> Report:
    """Nontrivial 2-refinable iff r even; spin iff r divisible by 4."""
    rep = Report("refinability", True)
    for r in REFINABILITY_RS:
        cat = sl2_category(r)
        structs = [s for s in refinable_structures(cat) if not s.is_trivial]
        expect_refinable = (r % 2 == 0)
        expect_spin = (r % 4 == 0)
        got_refinable = bool(structs)
        got_spin = any(s.is_spin for s in structs)
        orders = sorted(s.order for s in structs)
        ok = (got_refinable == expect_refinable and got_spin == expect_spin
              and (orders == [2]) == expect_refinable)
        rep.lines.append(
            f"sl2({r}): nontrivial structures={orders}, spin={got_spin} "
            f"(expected refinable={expect_refinable}, spin={expect_spin})")
        if not ok:
            _fail(rep, f"sl2({r}) refinability mismatch",
                  {"r": r, "orders": orders, "spin": got_spin})
    return rep


def verify_lemmas() -> Report:
    """Exact graded-unknot vanishing and Kirby-color decomposition."""
    rep = Report("lemmas", True)
    for r, spin, live in ((8, True, 1), (6, False, 0)):
        cat = sl2_category(r)
        ev = Evaluator(cat)
        grad = ev.structure_grading(2, spin=spin)
        for sign in (1, -1):
            for u in range(2):
                val = ev.unknot_value(sign, ev.graded_color(grad, u, 1))
                should_vanish = (u != live)
                rep.lines.append(
                    f"sl2({r}) F(U_{sign:+d}(omega_{u})) "
                    f"{'= 0' if val.is_zero() else '!= 0'}")
                if val.is_zero() != should_vanish:
                    _fail(rep, f"sl2({r}) vanishing pattern wrong at u={u}",
                          {"r": r, "sign": sign, "u": u})
        # graded colors resum to the plain Kirby color
        total = [cat.field.zero] * cat.size
        for u in range(grad.modulus):
            w = ev.graded_color(grad, u, 1)
            total = [a + b for a, b in zip(total, w)]
        if tuple(total) != ev.plain_color():
            _fail(rep, f"sl2({r}): sum of graded Kirby colors != plain",
                  {"r": r})
        if ev.dual_color(grad, 0, 1) != ev.plain_color():
            _fail(rep, f"sl2({r}): dual color at v=0 != plain", {"r": r})
    return rep


def _refinement_jobs(category=None):
    """Triples (category, refinement kind, modulus); defaults to the spin
    and cohomological flagships, or derives the kind from a given
    ``CategoryData``."""
    if category is None:
        return ((sl2_category(8), "spin", 2), (sl2_category(6), "coh", 2))
    structs = [s for s in refinable_structures(category)
               if not s.is_trivial and s.generator is not None]
    if not structs:
        raise ValueError(
            f"category {category.name} has no nontrivial cyclic refinable "
            "structure to verify against")
    s = structs[0]
    return ((category, "spin" if s.is_spin else "coh", s.order),)


def verify_sum(seed: int = 7, size: int = 50, category=None) -> Report:
    """Sum of each refined table equals the unrefined invariant, exactly."""
    rep = Report("sum", True)
    manifolds = corpus(seed, size, SUM_MAX_VERTICES)
    for cat, kind, d in _refinement_jobs(category):
        ev = Evaluator(cat)
        refined = ev.wrt_spin if kind == "spin" else ev.wrt_cohomology
        checked = 0
        for name, f in manifolds:
            w = ev.wrt(f)
            table = refined(f, d)
            if not table.entries:
                _fail(rep, f"{cat.name}/{name}: empty structure set",
                      {"category": cat.name, "manifold": name})
                continue
            if table.total() != w.exact:
                _fail(rep, f"{cat.name}/{name}: sum formula fails",
                      {"category": cat.name, "manifold": name,
                       "wrt": repr(w.exact), "sum": repr(table.total())})
            checked += 1
        rep.lines.append(f"{cat.name} ({kind}): table sums equal the "
                         f"invariant on {checked}/{len(manifolds)} manifolds")
    return rep


def verify_kirby(seed: int = 7, sequences: int = 200,
                 category=None) -> Report:
    """wrt and refined-table multisets are invariant under random move
    sequences (stabilize / blow-up / blow-down / reverse)."""
    rep = Report("kirby", True)
    rng = random.Random(seed)
    base = [("S3_plus", forest([1])), ("S1xS2", forest([0])),
            ("lens_3", forest([3])), ("lens_chain_2_3", chain([2, 3])),
            ("lens_chain_0_2", chain([0, 2])),
            ("E8", e8_forest())]
    for k in range(KIRBY_RANDOM_BASES):
        base.append((f"random_{k}", random_forest(rng, max_vertices=5)))
    charge(sequences * len(base) * KIRBY_MOVES_PER_SEQUENCE,
           f"kirby suite of {sequences} move sequences of up to "
           f"{KIRBY_MOVES_PER_SEQUENCE} moves on {len(base)} manifolds")
    for cat, kind, d in _refinement_jobs(category):
        ev = Evaluator(cat)
        refined = ev.wrt_spin if kind == "spin" else ev.wrt_cohomology
        total = 0
        for name, f0 in base:
            w0 = ev.wrt(f0).exact
            table0 = refined(f0, d).multiset()
            for _ in range(sequences):
                _, f1 = random_move_sequence(
                    rng, f0, rng.randint(1, KIRBY_MOVES_PER_SEQUENCE))
                if ev.wrt(f1).exact != w0:
                    _fail(rep, f"{cat.name}/{name}: wrt changed under moves",
                          {"category": cat.name, "manifold": name,
                           "forest": (f1.framings, f1.edges)})
                    break
                table1 = refined(f1, d).multiset()
                if table1 != table0:
                    _fail(rep, f"{cat.name}/{name}: refined multiset changed",
                          {"category": cat.name, "manifold": name,
                           "forest": (f1.framings, f1.edges)})
                    break
                total += 1
        rep.lines.append(f"{cat.name} ({kind}): {total} move sequences, "
                         f"wrt and table multisets exactly invariant")
    return rep


def verify_oracle(seed: int = 7) -> Report:
    """Message-passing evaluator vs brute-force coloring sums; SNF solver vs
    brute-force enumeration."""
    rep = Report("oracle", True)
    rng = random.Random(seed)
    cats = [sl2_category(5), sl2_category(6),
            abelian_category(3, make_root(3, 1)),
            abelian_category(2, make_root(8, 1))]
    evs = [Evaluator(c) for c in cats]
    agree = 0
    for k in range(ORACLE_INSTANCES):
        i = rng.randrange(len(cats))
        cat, ev = cats[i], evs[i]
        f = random_forest(rng, max_vertices=4, max_framing=3)
        weights = []
        for _ in range(f.n):
            if rng.random() < 0.6:
                weights.append(kirby_color(cat, "plain"))
            else:
                vec = tuple(cat.field.from_integer(rng.randint(-2, 2))
                            for _ in range(cat.size))
                weights.append(vec)
        got = ev.eval_weighted(f, weights)
        want = ev.brute_weighted(f, weights)
        if got != want:
            _fail(rep, f"instance {k}: DP != brute force",
                  {"category": cat.name, "forest": (f.framings, f.edges)})
        else:
            agree += 1
    rep.lines.append(
        f"evaluator vs brute force: {agree}/{ORACLE_INSTANCES} exact")
    agree = 0
    for k in range(ORACLE_INSTANCES):
        n = rng.randint(1, 4)
        d = rng.choice([2, 2, 3, 4, 4, 5, 6, 8])
        mat = _random_symmetric(rng, n, 5, (0, 0, 0, 1, -1))
        m = as_matrix(mat)
        coh = structures.cohomology_classes(m, d).solutions
        ok = coh == structures.brute_cohomology_classes(m, d)
        if d % 2 == 0:
            spin = structures.spin_solutions(m, d).solutions
            ok = (ok and spin == structures.brute_spin_solutions(m, d)
                  and len(spin) in (0, len(coh)))
        ok = ok and (structures.homology_classes(m, d).classes
                     == structures.brute_homology_classes(m, d))
        if not ok:
            _fail(rep, f"instance {k}: SNF solver != brute force",
                  {"matrix": mat, "d": d})
        else:
            agree += 1
    rep.lines.append(
        f"SNF solver vs brute force: {agree}/{ORACLE_INSTANCES} exact")
    return rep


def verify_bijection(seed: int = 7) -> Report:
    """|Chern-vector classes| equals the cokernel count |H^2(M; Z_d)|."""
    rep = Report("bijection", True)
    rng = random.Random(seed)
    agree = 0
    for k in range(BIJECTION_INSTANCES):
        n = rng.randint(1, 4)
        d = rng.choice([2, 3, 4])
        mat = _random_symmetric(rng, n, 5, (0, 0, 1, -1))
        m = as_matrix(mat)
        chern = structures.chern_vectors(m, d)
        coker = structures.coker_count(m, d)
        if chern.count != coker:
            _fail(rep, f"instance {k}: |chern| = {chern.count} != {coker}",
                  {"matrix": mat, "d": d})
        else:
            agree += 1
    rep.lines.append(f"chern class count == cokernel count: "
                     f"{agree}/{BIJECTION_INSTANCES}")
    return rep


def verify_decomposition(seed: int = 7, size: int = 50) -> Report:
    """Exact splitting into the reduced invariant and the Gauss-sum factor."""
    rep = Report("decomposition", True)
    manifolds = corpus(seed, size)
    for r in DECOMPOSITION_RS:
        cat = sl2_category(r)
        data = decomposition_data(cat)
        ev = Evaluator(cat)
        red_ev = Evaluator(data.reduced)
        checked = 0
        for name, f in manifolds:
            res = decomposition_check(cat, f, data, ev, red_ev)
            if not res["equal"]:
                _fail(rep, f"sl2({r})/{name}: decomposition fails",
                      {"r": r, "manifold": name,
                       "full": repr(res["full"].exact),
                       "reduced": repr(res["reduced"].exact),
                       "moo": repr(res["moo"].exact)})
            else:
                checked += 1
        rep.lines.append(
            f"sl2({r}): tau = tau_reduced * moo(m={data.m}, xi) exact on "
            f"{checked}/{len(manifolds)} manifolds")
    return rep


def verify_moo() -> Report:
    """Gauss-sum invariant sanity: normalization, moduli, refined partition."""
    rep = Report("moo", True)
    xi = make_root(4, 1)
    v1 = moo(as_matrix([[1]]), 2, xi).exact
    v0 = moo(as_matrix([[0]]), 2, xi).exact
    rep.lines.append(f"moo([1]) = {v1!r}, moo([0]) = {v0!r}")
    if not (v1.is_one() and v0 == 2):
        _fail(rep, "single-vertex moo normalization wrong",
              {"moo[1]": repr(v1), "moo[0]": repr(v0)})
    for m in (3, 5, 7):
        g = gauss_sum(m, make_root(m, 1))
        if g * g.conj() != m:
            _fail(rep, f"|gauss({m})|^2 != {m}", {"m": m})
        else:
            rep.lines.append(f"|gauss_sum({m}, zeta_{m})|^2 = {m} exactly")
    # partition identity: summing refined classes rescales the plain sum
    for mat_rows, m, xi_ord, alpha, delta in (
            ([[0, 1], [1, 2]], 3, 3, 2, 1),
            ([[2, 0], [0, 0]], 2, 8, 1, 2),
            ([[1]], 3, 3, 3, 1)):
        mat = as_matrix(mat_rows)
        xi = make_root(xi_ord, 1)
        sig = _matrix_signature(mat, _support_order(mat))
        params = MooParams(m=m, xi=xi, delta=delta, alpha=alpha)
        total = None
        denoms = None
        for klass in product(range(delta), repeat=len(mat)):
            val = moo_refined(mat, params, klass)
            denoms = (val.denom_plus, val.denom_minus)
            total = val.exact if total is None else total + val.exact
        if delta == 1:
            plain = moo(mat, m, xi).exact
            want = plain.scale(Fraction(alpha ** sig.nullity))
            ok = total == want
        else:
            # unnormalized partition: classes tile the full range exactly
            unnorm = total * denoms[0] ** sig.b_plus \
                * denoms[1] ** sig.b_minus
            big = alpha * delta * m
            whole = moo_refined(
                mat, MooParams(m=big, xi=xi, delta=1, alpha=1),
                (0,) * len(mat))
            whole_unnorm = whole.exact * whole.denom_plus ** sig.b_plus \
                * whole.denom_minus ** sig.b_minus
            ok = unnorm == whole_unnorm
        rep.lines.append(
            f"refined moo partition identity on {mat_rows}, delta={delta}, "
            f"alpha={alpha}: {'exact' if ok else 'FAILS'}")
        if not ok:
            _fail(rep, "refined moo partition identity fails",
                  {"matrix": mat_rows, "m": m, "alpha": alpha, "delta": delta})
    return rep


def verify_spinc(seed: int = 7) -> Report:
    """Complex-spin machinery.

    Runs the Chern-vector pipeline (stabilization and orientation-reversal
    invariance of the refined table) on a modular category with a cyclic
    spin structure of order >= 4 if the bounded extension search produces
    one.  If the search comes up empty -- which the report states
    explicitly rather than skipping silently -- the suite still exercises
    the structure sets: coset partitions, representative independence of
    coset sums, and transport bijections.
    """
    rep = Report("spinc", True)
    rng = random.Random(seed)
    hits = search_higher_spin(min_order=4, rs=SPINC_SEARCH_RS,
                              alphas=SPINC_SEARCH_ALPHAS)
    if hits:
        hit = hits[0]
        rep.lines.append(
            f"search FOUND a >=4-spin modular category: base {hit['base']}, "
            f"alpha={hit['alpha']}, spin order {hit['spin_order']}")
        cat = hit["category"]
        ev = Evaluator(cat)
        d = hit["spin_order"] // 2
        odd_d = d % 2 == 1
        if odd_d:
            rep.lines.append(
                f"spin order {hit['spin_order']} gives odd d={d}: running the "
                "pipeline under the exploration override (theorem hypothesis "
                "is d even)")
        for name, f0 in [("S3_plus", forest([1])), ("S1xS2", forest([0])),
                         ("lens_chain_2_3", chain([2, 3]))]:
            t_base = ev.wrt_spinc(f0, d, override=odd_d).multiset()
            for mv in (stabilize(1), stabilize(-1), reverse(0)):
                f1 = apply_move(f0, mv)
                if ev.wrt_spinc(f1, d, override=odd_d).multiset() != t_base:
                    _fail(rep, f"spinc table changed under {mv.kind} on {name}",
                          {"manifold": name, "move": mv.kind})
    else:
        rep.lines.append(
            "CONDITIONAL: bounded extension search (bases sl2(r) for r in "
            f"{SPINC_SEARCH_RS}, alpha in {SPINC_SEARCH_ALPHAS}, both degree "
            "lifts, all admissible roots) found NO modular category with a "
            "cyclic spin structure of order >= 4; the Chern-refined invariant "
            "pipeline has no instance to run on, so this suite covers its "
            "structure-set and coset-partition checks only.")
    # structure-set checks run regardless
    count = 0
    for k in range(40):
        n = rng.randint(1, 3)
        d = rng.choice([2, 4])
        mat = _random_symmetric(rng, n, 4, (0, 0, 1, -1))
        m = as_matrix(mat)
        chern = structures.chern_vectors(m, d)
        two_d = 2 * d
        # coset partition: classes x subgroup tile the parity slice exactly
        tiles = set()
        for rep_vec in chern.classes:
            for s in chern.subgroup:
                tiles.add(tuple((a + b) % two_d for a, b in zip(rep_vec, s)))
        slice_size = d ** n
        if len(tiles) != slice_size or \
                len(chern.classes) * len(chern.subgroup) != slice_size:
            _fail(rep, "chern cosets do not tile the parity slice",
                  {"matrix": mat, "d": d})
            continue
        # representative independence: same coset from a shifted representative
        if chern.classes and len(chern.subgroup) > 1:
            rep_vec = chern.classes[rng.randrange(len(chern.classes))]
            shift = chern.subgroup[rng.randrange(len(chern.subgroup))]
            alt = tuple((a + b) % two_d for a, b in zip(rep_vec, shift))
            coset1 = sorted(tuple((a + b) % two_d for a, b in zip(rep_vec, s))
                            for s in chern.subgroup)
            coset2 = sorted(tuple((a + b) % two_d for a, b in zip(alt, s))
                            for s in chern.subgroup)
            if coset1 != coset2:
                _fail(rep, "coset sum depends on the representative",
                      {"matrix": mat, "d": d})
                continue
        # the factored enumeration behind chern.subgroup agrees with closure
        if structures.image_subgroup(m, two_d, 2) != chern.subgroup:
            _fail(rep, "factored subgroup enumeration mismatch",
                  {"matrix": mat, "d": d})
            continue
        count += 1
    rep.lines.append(f"chern coset partition / representative / factored "
                     f"checks: {count}/40 exact")
    if not hits:
        # exploration only, never asserted: the d=1 stabilization identity
        cat = sl2_category(8)
        ev = Evaluator(cat)
        f0 = forest([1])
        try:
            t_before = ev.wrt_spinc(f0, 1, override=True).multiset()
            t_after = ev.wrt_spinc(apply_move(f0, stabilize(1)), 1,
                                   override=True).multiset()
            rep.lines.append(
                "exploration (not asserted): d=1 override stabilization "
                + ("invariant" if t_before == t_after else "NOT invariant"))
        except Exception as exc:  # exploration must never fail the suite
            rep.lines.append(f"exploration (not asserted) raised: {exc}")
    return rep


ALL_SUITES = {
    "axioms": verify_axioms,
    "refinability": verify_refinability,
    "lemmas": verify_lemmas,
    "sum": verify_sum,
    "kirby": verify_kirby,
    "oracle": verify_oracle,
    "bijection": verify_bijection,
    "decomposition": verify_decomposition,
    "moo": verify_moo,
    "spinc": verify_spinc,
}


def run_suite(name: str, **kwargs) -> Report:
    """Run one suite, passing it only the keyword arguments it accepts."""
    if name not in ALL_SUITES:
        raise ValueError(f"unknown verification suite {name!r}; "
                         f"choose from {sorted(ALL_SUITES)}")
    fn = ALL_SUITES[name]
    accepted = inspect.signature(fn).parameters
    return fn(**{k: v for k, v in kwargs.items() if k in accepted})


def run_all(seed: int = 7) -> list[Report]:
    return [run_suite(name, seed=seed) for name in ALL_SUITES]
