"""Exact evaluation of colored and refined invariants on plumbing forests.

For a fixed coloring of a plumbing tree, the invariant factorizes over the
tree: rooted anywhere, it is

    qdim(color(root)) * prod_v twist(color(v))^framing(v)
                      * prod_(parent u, child v) S^(sign)[color(v)][color(u)] / qdim(color(u))

with S^(+) the Hopf matrix and S^(-) its dual-color twin; forests multiply
over trees.  Weighted sums over all colorings take one leaves-first pass
(`PlumbingForest.rooted`) in O(n |labels|^2) ring operations, pinned
against a brute-force sum over all colorings; subtrees are interned by
content, so a subtree the evaluator has seen before costs one lookup.

The unrefined invariant divides by F(U_+1(omega))^b+ F(U_-1(omega))^b-;
refined tables reuse exactly these unrefined denominators (the graded
denominators agree where nonzero, but the normalization is fixed once).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, product

from . import structures, surgery
from .budget import charge
from .category import (CategoryData, Grading, GradingError,
                       RefinableStructure, _monodromy_scale,
                       default_primitive_root, grading, invertibles,
                       kirby_color, refinable_structures)
from .constructions import _root_order_bound, reduced_subcategory
from .cyclo import CycloNumber, MatrixRow
# `signature` stays importable from here: perfbench's tracer self-test
# reads `invariants.signature`
from .surgery import (PlumbingForest, SignaturePair, forest_signature,
                      signature)

# field coefficients (entries x labels x field degree) an Evaluator's
# subtree store may hold before it is cleared; the largest store measured,
# `verify all --seed 7` on sl2(8), needs 232,512, and one coefficient
# takes about 10-18 bytes
SUBTREE_STORE_BUDGET = 1 << 19


class InvariantError(ValueError):
    pass


class ZeroDimensionError(InvariantError):
    """A label with zero quantum dimension sits on an internal vertex."""


class NormalizationError(InvariantError):
    """A +-1-framed unknot evaluates to zero (category not modular, or
    corrupt data)."""


class RefinementError(InvariantError):
    """The category does not carry the requested refinable structure."""


class MooError(InvariantError):
    pass


@dataclass(frozen=True)
class InvariantValue:
    """An exact invariant with its normalization record; ``approx`` is its
    complex shadow, computed from ``exact`` on each read."""

    exact: CycloNumber
    b_plus: int
    b_minus: int
    denom_plus: CycloNumber
    denom_minus: CycloNumber

    @property
    def approx(self) -> complex:
        return self.exact.embed_complex()


@dataclass
class RefinedInvariantTable:
    """Per-structure invariant values; keys are exactly the structure set."""

    kind: str
    modulus: int
    entries: dict[tuple[int, ...], InvariantValue]

    def total(self) -> CycloNumber:
        values = list(self.entries.values())
        if not values:
            raise InvariantError("empty refined table has no total")
        acc = values[0].exact
        for v in values[1:]:
            acc = acc + v.exact
        return acc

    def multiset(self) -> tuple:
        """Order-free fingerprint of the exact values, for move invariance."""
        return tuple(sorted((v.exact.num, v.exact.den)
                            for v in self.entries.values()))


def _weight_vec(cat: CategoryData, w) -> tuple[CycloNumber, ...]:
    vec = tuple(w)
    if len(vec) != cat.size:
        raise InvariantError("weight vector length mismatch")
    return vec


def _support(vec) -> list[int]:
    return [lam for lam, w in enumerate(vec) if not w.is_zero()]


def delta_weight(cat: CategoryData, label: int) -> tuple[CycloNumber, ...]:
    """Weight selecting a single color with coefficient one."""
    one, zero = cat.field.one, cat.field.zero
    return tuple(one if lam == label else zero for lam in range(cat.size))


def _check_modulus(d: int) -> None:
    if d < 1:
        raise RefinementError("modulus d must be positive")


class Evaluator:
    """Caches per-category data across many forest evaluations: one vertex
    atom theta^framing * qdim^-k per (label, framing, k), subtree messages,
    Hopf-matrix rows, the two unknot denominators with their inverses,
    normalization factors, and the gradings keyed by (generator, e_k).
    `eval_weighted` walks the forest's `rooted` order once: a vertex folds
    its inbox of child messages and posts its own to its parent; a root
    multiplies its tree's total into the product.  Every subtree is
    interned by content in a bounded store, so a subtree repeated within
    a forest, or across the many graded evaluations of a table, is folded
    once.

    All evaluation methods are pure functions of (category, forest,
    weights); every cache is keyed by content (labels, integers or the
    weight vector itself), never by a caller-supplied name, so memoization
    cannot change a result.
    """

    def __init__(self, cat: CategoryData):
        self.cat = cat
        self._scales: dict[tuple[int, int, int], CycloNumber] = {}
        self._subtrees: dict[tuple, tuple[int, object]] = {}
        self._store_limit = max(
            1, SUBTREE_STORE_BUDGET // (cat.size * cat.field.degree))
        self._subtree_ids = count()
        self._matrix_rows: dict[int, MatrixRow] = {}
        self._denoms: dict[int, CycloNumber] = {}
        self._denom_inv: dict[int, CycloNumber] = {}
        self._norms: dict[tuple[int, int], CycloNumber] = {}
        self._group = None
        self._refinables: list[RefinableStructure] | None = None
        self._gradings: dict[tuple[int, int], Grading] = {}

    # -- cached atoms --------------------------------------------------------

    def _scale(self, lam: int, framing: int, k: int) -> CycloNumber:
        """theta_lam^framing * qdim_lam^-k for k >= -1: the factor of a
        vertex of degree k + 1 colored lam with weight one.  theta^-1 and
        qdim^-1 are inverted once per label, as the entries (lam, -1, 0)
        and (lam, 0, 1), and every other entry is built from entries with
        framing or k nearer 0, so no label is inverted twice.  k >= 1 on
        a zero quantum dimension is a ZeroDimensionError."""
        key = (lam, framing, k)
        val = self._scales.get(key)
        if val is None:
            cat = self.cat
            if k == -1:
                val = self._scale(lam, framing, 0) * cat.qdim[lam]
            elif k and framing:
                val = self._scale(lam, framing, 0) * self._scale(lam, 0, k)
            elif k > 1:
                val = self._scale(lam, 0, 1) ** k
            elif k:
                if cat.qdim[lam].is_zero():
                    raise ZeroDimensionError(f"label {lam} has zero quantum "
                                             "dimension on an internal vertex")
                val = cat.qdim[lam].invert()
            elif framing == -1:
                val = cat.twist[lam].invert()
            elif framing < 0:
                val = self._scale(lam, -1, 0) ** -framing
            else:
                val = cat.twist[lam] ** framing
            self._scales[key] = val
        return val

    def _srow(self, lam: int, sign: int):
        if sign == 1:
            return self.cat.smat[lam]
        return self.cat.smat[self.cat.dual[lam]]

    def _matrix_row(self, lam: int, sign: int) -> MatrixRow:
        """Row lam of S^sign prepared for `vecmat`, kept per row of smat:
        S^- row lam is smat row dual(lam)."""
        i = lam if sign == 1 else self.cat.dual[lam]
        row = self._matrix_rows.get(i)
        if row is None:
            row = self._matrix_rows[i] = MatrixRow(self.cat.field,
                                                   self.cat.smat[i])
        return row

    # -- plain evaluation ----------------------------------------------------

    def unknot_value(self, framing: int, weight) -> CycloNumber:
        """Invariant of one framed unknot with a weighted color."""
        return self._fold(_weight_vec(self.cat, weight), framing, 0, ())

    def eval_colored(self, forest: PlumbingForest, colors,
                     root: int | None = None) -> CycloNumber:
        """One fixed coloring by the product formula, rooted at `root`."""
        colors = tuple(colors)
        if len(colors) != forest.n:
            raise InvariantError("one color per vertex required")
        parent, sign, order = forest.rooted_at(root)
        value = self.cat.field.one
        for v in order:
            lam, p = colors[v], parent[v]
            if p < 0:
                value = value * self._scale(lam, forest.framings[v], -1)
            else:
                value = value * self._scale(lam, forest.framings[v], 0) \
                    * self._srow(lam, sign[v])[colors[p]] \
                    * self._scale(colors[p], 0, 1)
        return value

    def eval_weighted(self, forest: PlumbingForest, weights) -> CycloNumber:
        """Sum over all colorings of the per-vertex weights times the colored
        invariant, in one leaves-first pass over the forest.

        Each rooted subtree is interned by content: (weight vector, framing,
        sign of the edge to the parent, sorted child ids), with sign 0 at a
        root.  The key maps to an id and to the subtree's outgoing message
        (its tree total at a root), so a subtree seen before, in this
        forest or an earlier one, costs one lookup.  Ids are never reused,
        so clearing the store, once its entries would hold more than
        `SUBTREE_STORE_BUDGET` field coefficients, only loses sharing."""
        vecs = [_weight_vec(self.cat, w) for w in weights]
        if len(vecs) != forest.n:
            raise InvariantError("one weight per vertex required")
        parent, signs, order = forest.rooted
        store = self._subtrees
        inbox: list[list[tuple[int, tuple]]] = [[] for _ in vecs]
        total = self.cat.field.one
        for v in order:
            kids = inbox[v]
            vec, framing, sign = vecs[v], forest.framings[v], signs[v]
            key = (vec, framing, sign, tuple(sorted(i for i, _ in kids)))
            entry = store.get(key)
            if entry is None:
                entry = (next(self._subtree_ids),
                         self._fold(vec, framing, sign, [m for _, m in kids]))
                if len(store) >= self._store_limit:
                    store.clear()
                store[key] = entry
            if parent[v] < 0:
                total = total * entry[1]
            else:
                inbox[parent[v]].append(entry)
        return total

    def _fold(self, vec, framing: int, sign: int, msgs):
        """A vertex with its children's messages folded in: the message
        to its parent along an edge of `sign`, or at a root (sign 0) the
        total of its tree.  With k messages, label lam has the vertex
        factor vec[lam] * `_scale`(lam, framing, k); a weight equal to
        qdim[lam], as in every plain and graded color, makes that exactly
        `_scale`(lam, framing, k - 1), so it costs no product, and the
        messages are multiplied in here.  The message is the vector times
        matrix product, sum over lam of f_lam * S^sign[lam][lp] for all
        outgoing labels lp at once (`CycloField.vecmat`); the root total
        is one kernel call, the sum of f_lam * qdim[lam]."""
        k = len(msgs)
        qdim = self.cat.qdim
        terms = []
        for lam in _support(vec):
            w = vec[lam]
            f = (self._scale(lam, framing, k - 1) if w == qdim[lam]
                 else w * self._scale(lam, framing, k))
            for msg in msgs:
                f = f * msg[lam]
            if not f.is_zero():
                terms.append((lam, f))
        field = self.cat.field
        if not sign:
            return field.dot((f, qdim[lam]) for lam, f in terms)
        return field.vecmat(((f, self._matrix_row(lam, sign))
                             for lam, f in terms), self.cat.size)

    def brute_weighted(self, forest: PlumbingForest, weights) -> CycloNumber:
        """Oracle: direct sum over all colorings, no message passing.

        Each vertex's factor per supported label, the weight times
        `_scale`(lam, framing, degree - 1), is built once, so a coloring
        of the supports costs n + |E| multiplies; the colorings are
        charged, times n, before the first."""
        vecs = [_weight_vec(self.cat, w) for w in weights]
        n = forest.n
        supports = [_support(vec) for vec in vecs]
        colorings = math.prod(map(len, supports))
        charge(colorings * n, f"brute-force sum over {colorings} colorings "
               f"of {n} vertices")
        field = self.cat.field
        if not colorings:
            return field.zero
        factors = []
        for v, support in enumerate(supports):
            k = forest.degree(v) - 1
            factors.append({lam: vecs[v][lam]
                            * self._scale(lam, forest.framings[v], k)
                            for lam in support})
        total = field.zero
        for coloring in product(*supports):
            term = field.one
            for fv, lam in zip(factors, coloring):
                term = term * fv[lam]
            for (u, v, sign) in forest.edges:
                term = term * self._srow(coloring[u], sign)[coloring[v]]
            total = total + term
        return total

    # -- normalization -------------------------------------------------------

    def plain_color(self) -> tuple[CycloNumber, ...]:
        return self.cat.qdim

    def denominator(self, sign: int) -> CycloNumber:
        """F(U_sign(omega)), the plain-colored unknot of framing sign."""
        val = self._denoms.get(sign)
        if val is None:
            val = self._denoms[sign] = self._fold(self.cat.qdim, sign, 0, ())
        return val

    def _denominator_inv(self, sign: int) -> CycloNumber:
        val = self._denom_inv.get(sign)
        if val is None:
            den = self.denominator(sign)
            if den.is_zero():
                raise NormalizationError(
                    "F(U_+-1(omega)) vanishes: category is not modular "
                    "or the data is corrupt")
            val = den.invert()
            self._denom_inv[sign] = val
        return val

    def normalize(self, raw: CycloNumber, sig: SignaturePair) -> InvariantValue:
        key = (sig.b_plus, sig.b_minus)
        factor = self._norms.get(key)   # F(U_+1)^-b+ F(U_-1)^-b-
        if factor is None:
            factor = self.cat.field.one
            if sig.b_plus:
                factor = factor * self._denominator_inv(1) ** sig.b_plus
            if sig.b_minus:
                factor = factor * self._denominator_inv(-1) ** sig.b_minus
            self._norms[key] = factor
        return InvariantValue(raw * factor, sig.b_plus, sig.b_minus,
                              self.denominator(1), self.denominator(-1))

    # -- refinement plumbing ---------------------------------------------------

    def group(self):
        if self._group is None:
            self._group = invertibles(self.cat)
        return self._group

    def refinables(self) -> list[RefinableStructure]:
        if self._refinables is None:
            self._refinables = refinable_structures(self.cat, self.group())
        return self._refinables

    def find_structure(self, order: int, spin: bool) -> RefinableStructure:
        for s in self.refinables():
            if s.order == order and s.generator is not None \
                    and s.is_spin == spin:
                return s
        wanted = f"{order}-spin" if spin else f"non-spin {order}-refinable"
        raise RefinementError(f"category {self.cat.name} is not {wanted}")

    def structure_grading(self, order: int, spin: bool,
                          e_k: int = 1) -> Grading:
        return self._grading(self.find_structure(order, spin).generator, e_k)

    def _grading(self, generator: int, e_k: int) -> Grading:
        """Grading by the cyclic subgroup of ``generator`` (order g) under
        e_d = zeta_g^e_k; a non-primitive root is a RefinementError."""
        key = (generator, e_k)
        grad = self._gradings.get(key)
        if grad is None:
            group = self.group()
            try:
                e_d = default_primitive_root(
                    self.cat.field, group.element_orders[generator], e_k)
                grad = grading(self.cat, group, generator, e_d)
            except GradingError as exc:
                raise RefinementError(str(exc)) from exc
            self._gradings[key] = grad
        return grad

    def graded_color(self, grad: Grading, u: int,
                     e_k: int) -> tuple[CycloNumber, ...]:
        """Graded color of degree u.  ``e_k`` is not consulted: the root
        convention travels with ``grad.e_d``."""
        return kirby_color(self.cat, "graded", u % grad.modulus, grad)

    def dual_color(self, grad: Grading, v: int) -> tuple[CycloNumber, ...]:
        """Dual color with character parameter v under ``grad.e_d``."""
        return kirby_color(self.cat, "dual", v % grad.modulus, grad)

    # -- invariants ------------------------------------------------------------

    def wrt(self, forest: PlumbingForest) -> InvariantValue:
        sig = forest_signature(forest)
        raw = self.eval_weighted(forest, [self.cat.qdim] * forest.n)
        return self.normalize(raw, sig)

    def wrt_spin(self, forest: PlumbingForest, d: int,
                 e_k: int = 1) -> RefinedInvariantTable:
        _check_modulus(d)
        grad = self.structure_grading(d, spin=True, e_k=e_k)
        return self._product_table("spin", d, forest, [grad])

    def wrt_cohomology(self, forest: PlumbingForest, d: int,
                       e_k: int = 1) -> RefinedInvariantTable:
        _check_modulus(d)
        grad = self.structure_grading(d, spin=False, e_k=e_k)
        return self._product_table("coh", d, forest, [grad])

    def wrt_homology(self, forest: PlumbingForest, d: int,
                     e_k: int = 1) -> RefinedInvariantTable:
        return self._coset_table("hom", forest, d, e_k)

    def wrt_spinc(self, forest: PlumbingForest, d: int, e_k: int = 1,
                  override: bool = False) -> RefinedInvariantTable:
        """Chern-vector refinement: needs a 2d-spin structure, d even
        (override releases the parity hypothesis for exploration only)."""
        return self._coset_table("spinc", forest, d, e_k, override)

    def _graded_values(self, grads: list[Grading], forest: PlumbingForest,
                       points) -> list[CycloNumber]:
        """Raw F(graded s) for every point s in ``points``.  A point is one
        length-n degree vector per grading, concatenated; vertex v gets the
        labels whose degree under grading j is s[j n + v] for every j,
        weighted by qdim (with one grading, the graded color of s[v])."""
        n = forest.n
        zero = self.cat.field.zero
        degrees = [tuple(g.degree[lam] for g in grads)
                   for lam in range(self.cat.size)]
        colors = {r: tuple(q if deg == r else zero
                           for q, deg in zip(self.cat.qdim, degrees))
                  for r in product(*(range(g.modulus) for g in grads))}
        return [self.eval_weighted(forest, [colors[s[v::n]] for v in range(n)])
                for s in points]

    def _product_table(self, kind: str, modulus: int, forest: PlumbingForest,
                       grads: list[Grading]) -> RefinedInvariantTable:
        """One graded evaluation per point of the product of structure sets,
        one set per grading of modulus g: the characteristic solutions of
        L s = (g/2) diag(L) mod g when the generator has twist -1, the
        kernel of L mod g otherwise.  Entries are keyed by the concatenated
        vectors; the output, |points| x (|grads| n + 1) units, is charged
        before any point is built."""
        mat = forest.linking_matrix()
        sig = forest_signature(forest)
        minus_one = -self.cat.field.one
        sets = [(structures.spin_solutions
                 if self.cat.twist[g.generator] == minus_one
                 else structures.cohomology_classes)(mat, g.modulus).solutions
                for g in grads]
        count = math.prod(map(len, sets))
        width = len(sets) * forest.n
        charge(count * (width + 1), f"product of {len(sets)} structure sets: "
               f"{count} points of {width} coordinates")
        points = [sum(combo, ()) for combo in product(*sets)]
        raw = self._graded_values(grads, forest, points)
        return RefinedInvariantTable(
            kind, modulus,
            {s: self.normalize(v, sig) for s, v in zip(points, raw)})

    def _coset_table(self, kind: str, forest: PlumbingForest, d: int,
                     e_k: int, override: bool = False) -> RefinedInvariantTable:
        """Dual-color sums over cosets of Im L in (Z_d)^n (hom), or of
        2 Im L in the Chern-vector slice of (Z_2d)^n (spinc), by duality.

        The dual color with parameter x is sum_u e^(x.u) graded(u), and
        sum_(s in Im L) e^(s.u) is |Im L| on ker L (L is symmetric) and 0
        elsewhere.  So with F the raw ``eval_weighted``:

            hom(r)       = 1/|ker(L mod d)| * sum_(delta in ker(L mod d))
                               e_d^(r.delta) F(graded delta)
            spinc(sigma) = (-1)^n/|coker(L mod d)|
                           * sum_(delta in spin_solutions(L, 2d))
                               e_2d^(sigma.delta) F(graded delta)

        (for spinc the sum runs over L delta = 0 mod d, and the graded
        colors of a 2d-spin grading vanish off the characteristic
        solutions).  The solutions are offset + sum_i k_i c_i with k in
        prod Z_(g_i), so each sum is the phase e^(r.offset) times one
        value of the Fourier transform of F over prod Z_(g_i)
        (``_character_sums``): |solutions| forest evaluations and
        |solutions| * sum_i g_i ring operations, instead of |classes| *
        |Im L| evaluations.  The coset-by-coset double loop is the test
        oracle.
        """
        _check_modulus(d)
        spinc = kind == "spinc"
        if spinc and d % 2 and not override:
            raise RefinementError(
                "d must be even (pass override=True to explore odd d)")
        mod = 2 * d if spinc else d
        grad = self.structure_grading(mod, spin=spinc, e_k=e_k)
        mat = forest.linking_matrix()
        sig = forest_signature(forest)
        rhs = (structures.characteristic_rhs(mat, mod) if spinc
               else (0,) * forest.n)
        # |classes| = |coker(L mod d)| = |ker(L mod d)|, L being square, so
        # building them first charges a hom table's points before the Smith
        # form runs; spinc has |ker(L mod 2d)| points, from its pivots
        classes = (structures.chern_representatives if spinc
                   else structures.homology_representatives)(mat, d)
        if spinc:
            count = math.prod(structures.howell_pivots(mat, mod))
            charge(count * (forest.n + 1), f"spinc table over {count} points "
                   f"of {forest.n} coordinates")
        # never None: diag(L) mod 2 lies in Im(L mod 2) for symmetric L
        sols = structures.solution_coset(mat, rhs, mod)
        powers = [self.cat.field.one]
        for _ in range(mod - 1):
            powers.append(powers[-1] * grad.e_d)
        sums = _character_sums(
            self._graded_values([grad], forest, sols.points()), sols, powers)
        scale = Fraction((-1) ** forest.n if spinc else 1, len(classes))
        # entry r reads the transform at f_i(r) = r.c_i / (mod/g_i) mod g_i
        freqs = [(g, [(j, x // (mod // g)) for j, x in enumerate(c) if x])
                 for c, g in zip(sols.gens, sols.orders)]
        entries = {}
        for rep in classes:
            index = 0
            for g, coeffs in freqs:
                index = index * g + sum(rep[j] * h for j, h in coeffs) % g
            raw = sums[index]
            e = sum(a * b for a, b in zip(rep, sols.offset)) % mod
            if e:
                raw = powers[e] * raw
            entries[rep] = self.normalize(raw.scale(scale), sig)
        return RefinedInvariantTable(kind, d, entries)

    def wrt_generalized_spin(self, forest: PlumbingForest,
                             generators: list[int],
                             e_k: int = 1) -> RefinedInvariantTable:
        """Refinement over a product of cyclic invertible subgroups.

        Each generator spans one cyclic factor; the factor contributes a
        characteristic-solution set when its generator has twist -1 and a
        kernel (cohomology) set otherwise.  Entries are indexed by the
        concatenation of the per-factor structure vectors, and their sum
        over the full product set equals the unrefined invariant.
        """
        group, cat = self.group(), self.cat
        grads = []
        for g in generators:
            if g not in group.elements:
                raise RefinementError(f"label {g} is not invertible")
            if not all(cat.smat[g][h] == _monodromy_scale(cat, g, h)
                       for h in group.elements):
                raise RefinementError(
                    f"generator {g} has nontrivial degree; the subgroup is "
                    "not refinable")
            grads.append(self._grading(g, e_k))
        return self._product_table("kv", 0, forest, grads)


def _character_sums(values: list[CycloNumber],
                    sols: structures.GeneratedCoset,
                    powers: list[CycloNumber]) -> list[CycloNumber]:
    """The discrete Fourier transform of ``values`` over prod_i Z_(g_i).

    ``values[k]`` belongs to k in lexicographic order, g = ``sols.orders``
    and ``powers[j]`` = e^j for e of order ``sols.modulus`` = M.  Returns,
    at the same positions f, sum_k values[k] prod_i e^((M/g_i) k_i f_i),
    one axis at a time."""
    out = list(values)
    mod = sols.modulus
    stride = len(out)
    for order in sols.orders:
        stride //= order
        step = mod // order
        for block in range(0, len(out), stride * order):
            for base in range(block, block + stride):
                fiber = out[base:base + stride * order:stride]
                for f in range(order):
                    acc = fiber[0]
                    for k in range(1, order):
                        x = fiber[k]
                        if x.is_zero():
                            continue
                        j = step * k * f % mod
                        if j:   # e has exact order M, so e^(M/2) = -1
                            x = -x if 2 * j == mod else powers[j] * x
                        acc = acc + x
                    out[base + f * stride] = acc
    return out


# ---------------------------------------------------------------------------
# Gauss-sum invariants of the linking matrix


@dataclass(frozen=True)
class MooParams:
    """Murakami-Ohtsuki-Okada parameters: base modulus m and root xi, with
    an optional refinement (delta, alpha, congruence class)."""

    m: int
    xi: CycloNumber
    delta: int = 1
    alpha: int = 1


def _check_enumeration_budget(mat, values, bound: int, tree):
    """Charge a Gauss sum before any work, and return the plan
    `_quadratic_sum` runs: `tree`, the `_support_order` of `mat`, or None
    for the dense loop.

    The dense loop is charged prod |values[v]| vectors, the forest pass
    n * base^2 * bound with base = max |values[v]| (about the integer work
    of folding each vertex into its parent, for any number of edges).  A
    forest takes the cheaper of the two, so it never refuses a sum the
    dense loop would run; a matrix with a cycle is always dense."""
    n = len(mat)
    base = max(map(len, values), default=0)
    dense = math.prod(map(len, values))
    if tree is not None and n * base * base * bound < dense:
        charge(n * base * base * bound, f"Gauss sum on a forest of {n} "
               f"vertices with {base} values and {bound} residues each")
        return tree
    charge(dense, f"Gauss sum over {base}^{n} vectors")
    return None


def _dense_counts(mat, values, order: int) -> dict[int, int]:
    """Histogram {l L l mod order: count} over every l in prod values."""
    n = len(mat)
    counts: dict[int, int] = {}
    for vec in product(*values):
        row_tot = 0
        for i in range(n):
            vi = vec[i]
            if vi:
                acc = 0
                mi = mat[i]
                for j in range(n):
                    acc += mi[j] * vec[j]
                row_tot += vi * acc
        e = row_tot % order
        counts[e] = counts.get(e, 0) + 1
    return counts


def _convolve(a: dict[int, int], b: dict[int, int], order: int
              ) -> dict[int, int]:
    out: dict[int, int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = (ea + eb) % order
            out[e] = out.get(e, 0) + ca * cb
    return out


def _forest_counts(mat, values, order: int, tree) -> dict[int, int]:
    """The histogram of `_dense_counts`, by one leaves-to-root pass.

    On a forest, l L l = sum_v f_v l_v^2 + sum_(edges p-c) (L_pc + L_cp)
    l_p l_c.  Vertex v keeps, for each of its values, the residue
    histogram of its subtree; a finished child is folded into its parent
    with the edge term, and the roots' histograms are convolved."""
    parent, leaves_first = tree
    hist = [[{mat[v][v] * x * x % order: 1} for x in values[v]]
            for v in range(len(mat))]
    total = {0: 1}
    for c in leaves_first:
        p = parent[c]
        if p < 0:
            root: dict[int, int] = {}
            for h in hist[c]:
                for e, k in h.items():
                    root[e] = root.get(e, 0) + k
            total = _convolve(total, root, order)
            continue
        w = mat[p][c] + mat[c][p]
        for i, xp in enumerate(values[p]):
            msg: dict[int, int] = {}
            for xc, h in zip(values[c], hist[c]):
                shift = w * xp * xc
                for e, k in h.items():
                    e = (e + shift) % order
                    msg[e] = msg.get(e, 0) + k
            hist[p][i] = _convolve(hist[p][i], msg, order)
    return total


def _quadratic_sum(mat, values, pows: list[CycloNumber],
                   tree) -> CycloNumber:
    """sum over l in prod values of xi^(l L l), with pows[e] = xi^e for
    every residue e mod the order of xi.

    The exponents are counted in integers, by `_forest_counts` when `tree`
    (from `_check_enumeration_budget`) is a forest plan and by the dense
    loop otherwise; the only cyclotomic arithmetic is sum counts[e] xi^e."""
    order = len(pows)
    counts = (_dense_counts(mat, values, order) if tree is None
              else _forest_counts(mat, values, order, tree))
    total = pows[0].field.zero
    for e, c in counts.items():
        total = total + pows[e] * c
    return total


def moo(mat: structures.LinkingMatrix, m: int,
        xi: CycloNumber) -> InvariantValue:
    """Gauss-sum invariant: sum over (Z_m)^n of xi^(l L l), divided by the
    one-variable Gauss sum g and its conjugate to the signature powers.
    It is `moo_refined` at delta = alpha = 1 on the zero class."""
    return moo_refined(mat, MooParams(m, xi), (0,) * len(mat))


def moo_refined(mat: structures.LinkingMatrix, params: MooParams,
                klass: tuple[int, ...]) -> InvariantValue:
    """Refined Gauss-sum invariant over gamma = klass (mod delta), with
    gamma ranging over Z_(alpha delta m); the normalizing Gauss sum runs
    over the residue delta/2 (spin type) or 0 (cohomological type).

    Vertex v runs over range(klass_v, klass_v + alpha delta m, delta).
    When the off-diagonal support of L is a forest, gamma L gamma =
    sum_v f_v gamma_v^2 + sum_(edges p-c) (L_pc + L_cp) gamma_p gamma_c,
    and the sum of xi^(gamma L gamma) is counted by one integer pass over
    the forest in about n (alpha m)^2 order operations instead of
    (alpha m)^n (`_quadratic_sum`), and the signature comes from the
    same `_support_order` by leaf elimination.  The normalizing sum is the
    quadratic sum of the 1x1 form [1], over the same powers of xi."""
    m, xi, delta, alpha = params.m, params.xi, params.delta, params.alpha
    if m < 1 or delta < 1 or alpha < 1:
        raise MooError("m, delta, alpha must be positive")
    n = len(mat)
    if len(klass) != n:
        raise MooError("congruence class has wrong length")
    big = alpha * delta * m
    values = [range(c % delta, c % delta + big, delta) for c in klass]
    bound = _root_order_bound(alpha, delta * m)
    tree = surgery._support_order(mat)
    plan = _check_enumeration_budget(mat, values, bound, tree)
    if not (xi ** bound).is_one():
        raise MooError(f"xi^{bound} != 1: wrong root order for range Z_{big}")
    sig = surgery._matrix_signature(mat, tree)
    pows = [xi.field.one, xi]   # xi^0 .. xi^(order - 1)
    while not pows[-1].is_one():
        pows.append(pows[-1] * xi)
    pows.pop()
    total = _quadratic_sum(mat, values, pows, plan)
    # the normalizing sum is the quadratic sum of the 1x1 form [1]
    g = _quadratic_sum(((1,),), [range(0 if delta % 2 else delta // 2, big,
                                       delta)], pows, None)
    gbar = g.conj()
    if g.is_zero() or gbar.is_zero():
        raise MooError("vanishing refined Gauss sum; invariant undefined")
    exact = total
    if sig.b_plus:
        exact = exact * g.invert() ** sig.b_plus
    if sig.b_minus:
        exact = exact * gbar.invert() ** sig.b_minus
    return InvariantValue(exact, sig.b_plus, sig.b_minus, g, gbar)


# ---------------------------------------------------------------------------
# Decomposition into a reduced invariant and a Gauss-sum factor


@dataclass
class DecompositionData:
    """Everything needed to split the invariant over the reduced
    subcategory: tau_C(M) = tau_reduced(M) * moo(m, xi)(M)."""

    reduced: CategoryData
    m: int
    delta: int
    xi: CycloNumber
    eta: CycloNumber


def decomposition_data(cat: CategoryData) -> DecompositionData:
    """Extract (reduced category, m, xi) from category data alone.

    Requires a cyclic invertible group generated by t with deg(t) = delta
    dividing the order d and gcd(d/delta, delta) = 1.  The root is
    xi = eta <t>^delta with eta the self-braiding coefficient of t^delta,
    eta = twist(t^delta) / qdim(t^delta).
    """
    group = invertibles(cat)
    if group.generator is None:
        raise InvariantError("invertible group is not cyclic")
    t = group.generator
    grad = grading(cat, group)
    d = group.order
    delta = grad.degree[t]
    if delta == 0:
        delta = d
    if d % delta:
        raise InvariantError(f"deg(t) = {delta} does not divide |G| = {d}")
    m = d // delta
    if math.gcd(m, delta) != 1:
        raise InvariantError(
            f"gcd(m, delta) = gcd({m},{delta}) != 1: reduced decomposition "
            "does not apply")
    t_delta = group.power(t, delta)
    eta = cat.twist[t_delta] * cat.qdim[t_delta].invert()
    xi = eta * cat.qdim[t] ** delta
    reduced = reduced_subcategory(cat, grad, m)
    return DecompositionData(reduced=reduced, m=m, delta=delta, xi=xi, eta=eta)


def decomposition_check(cat: CategoryData, forest: PlumbingForest,
                        data: DecompositionData, evaluator: Evaluator,
                        reduced_evaluator: Evaluator) -> dict:
    """Exact test of tau_C = tau_reduced * moo on one manifold, with the
    evaluators of ``cat`` and of ``data.reduced``; returns a witness
    record."""
    full = evaluator.wrt(forest)
    part = reduced_evaluator.wrt(forest)
    gauss = moo(forest.linking_matrix(), data.m, data.xi)
    rhs = part.exact * cat.field.embed(gauss.exact)
    return {
        "equal": full.exact == rhs,
        "full": full,
        "reduced": part,
        "moo": gauss,
    }
