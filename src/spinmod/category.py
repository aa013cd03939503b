"""Premodular and modular category data over a cyclotomic field.

A category is presented by purely numerical data on a finite label set:
duality involution, quantum dimensions, twists, the unnormalized matrix of
Hopf-link values, and fusion multiplicities.  That is exactly the data
that determines colored invariants of plumbing forests, and it is enough
to *decide* the premodular axioms, modularity (a mod-p rank certificate
with exact fallback), transparency, invertibility, gradings and
refinability -- all in exact arithmetic.

Fusion multiplicities are part of the input data rather than derived:
they make invertibility detection, degree additivity and cocycle lifts
exact and decidable.  The monodromy chi_lam(g) = smat[lam][g] /
(qdim(lam) qdim(g)) is z exactly when smat[lam][g] = z qdim(lam) qdim(g);
that product test decides gradings, transparency and refinability
without inverting a quantum dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from operator import mul

from .budget import charge
from .cyclo import CycloField, CycloNumber


class MalformedCategoryError(ValueError):
    """Structural defect (shape mismatch, bad index) found before axiom checks."""


class GradingError(ValueError):
    """Character values incompatible with the requested cyclic grading."""


class CategoryData:
    """Numerical presentation of a premodular category.

    ``labels`` is a tuple of label names; a label is its position
    ``0..size-1`` in it, with ``0`` the unit object.
    ``smat[a][b]`` is the value of the (a,b)-colored 0-framed Hopf link
    with linking +1; ``fusion[a][b][c]`` the multiplicity of ``c`` in
    ``a (x) b``.  Instances are immutable by convention and safe to share.
    """

    __slots__ = ("name", "field", "labels", "dual", "qdim", "twist", "smat",
                 "fusion")

    def __init__(self, name: str, field: CycloField, labels, dual, qdim,
                 twist, smat, fusion):
        self.name = name
        self.field = field
        self.labels = tuple(labels)
        self.dual = tuple(dual)
        self.qdim = tuple(qdim)
        self.twist = tuple(twist)
        self.smat = tuple(tuple(row) for row in smat)
        self.fusion = tuple(tuple(tuple(row) for row in plane)
                            for plane in fusion)
        self._validate_shapes()

    @property
    def size(self) -> int:
        return len(self.labels)

    def _validate_shapes(self) -> None:
        n = len(self.labels)
        if n == 0:
            raise MalformedCategoryError("empty label set")
        if len(self.dual) != n or sorted(self.dual) != list(range(n)):
            raise MalformedCategoryError("dual must be a permutation of labels")
        for seq, what in ((self.qdim, "qdim"), (self.twist, "twist")):
            if len(seq) != n:
                raise MalformedCategoryError(f"{what} has wrong length")
            for v in seq:
                if v.field is not self.field:
                    raise MalformedCategoryError(f"{what} entry in wrong field")
        if any(v.is_zero() for v in self.twist):
            raise MalformedCategoryError("twists must be nonzero")
        if len(self.smat) != n or any(len(row) != n for row in self.smat):
            raise MalformedCategoryError("smat is not square of the right size")
        if (len(self.fusion) != n
                or any(len(p) != n for p in self.fusion)
                or any(len(r) != n for p in self.fusion for r in p)):
            raise MalformedCategoryError("fusion tensor has wrong shape")
        for p in self.fusion:
            for r in p:
                for v in r:
                    if not isinstance(v, int) or v < 0:
                        raise MalformedCategoryError(
                            "fusion multiplicities must be nonnegative integers")

    def fusion_channels(self, a: int, b: int) -> tuple[tuple[int, int], ...]:
        """Nonzero fusion channels of a (x) b as (label, multiplicity) pairs."""
        return tuple((c, m) for c, m in enumerate(self.fusion[a][b]) if m)

    def __repr__(self) -> str:
        return f"CategoryData({self.name!r}, |labels|={self.size}, N={self.field.order})"


@dataclass
class AxiomReport:
    """Outcome of the premodular/modular axiom battery."""

    premodular: bool
    modular: bool
    transparent: tuple[int, ...]
    violations: list[str]
    global_dim: CycloNumber
    criterion_agreement: bool | None

    def summary(self) -> str:
        status = []
        status.append("premodular" if self.premodular else "NOT premodular")
        status.append("modular" if self.modular else "not modular")
        status.append(f"transparent={list(self.transparent)}")
        if self.violations:
            status.append(f"{len(self.violations)} violations")
        return ", ".join(status)


def check_axioms(cat: CategoryData) -> AxiomReport:
    """Verify the ribbon/fusion identities, transparency and exact modularity.

    ``premodular`` means every checkable identity holds exactly; ``modular``
    that the Hopf-link matrix has full rank over the field.  When the global
    dimension is nonzero, the report also records whether modularity agrees
    with the transparency criterion (no transparent object besides the unit).

    Fusion associativity is compared for each pair (a, b) on two integers
    that pack both sides for every (c, d) as nonnegative base-2^w digits,
    so big-integer products replace the loop over every (a, b, c); a
    mismatch is read digit by digit, and the violations come in the
    order of that loop.
    """
    n = cat.size
    one = cat.field.one
    violations: list[str] = []

    def complain(msg: str) -> None:
        violations.append(msg)

    dual, qdim, twist, smat = cat.dual, cat.qdim, cat.twist, cat.smat
    if dual[0] != 0:
        complain("dual(unit) != unit")
    for a in range(n):
        if dual[dual[a]] != a:
            complain(f"dual is not an involution at {a}")
        if qdim[a] != qdim[dual[a]]:
            complain(f"qdim({a}) != qdim(dual {a})")
        if twist[a] != twist[dual[a]]:
            complain(f"twist({a}) != twist(dual {a})")
    if qdim[0] != one:
        complain("qdim(unit) != 1")
    if twist[0] != one:
        complain("twist(unit) != 1")
    if smat[0][0] != one:
        complain("smat[0][0] != 1")
    for a in range(n):
        if smat[a][0] != qdim[a]:
            complain(f"smat[{a}][0] != qdim({a})")
        for b in range(a, n):
            if smat[a][b] != smat[b][a]:
                complain(f"smat not symmetric at ({a},{b})")
    for a in range(n):
        for b in range(n):
            expected = 1 if a == b else 0
            if cat.fusion[a][0][b] != expected or cat.fusion[0][a][b] != expected:
                complain(f"unit fusion fails at ({a},{b})")
            if cat.fusion[a][b][0] != (1 if b == dual[a] else 0):
                complain(f"duality channel fails at ({a},{b})")
    # Associativity of fusion multiplicities: (a b) c has sum_e N_ab^e N_ec^d
    # copies of d, a (b c) has sum_e N_bc^e N_ae^d.  For each (a, b) both
    # sides, for every (c, d) at once, are one integer with digit c*n + d in
    # base 2^w: P[x][y] packs N_xy^d at digit d, Q[e] packs P[e][c] at
    # digit group c, T[b][e] packs N_bc^e at digit group c, and
    #   left  = sum_e N_ab^e Q[e],    right = sum_e P[a][e] T[b][e].
    # Every term is nonnegative and every digit is at most (largest row
    # sum of N) * (largest N) < 2^w, so the digits never carry and the two
    # integers are equal exactly when the two sides are.  P, Q and T[b]
    # each hold n^3 w bits, which are charged before any is packed; T[b] is
    # built once, for its b, and the mismatched digits of every (a, b) are
    # reported in (a, b, c; d) order at the end.
    fusion = cat.fusion
    most = (max(sum(row) for plane in fusion for row in plane)
            * max(max(row) for plane in fusion for row in plane))
    w = max(1, most.bit_length())
    group = n * w
    charge(n * n * group, f"packed fusion associativity on {n} labels: "
           f"{n * n * group} bits per table")
    packed = [[sum(m << w * d for d, m in enumerate(row) if m) for row in plane]
              for plane in fusion]
    q = [sum(p << group * c for c, p in enumerate(prow)) for prow in packed]
    mask = (1 << w) - 1
    mismatches = []
    for b, plane in enumerate(fusion):
        tb = [0] * n
        for c, row in enumerate(plane):
            for e, m in enumerate(row):
                if m:
                    tb[e] += m << group * c
        for a in range(n):
            left = sum(m * q[e] for e, m in enumerate(fusion[a][b]) if m)
            right = sum(map(mul, packed[a], tb))
            if left != right:
                mismatches += [(a, b, k) for k in range(n * n)
                               if (left >> w * k) & mask
                               != (right >> w * k) & mask]
    for a, b, k in sorted(mismatches):
        c, d = divmod(k, n)
        complain(f"fusion associativity fails at ({a},{b},{c};{d})")
    # Ribbon identity: twist(a) twist(b) smat[a][b] = sum_c N^c_ab twist(c) qdim(c).
    for a in range(n):
        for b in range(a, n):
            lhs = twist[a] * twist[b] * smat[a][b]
            rhs = cat.field.dot((twist[c] * mult, qdim[c])
                                for c, mult in enumerate(fusion[a][b]) if mult)
            if lhs != rhs:
                complain(f"ribbon identity fails at ({a},{b})")

    transparent = tuple(a for a in range(n)
                        if all(smat[a][b] == qdim[a] * qdim[b] for b in range(n)))

    modular = _rank_mod_p(cat) == n or _rank(cat) == n
    global_dim = cat.field.dot((q, q) for q in qdim)
    agreement: bool | None = None
    if not global_dim.is_zero():
        agreement = modular == (transparent == (0,))

    return AxiomReport(
        premodular=not violations,
        modular=modular,
        transparent=transparent,
        violations=violations,
        global_dim=global_dim,
        criterion_agreement=agreement,
    )


@lru_cache(maxsize=None)
def _prime_and_root_powers(order: int) -> tuple[int, tuple[int, ...]]:
    """A prime p = 1 (mod N) near 2^31 and g^0..g^(N-1) for an element g
    of exact order N in F_p, i.e. a root of Phi_N mod p."""
    p = (1 << 31) // order * order + 1
    while not _is_prime(p):
        p += order
    prime_factors = [q for q in range(2, order + 1)
                     if order % q == 0 and _is_prime(q)]
    h = 2
    while True:
        g = pow(h, (p - 1) // order, p)
        if all(pow(g, order // q, p) != 1 for q in prime_factors):
            break
        h += 1
    powers = [1]
    for _ in range(order - 1):
        powers.append(powers[-1] * g % p)
    return p, tuple(powers)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.4 * 10^14."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17)
    for q in bases:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rank_mod_p(cat: CategoryData) -> int:
    """Rank of the Hopf-link matrix under zeta -> g in F_p, a lower bound
    for the exact rank (0 when p divides some denominator).

    zeta -> g is a ring map Z[zeta][1/den] -> F_p since g is a root of
    Phi_N mod p, so a minor that is nonzero mod p is nonzero over Q(zeta).
    """
    n = cat.size
    p, powers = _prime_and_root_powers(cat.field.order)
    rows = []
    for row in cat.smat:
        out = []
        for v in row:
            if v.den % p == 0:
                return 0
            acc = sum(c * powers[j] for j, c in enumerate(v.num) if c)
            out.append(acc * pow(v.den, -1, p) % p)
        rows.append(out)
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        top = [v * inv % p for v in rows[rank]]
        rows[rank] = top
        for r in range(rank + 1, n):
            f = rows[r][col]
            if f:
                rows[r] = [(v - f * w) % p for v, w in zip(rows[r], top)]
        rank += 1
    return rank


def _rank(cat: CategoryData) -> int:
    """Exact rank of the Hopf-link matrix over the cyclotomic field."""
    n = cat.size
    rows = [list(row) for row in cat.smat]
    rank = 0
    for col in range(n):
        pivot = None
        for r in range(rank, n):
            if not rows[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].invert()
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(n):
            if r != rank and not rows[r][col].is_zero():
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[rank])]
        rank += 1
        if rank == n:
            break
    return rank


@dataclass
class InvertibleGroup:
    """The finite abelian group of invertible labels, with its fusion table."""

    elements: tuple[int, ...]
    table: dict[tuple[int, int], int]
    order: int
    element_orders: dict[int, int]
    generator: int | None

    def power(self, g: int, k: int) -> int:
        k %= self.element_orders[g]
        result = 0
        for _ in range(k):
            result = self.table[(result, g)]
        return result


def invertibles(cat: CategoryData) -> InvertibleGroup:
    """Detect invertible labels from fusion: tensoring preserves simplicity
    and the dual is a two-sided inverse."""
    n = cat.size
    elems = []
    for g in range(n):
        if cat.fusion[g][cat.dual[g]][0] != 1:
            continue
        if all(sum(cat.fusion[g][lam]) == 1 for lam in range(n)):
            elems.append(g)
    if 0 not in elems:
        raise MalformedCategoryError("the unit label 0 is not invertible")
    table: dict[tuple[int, int], int] = {}
    for g in elems:
        for h in elems:
            chans = cat.fusion_channels(g, h)
            if len(chans) != 1 or chans[0][1] != 1 or chans[0][0] not in elems:
                raise MalformedCategoryError(
                    f"invertible product {g}*{h} is not a single invertible "
                    "label")
            table[(g, h)] = chans[0][0]
    orders: dict[int, int] = {}
    for g in elems:
        k, cur = 1, g
        while cur != 0:
            if k == len(elems):
                raise MalformedCategoryError(
                    f"no power of invertible label {g} is the unit")
            cur = table[(cur, g)]
            k += 1
        orders[g] = k
    generator = None
    for g in elems:
        if orders[g] == len(elems):
            generator = g
            break
    return InvertibleGroup(
        elements=tuple(elems),
        table=table,
        order=len(elems),
        element_orders=orders,
        generator=generator,
    )


def _monodromy_scale(cat: CategoryData, lam: int, g: int) -> CycloNumber:
    """qdim(lam) qdim(g), the denominator of the monodromy chi_lam(g) =
    smat[lam][g] / (qdim(lam) qdim(g)): chi_lam(g) = z exactly when
    smat[lam][g] == z * this, so no quantum dimension is inverted.

    Raises GradingError when it is zero (corrupt data)."""
    dims = cat.qdim[lam] * cat.qdim[g]
    if dims.is_zero():
        zero = lam if cat.qdim[lam].is_zero() else g
        raise GradingError(f"qdim of label {zero} is zero (corrupt data)")
    return dims


@dataclass
class Grading:
    """Z_d grading of the label set induced by a cyclic group of invertibles.

    ``degree[lam]`` is the discrete log of chi_lam(generator) in base
    ``e_d``; it is additive under fusion.  Dual Kirby colors depend on the
    choice of ``e_d``, so the root is an explicit, user-visible parameter.
    """

    modulus: int
    generator: int
    e_d: CycloNumber
    degree: tuple[int, ...]


def default_primitive_root(field: CycloField, d: int, k: int = 1) -> CycloNumber:
    """zeta_N^(k N/d): the default (k=1) primitive d-th root used for gradings."""
    if d < 1 or field.order % d != 0:
        raise GradingError(f"{d} does not divide the field order {field.order}")
    if gcd(k, d) != 1:
        raise GradingError(f"zeta_{d}^{k} is not primitive")
    return field.zeta(k * (field.order // d))


def grading(cat: CategoryData, group: InvertibleGroup,
            generator: int | None = None,
            e_d: CycloNumber | None = None) -> Grading:
    """Compute degrees with respect to a cyclic (sub)group of invertibles.

    The degree of lam is the k with chi_lam(t) = e_d^k, found by the
    multiplicative test smat[lam][t] == e_d^k qdim(lam) qdim(t), so no
    quantum dimension is inverted.  Raises GradingError if the group is
    not cyclic, if some qdim(lam) qdim(t) is zero, or if some character
    value is not a power of ``e_d`` (corrupt data).
    """
    t = generator if generator is not None else group.generator
    if t is None:
        raise GradingError("group is not cyclic; no distinguished generator")
    if t not in group.elements:
        raise GradingError(f"label {t} is not invertible")
    d = group.element_orders[t]
    if e_d is None:
        e_d = default_primitive_root(cat.field, d)
    powers = {}
    cur = cat.field.one
    for k in range(d):
        powers[cur] = k
        cur = cur * e_d
    if not cur.is_one():
        raise GradingError("e_d is not a d-th root of unity")
    degree = []
    for lam in range(cat.size):
        dims, s_lt = _monodromy_scale(cat, lam, t), cat.smat[lam][t]
        k = next((k for z, k in powers.items() if s_lt == z * dims), None)
        if k is None:
            raise GradingError(
                f"character of label {lam} is not a power of e_d (corrupt data)")
        degree.append(k)
    return Grading(modulus=d, generator=t, e_d=e_d, degree=tuple(degree))


@dataclass
class RefinableStructure:
    """A subgroup H of invertibles lying in the trivial-degree component.

    ``is_spin`` when some element of H has twist -1.  On such a subgroup
    the twists form an order <= 2 character (values +-1); for cyclic H the
    spin character corresponds to the residue ``order/2``.
    """

    elements: tuple[int, ...]
    order: int
    generator: int | None
    is_spin: bool

    @property
    def is_trivial(self) -> bool:
        return self.order == 1


def refinable_structures(cat: CategoryData,
                         group: InvertibleGroup | None = None
                         ) -> list[RefinableStructure]:
    """Enumerate subgroups H of the invertibles with trivial degree, i.e.
    trivial monodromy against every invertible, marked spin or non-spin.
    Only invertible x invertible monodromies are read."""
    if group is None:
        group = invertibles(cat)
    one = cat.field.one
    trivial_degree = [g for g in group.elements
                      if all(cat.smat[g][h] == _monodromy_scale(cat, g, h)
                             for h in group.elements)]
    subgroups = _all_subgroups(group, trivial_degree)
    result = []
    for elems in subgroups:
        twists = [cat.twist[h] for h in elems]
        if any(tw != one and tw != -one for tw in twists):
            # Twists on a refinable subgroup must be +-1; anything else
            # signals corrupt data and the subgroup is skipped.
            continue
        result.append(RefinableStructure(
            elements=tuple(sorted(elems)),
            order=len(elems),
            generator=_cyclic_generator(group, elems),
            is_spin=-one in twists,
        ))
    result.sort(key=lambda s: (s.order, s.elements))
    return result


def _all_subgroups(group: InvertibleGroup, pool: list[int]) -> list[tuple[int, ...]]:
    """All subgroups of the abelian group generated inside ``pool``.

    Subgroups are grown one generator at a time from {0}: every subgroup
    H found is extended by each pool element g outside it, and <H, g> is
    kept when it stays inside the pool.  Every subgroup inside the pool
    is reached this way, by adding its elements one by one, so the work
    is per subgroup and pool element, not per subset of the pool."""
    allowed = set(pool) | {0}
    seen = {frozenset({0})}
    frontier = list(seen)
    while frontier:
        sub = frontier.pop()
        for g in pool:
            if g in sub:
                continue
            # <H, g> = union of the cosets H + k g
            grown, coset = set(sub), sub
            while True:
                coset = frozenset(group.table[(g, h)] for h in coset)
                if coset <= grown:
                    break
                grown |= coset
            if grown <= allowed:
                grown = frozenset(grown)
                if grown not in seen:
                    seen.add(grown)
                    frontier.append(grown)
    return sorted((tuple(sorted(s)) for s in seen), key=lambda s: (len(s), s))


def _cyclic_generator(group: InvertibleGroup, elems: tuple[int, ...] | set[int]
                      ) -> int | None:
    elems = set(elems)
    for g in sorted(elems):
        if group.element_orders.get(g, 0) == len(elems):
            return g
    return None


def kirby_color(cat: CategoryData, kind: str, parameter: int = 0,
                grad: Grading | None = None) -> tuple[CycloNumber, ...]:
    """The weights on the labels of a Kirby color, by ``kind``: ``plain``
    (all labels, weight qdim), ``graded`` (the labels of degree
    ``parameter``, weight qdim) or ``dual`` (character-twisted weights
    e_d^(parameter deg) qdim)."""
    if kind == "plain":
        return cat.qdim
    if grad is None:
        raise GradingError(f"{kind} Kirby color requires a grading")
    d = grad.modulus
    if not 0 <= parameter < d:
        raise ValueError(f"parameter {parameter} out of range [0,{d})")
    if kind == "graded":
        zero = cat.field.zero
        return tuple(cat.qdim[lam] if grad.degree[lam] == parameter else zero
                     for lam in range(cat.size))
    if kind == "dual":
        e_pows = [cat.field.one]
        for _ in range(d - 1):
            e_pows.append(e_pows[-1] * grad.e_d)
        return tuple(e_pows[(parameter * grad.degree[lam]) % d] * cat.qdim[lam]
                     for lam in range(cat.size))
    raise ValueError(f"unknown Kirby color kind {kind!r}")
