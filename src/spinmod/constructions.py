"""Built-in category families and category-level constructions.

The sl2 family uses the Kauffman-bracket normalization at A = zeta_4r:
quantum integers [n] = (A^2n - A^-2n)/(A^2 - A^-2) expanded as geometric
sums so that all data is integral in Z[zeta_4r].  The abelian family
realizes the pointed categories whose surgery invariants are Gauss sums
of the linking matrix.  On top of these, ``reduced_subcategory``,
``extend_category`` and ``modularize`` produce derived categories used by
the decomposition machinery.
"""

from __future__ import annotations

import math

from .budget import charge
from .category import (CategoryData, Grading, Label, check_axioms, grading,
                       invertibles, refinable_structures)
from .cyclo import CycloField, CycloNumber, cyclo_field, euler_phi


# the degree lifts f = deg + d * shift that `search_higher_spin` tries
LIFT_SHIFTS = (0, 1)


class ConstructionError(ValueError):
    """Inputs violate the preconditions of a category construction."""


def _root_order_bound(alpha: int, modulus: int) -> int:
    """The power that must send a Gauss-sum root xi over Z_(alpha modulus)
    to 1: alpha modulus for an odd modulus, 2 alpha modulus for an even
    one."""
    return alpha * modulus * (1 if modulus % 2 else 2)


def trivial_category() -> CategoryData:
    field = cyclo_field(1)
    one = field.one
    return CategoryData(
        name="trivial",
        field=field,
        labels=(Label(0, "1"),),
        dual=(0,),
        qdim=(one,),
        twist=(one,),
        smat=((one,),),
        fusion=(((1,),),),
    )


def _quantum_integers(field: CycloField, r: int) -> list[CycloNumber]:
    """[0], ..., [r-1] at A = zeta_4r, by [m+2] = [m] + A^(2(m+1)) + A^(-2(m+1))."""
    q = [field.zero, field.one]
    for m in range(r - 2):
        q.append(q[m] + field.zeta(2 * (m + 1)) + field.zeta(-2 * (m + 1)))
    return q[:r]


def sl2_category(r: int) -> CategoryData:
    """The Kauffman-bracket category with labels 0..r-2 at A = zeta_4r.

    Data: qdim(i) = (-1)^i [i+1], twist(i) = (-1)^i A^(i^2+2i),
    Hopf matrix (-1)^(i+j) [(i+1)(j+1)], truncated Clebsch-Gordan fusion.
    Charged its r^2 S-matrix entries of phi(4r) coordinates before the
    field is built.
    """
    if r < 3:
        raise ConstructionError("r must be at least 3")
    phi = euler_phi(4 * r)
    charge(r * r * phi, f"sl2({r}): {r * r} S-matrix entries of {phi} "
           f"coordinates")
    n = r - 1
    field = cyclo_field(4 * r)
    base = _quantum_integers(field, r)
    signed = (base, [-v for v in base])

    def quantum(m: int, sign: int) -> CycloNumber:
        # (-1)^sign [m], as A^(2r) = -1 gives [m + r] = -[m]
        return signed[(m // r + sign) % 2][m % r]

    qdim = []
    twist = []
    for i in range(n):
        t = field.zeta((i * i + 2 * i) % (4 * r))
        qdim.append(quantum(i + 1, i))
        twist.append(-t if i % 2 else t)
    smat = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = quantum((i + 1) * (j + 1), i + j)
            smat[i][j] = v
            smat[j][i] = v
    fusion = [[[0] * n for _ in range(n)] for _ in range(n)]
    top = 2 * (r - 2)
    for i in range(n):
        for j in range(n):
            for k in range(abs(i - j), min(i + j, top - i - j) + 1, 2):
                fusion[i][j][k] = 1
    return CategoryData(
        name=f"sl2_{r}",
        field=field,
        labels=tuple(Label(i, str(i)) for i in range(n)),
        dual=tuple(range(n)),
        qdim=qdim,
        twist=twist,
        smat=smat,
        fusion=fusion,
    )


def abelian_category(n: int, q: CycloNumber) -> CategoryData:
    """Pointed category on Z_n: group-law fusion, qdim 1, twist(j) = q^(j^2).

    Hopf values are fixed by the ribbon identity, smat[j][k] =
    twist(j+k) / (twist(j) twist(k)).  This equals q^(2jk) exactly when
    q^n = 1 for odd n, respectively q^(2n) = 1 for even n (the Gauss-sum
    root conditions), and it keeps the data ribbon-consistent for every
    invertible q.  Modularity is decided by ``check_axioms``.  Charged
    its n^3 fusion entries before any is built.
    """
    if n < 1:
        raise ConstructionError("n must be positive")
    charge(n ** 3, f"abelian category on Z_{n}: {n ** 3} fusion entries")
    field = q.field
    twist = [field.one]
    for j in range(1, n):
        twist.append(q ** (j * j))
    twist_inv = [t.invert() for t in twist]
    smat = [[twist[(j + k) % n] * twist_inv[j] * twist_inv[k]
             for k in range(n)] for j in range(n)]
    fusion = [[[1 if c == (a + b) % n else 0 for c in range(n)]
               for b in range(n)] for a in range(n)]
    return CategoryData(
        name=f"abelian_{n}",
        field=field,
        labels=tuple(Label(j, str(j)) for j in range(n)),
        dual=tuple((-j) % n for j in range(n)),
        qdim=tuple(field.one for _ in range(n)),
        twist=twist,
        smat=smat,
        fusion=fusion,
    )


def product_category(a: CategoryData, b: CategoryData) -> CategoryData:
    """Deligne-type product: labels are pairs, all data componentwise."""
    order = math.lcm(a.field.order, b.field.order)
    field = cyclo_field(order)

    def emb_a(x: CycloNumber) -> CycloNumber:
        return field.embed(x)

    na, nb = a.size, b.size

    def idx(i: int, j: int) -> int:
        return i * nb + j

    labels = []
    for i in range(na):
        for j in range(nb):
            labels.append(Label(idx(i, j), f"{a.labels[i].name}*{b.labels[j].name}"))
    dual = [idx(a.dual[i], b.dual[j]) for i in range(na) for j in range(nb)]
    qdim = [emb_a(a.qdim[i]) * emb_a(b.qdim[j])
            for i in range(na) for j in range(nb)]
    twist = [emb_a(a.twist[i]) * emb_a(b.twist[j])
             for i in range(na) for j in range(nb)]
    smat_a = [[emb_a(v) for v in row] for row in a.smat]
    smat_b = [[emb_a(v) for v in row] for row in b.smat]
    smat = [[smat_a[i1][i2] * smat_b[j1][j2]
             for i2 in range(na) for j2 in range(nb)]
            for i1 in range(na) for j1 in range(nb)]
    size = na * nb
    fusion = [[[0] * size for _ in range(size)] for _ in range(size)]
    for i1 in range(na):
        for j1 in range(nb):
            for i2 in range(na):
                for j2 in range(nb):
                    for (c1, m1) in a.fusion_channels(i1, i2):
                        for (c2, m2) in b.fusion_channels(j1, j2):
                            fusion[idx(i1, j1)][idx(i2, j2)][idx(c1, c2)] = m1 * m2
    return CategoryData(
        name=f"{a.name}(x){b.name}",
        field=field,
        labels=labels,
        dual=dual,
        qdim=qdim,
        twist=twist,
        smat=smat,
        fusion=fusion,
    )


def reduced_subcategory(cat: CategoryData, grad: Grading, m: int) -> CategoryData:
    """Full subcategory on labels whose degree vanishes mod m (m | modulus)."""
    if m < 1 or grad.modulus % m != 0:
        raise ConstructionError(f"m={m} must divide the grading modulus {grad.modulus}")
    keep = [lam for lam in range(cat.size) if grad.degree[lam] % m == 0]
    keep_set = set(keep)
    for a in keep:
        for b in keep:
            for (c, mult) in cat.fusion_channels(a, b):
                if c not in keep_set:
                    raise ConstructionError(
                        "degree-0 mod m labels are not closed under fusion")
    reindex = {old: new for new, old in enumerate(keep)}
    return CategoryData(
        name=f"{cat.name}_mod{m}",
        field=cat.field,
        labels=tuple(Label(reindex[old], cat.labels[old].name) for old in keep),
        dual=tuple(reindex[cat.dual[old]] for old in keep),
        qdim=tuple(cat.qdim[old] for old in keep),
        twist=tuple(cat.twist[old] for old in keep),
        smat=tuple(tuple(cat.smat[x][y] for y in keep) for x in keep),
        fusion=tuple(tuple(tuple(cat.fusion[x][y][z] for z in keep)
                           for y in keep) for x in keep),
    )


def extend_category(cat: CategoryData, alpha: int, xi: CycloNumber,
                    f: tuple[int, ...] | list[int],
                    grad: Grading) -> CategoryData:
    """Cocycle extension with labels (V, k), k in Z_alpha.

    ``f`` lifts the degree map to Z_(alpha d) (f(V) = deg(V) mod d and
    f(unit) = 0); the extended section is f(V,k) = f(V) + d k.  Twists and
    Hopf values are rescaled by powers of xi:

        twist'(X)  = xi^(-f(X)^2)  twist(V)
        smat'(X,Y) = xi^(-2 f(X) f(Y)) smat(V,W)

    and fusion is lifted with the integral cocycle shift
    (f(V) + f(V') - f(W)) / d.  xi must satisfy xi^(alpha d) = 1 for odd d
    and xi^(2 alpha d) = 1 for even d.
    """
    if alpha < 1:
        raise ConstructionError("alpha must be positive")
    d = grad.modulus
    ad = alpha * d
    f = tuple(v % ad for v in f)
    if len(f) != cat.size:
        raise ConstructionError("f must assign a residue to every label")
    if f[0] != 0:
        raise ConstructionError("f(unit) must be 0")
    for lam in range(cat.size):
        if f[lam] % d != grad.degree[lam] % d:
            raise ConstructionError(
                f"f({lam}) = {f[lam]} is not congruent to deg({lam}) mod {d}")
    order_bound = _root_order_bound(alpha, d)
    if not (xi ** order_bound).is_one():
        raise ConstructionError(
            f"xi^{order_bound} != 1; invalid extension root")
    xi_inv = xi.invert()

    def xi_pow(e: int) -> CycloNumber:
        return (xi ** e) if e >= 0 else (xi_inv ** (-e))

    na = cat.size
    size = na * alpha

    def idx(v: int, k: int) -> int:
        return v * alpha + (k % alpha)

    def fx(v: int, k: int) -> int:
        return (f[v] + d * (k % alpha)) % ad

    labels = [Label(idx(v, k), f"({cat.labels[v].name},{k})")
              for v in range(na) for k in range(alpha)]
    dual = [0] * size
    for v in range(na):
        for k in range(alpha):
            vstar = cat.dual[v]
            # choose l with f(vstar) + d l = -f(v,k) mod alpha d
            target = (-fx(v, k)) % ad
            diff = (target - f[vstar]) % ad
            if diff % d != 0:
                raise ConstructionError("no dual level: f is not a section")
            dual[idx(v, k)] = idx(vstar, diff // d)
    qdim = [cat.qdim[v] for v in range(na) for _ in range(alpha)]
    twist = [xi_pow(-fx(v, k) ** 2) * cat.twist[v]
             for v in range(na) for k in range(alpha)]
    smat = [[None] * size for _ in range(size)]
    for v in range(na):
        for k in range(alpha):
            for w in range(na):
                for l in range(alpha):
                    smat[idx(v, k)][idx(w, l)] = (
                        xi_pow(-2 * fx(v, k) * fx(w, l)) * cat.smat[v][w])
    fusion = [[[0] * size for _ in range(size)] for _ in range(size)]
    for v in range(na):
        for vp in range(na):
            for (w, mult) in cat.fusion_channels(v, vp):
                shift_num = f[v] + f[vp] - f[w]
                if shift_num % d != 0:
                    raise ConstructionError(
                        f"non-integral cocycle shift on channel ({v},{vp};{w})")
                shift = shift_num // d
                for k in range(alpha):
                    for l in range(alpha):
                        fusion[idx(v, k)][idx(vp, l)][idx(w, k + l + shift)] = mult
    return CategoryData(
        name=f"{cat.name}_ext{alpha}",
        field=cat.field,
        labels=labels,
        dual=dual,
        qdim=qdim,
        twist=twist,
        smat=smat,
        fusion=fusion,
    )


class ModularizationError(ValueError):
    """The transparent subgroup obstructs modularization."""


def modularize(cat: CategoryData) -> CategoryData:
    """Quotient by the transparent subgroup when it has trivial twists,
    quantum dimension one, and acts freely on labels.

    Labels of the result are the orbits; all data descends and the descent
    is re-verified numerically on every orbit pair, so corrupted inputs
    fail loudly rather than silently producing garbage.
    """
    report = check_axioms(cat)
    transparent = list(report.transparent)
    if transparent == [0]:
        return cat
    one = cat.field.one
    group = invertibles(cat)
    for t in transparent:
        if t not in group.elements:
            raise ModularizationError(f"transparent label {t} is not invertible")
        if cat.twist[t] != one:
            raise ModularizationError(f"transparent label {t} has twist != 1")
        if cat.qdim[t] != one:
            raise ModularizationError(f"transparent label {t} has qdim != 1")

    def act(t: int, lam: int) -> int:
        chans = cat.fusion_channels(t, lam)
        if len(chans) != 1 or chans[0][1] != 1:
            raise ModularizationError("transparent action is not by permutations")
        return chans[0][0]

    orbits: list[tuple[int, ...]] = []
    seen = set()
    for lam in range(cat.size):
        if lam in seen:
            continue
        orbit = sorted({act(t, lam) for t in transparent})
        if len(orbit) != len(transparent):
            raise ModularizationError(
                f"transparent subgroup does not act freely at label {lam}")
        orbits.append(tuple(orbit))
        seen.update(orbit)
    orbits.sort()
    if orbits[0][0] != 0:
        orbits.sort(key=lambda o: (0 not in o, o))
    rep = [o[0] for o in orbits]
    orbit_of = {lam: i for i, o in enumerate(orbits) for lam in o}
    size = len(orbits)
    # Descent must be constant on orbits; re-verify rather than trust theory.
    for i, o in enumerate(orbits):
        for lam in o[1:]:
            if cat.qdim[lam] != cat.qdim[o[0]] or cat.twist[lam] != cat.twist[o[0]]:
                raise ModularizationError(f"qdim/twist not constant on orbit {o}")
    for i, oi in enumerate(orbits):
        for j, oj in enumerate(orbits):
            base = cat.smat[oi[0]][oj[0]]
            for x in oi:
                for y in oj:
                    if cat.smat[x][y] != base:
                        raise ModularizationError(
                            f"Hopf values not constant on orbit pair ({i},{j})")
    fusion = [[[0] * size for _ in range(size)] for _ in range(size)]
    for i in range(size):
        for j in range(size):
            for (c, mult) in cat.fusion_channels(rep[i], rep[j]):
                fusion[i][j][orbit_of[c]] += mult
    # Independence of representative choice, checked on the alternates.
    for i in range(size):
        for j in range(size):
            alt = [0] * size
            for (c, mult) in cat.fusion_channels(orbits[i][-1], orbits[j][-1]):
                alt[orbit_of[c]] += mult
            if alt != fusion[i][j]:
                raise ModularizationError(
                    f"fusion descent depends on representatives at ({i},{j})")
    return CategoryData(
        name=f"{cat.name}_mod",
        field=cat.field,
        labels=tuple(Label(i, "[" + cat.labels[rep[i]].name + "]")
                     for i in range(size)),
        dual=tuple(orbit_of[cat.dual[rep[i]]] for i in range(size)),
        qdim=tuple(cat.qdim[rep[i]] for i in range(size)),
        twist=tuple(cat.twist[rep[i]] for i in range(size)),
        smat=tuple(tuple(cat.smat[rep[i]][rep[j]] for j in range(size))
                   for i in range(size)),
        fusion=fusion,
    )


def search_higher_spin(min_order: int = 4, rs=(4, 5, 6, 7, 8, 9, 10, 11, 12),
                       alphas=(1, 2, 3)) -> list[dict]:
    """Bounded search for a modular category with a cyclic spin structure of
    order >= min_order, manufactured by extending the built-in families.

    Budget (documented, deterministic): for every base sl2(r), every alpha,
    every constant shift pattern of the degree lift f (f = deg + d*shift on
    non-unit labels), and every root xi of the base field with the valid
    extension order, build the extension, keep it only if it passes the
    premodular and modular checks, and report any spin structure of cyclic
    order >= min_order.  Returns the (possibly empty) list of hits with the
    parameters that produced them.
    """
    hits = []
    for r in rs:
        base = sl2_category(r)
        group = invertibles(base)
        grad = grading(base, group)
        d = grad.modulus
        for alpha in alphas:
            ad = alpha * d
            order_bound = _root_order_bound(alpha, d)
            if base.field.order % order_bound:
                continue
            step = base.field.order // order_bound
            for shift in LIFT_SHIFTS:
                f = [0] + [(grad.degree[lam] + d * shift) % ad
                           for lam in range(1, base.size)]
                for k in range(order_bound):
                    xi = base.field.zeta(k * step)
                    try:
                        ext = extend_category(base, alpha, xi, f, grad)
                    except ConstructionError:
                        continue
                    report = check_axioms(ext)
                    if not (report.premodular and report.modular):
                        continue
                    for s in refinable_structures(ext):
                        if s.is_spin and s.generator is not None \
                                and s.order >= min_order:
                            hits.append({
                                "base": base.name, "alpha": alpha,
                                "xi_power": k * step, "lift_shift": shift,
                                "spin_order": s.order, "category": ext,
                            })
    return hits


def spin_case_parameters(d: int, delta: int) -> dict:
    """Parameter recipe for the spin-case extension when deg(t) = delta != 0.

    Splits delta = alpha beta with gcd(beta, alpha m) = 1 and alpha = m
    (mod 2), m = d / delta, and solves beta^2 l = 1 + alpha^2 m modulo
    2 alpha^2 m; the extension root is then zeta_(2 alpha^2 m)^l.  Only the
    recipe is provided here; whether a given category admits the resulting
    extension is decided by building it and running the axiom checks.
    """
    if delta < 1 or d % delta != 0:
        raise ConstructionError("delta must divide d")
    m = d // delta
    choices = []
    for alpha in range(1, delta + 1):
        if delta % alpha:
            continue
        beta = delta // alpha
        if math.gcd(beta, alpha * m) != 1 or (alpha - m) % 2 != 0:
            continue
        mod = 2 * alpha * alpha * m
        b2 = (beta * beta) % mod
        c = (1 + alpha * alpha * m) % mod
        g = math.gcd(b2, mod)
        if c % g:
            continue
        l = ((c // g) * pow(b2 // g, -1, mod // g)) % (mod // g)
        choices.append({"alpha": alpha, "beta": beta, "m": m, "l": l,
                        "root_order": mod})
    if not choices:
        raise ConstructionError(
            f"no valid (alpha, beta) split for d={d}, delta={delta}")
    return choices[0]
