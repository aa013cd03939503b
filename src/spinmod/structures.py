"""Combinatorial structure sets on surgered manifolds.

For a linking matrix L these are, over Z_d (or Z_2d for Chern vectors):

- spin:  solutions of  L s = (d/2) diag(L)   (d even),
- coh:   solutions of  L h = 0               (classes in H^1),
- chern: {sigma : sigma_i = L_ii mod 2} / 2 Im L   in (Z_2d)^n,
- hom:   (Z_d)^n / Im L                            (classes in H_1).

Solution sets are computed by reduction to a diagonal form mod d (the
Smith form's divisibility chain is not needed) and enumerated over
independent cyclic generators.  The subgroups Im L and 2 Im L come from
one triangular (Hermite) basis of Im L + d Z^n, built by the same column
elimination that gives the Howell pivots: a lexicographic walk of
that basis lists each subgroup in sorted order, and 2 Im L in (Z_2d)^n is
the d-walk with its values doubled.  Coset representatives are
canonicalized by lexicographic minimality, so structure sets compare as
sorted lists; they are read off the pivots of the Howell form of Im L
over Z_d (coordinate i runs over [0, pivot_i)), with no walk over
(Z_d)^n.  Every solver has a twin used for cross-validation:
breadth-first subgroup closure and brute-force walks over (Z_d)^n.
Modular linear algebra is the riskiest plumbing in the package, so
nothing here is trusted without an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, product, repeat

from .budget import charge

LinkingMatrix = tuple[tuple[int, ...], ...]


class StructureError(ValueError):
    """Invalid structure vector or modulus."""


def as_matrix(rows) -> LinkingMatrix:
    if not all(isinstance(row, (list, tuple)) for row in rows):
        raise StructureError("linking matrix rows must be lists")
    mat = tuple(tuple(row) for row in rows)
    if not all(type(v) is int for row in mat for v in row):   # not bool
        raise StructureError("linking matrix entries must be integers")
    n = len(mat)
    for row in mat:
        if len(row) != n:
            raise StructureError("linking matrix must be square")
    for i in range(n):
        for j in range(i + 1, n):
            if mat[i][j] != mat[j][i]:
                raise StructureError("linking matrix must be symmetric")
    return mat


# ---------------------------------------------------------------------------
# Diagonal form mod d


def smith_normal_form(mat, mod: int
                      ) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """U, D, V with U @ mat @ V = D (mod ``mod``), D diagonal, and U and V
    invertible mod ``mod``.

    D is a diagonal form, without the Smith form's chain d_i | d_(i+1):
    the solvers and counts over Z_mod read only gcd(d_i, mod), which any
    diagonal form gives, so a pivot is done once its row and column are
    clear.  Every entry is kept reduced into [0, mod), which is all the
    modular solvers use.  Over the integers U and V can grow to hundreds
    of thousands of bits on 30-vertex trees; reduced, they cannot grow."""
    if mod < 1:
        raise StructureError("modulus must be positive")
    a = [list(map(int, row)) for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def reduce(row):
        return [x % mod for x in row]

    a, u, v = ([reduce(row) for row in x] for x in (a, u, v))

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, c):
        # row_i += c * row_j
        a[i] = reduce([x + c * y for x, y in zip(a[i], a[j])])
        u[i] = reduce([x + c * y for x, y in zip(u[i], u[j])])

    def add_col(i, j, c):
        for row in a + v:
            row[i] = (row[i] + c * row[j]) % mod

    t = 0
    while t < min(m, n):
        # locate a minimal nonzero pivot in the trailing block
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] and (best is None or a[i][j] < best[0]):
                    best = (a[i][j], i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            swap_rows(t, bi)
        if bj != t:
            swap_cols(t, bj)
        while True:
            reduced = True
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(i, t, -q)
                    if a[i][t]:
                        swap_rows(t, i)
                        reduced = False
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(j, t, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        reduced = False
            if reduced:
                break
        t += 1
    return u, a, v


def _mat_vec_mod(mat, vec, mod: int) -> tuple[int, ...]:
    return tuple(sum(r * x for r, x in zip(row, vec)) % mod for row in mat)


@dataclass(frozen=True)
class GeneratedCoset:
    """offset + sum_i k_i gens[i] in (Z_modulus)^n, 0 <= k_i < orders[i];
    the generators are independent, so every k gives a distinct point."""

    modulus: int
    offset: tuple[int, ...]
    gens: tuple[tuple[int, ...], ...]
    orders: tuple[int, ...]

    @property
    def count(self) -> int:
        return math.prod(self.orders)

    def points(self) -> list[tuple[int, ...]]:
        """Every point, in lexicographic order of k; charged count x
        (n + 1) units, its coordinates and the tuple holding them.

        Built one coordinate column at a time: each generator expands every
        entry x of a column into x, x + g, x + 2g, ... (mod modulus), read
        from a table over the residues the column holds, so the work stays
        within the size of the output; the columns zip into points."""
        n = len(self.offset)
        charge(self.count * (n + 1),
               f"enumeration of {self.count} vectors of {n} coordinates")
        if not self.offset:
            return [()] * self.count
        d = self.modulus
        cols = [[x % d] for x in self.offset]
        for gen, order in zip(self.gens, self.orders):
            for j, g in enumerate(gen):
                steps = {x: [(x + k * g) % d for k in range(order)]
                         for x in set(cols[j])}
                cols[j] = [y for x in cols[j] for y in steps[x]]
        return list(zip(*cols))


def solution_coset(mat, rhs, d: int) -> GeneratedCoset | None:
    """The solutions of mat @ x = rhs (mod d), or None when there are none.

    With U mat V = D, x = V y and d_i y_i = c_i (mod d) for c = U rhs, so
    y_i runs over y0_i + k (d/g_i), 0 <= k < g_i = gcd(d_i, d) (a free
    coordinate has g_i = d).  V is invertible mod d, so x = V y is
    injective."""
    if d < 1:
        raise StructureError("modulus must be positive")
    m = len(mat)
    n = len(mat[0]) if m else 0
    u, dd, v = smith_normal_form(mat, d)
    c = _mat_vec_mod(u, rhs, d)
    if any(c[i] % d for i in range(n, m)):
        return None
    y0 = []
    gens, orders = [], []
    for i in range(n):
        di = dd[i][i] % d if i < m else 0
        ci = c[i] if i < m else 0
        g = math.gcd(di, d)
        if ci % g:
            return None
        step = d // g
        y0.append((pow(di // g, -1, step) * ((ci // g) % step)) % step)
        if g > 1:
            gens.append(tuple(step * row[i] % d for row in v))
            orders.append(g)
    return GeneratedCoset(d, _mat_vec_mod(v, y0, d), tuple(gens),
                          tuple(orders))


def solve_mod(mat, rhs, d: int) -> list[tuple[int, ...]]:
    """All x in (Z_d)^n with mat @ x = rhs (mod d), sorted lexicographically;
    charged before enumerating."""
    coset = solution_coset(mat, rhs, d)
    return [] if coset is None else sorted(coset.points())


# ---------------------------------------------------------------------------
# Structure sets


@dataclass(frozen=True)
class SolutionSet:
    """Solutions of L x = rhs over Z_modulus (spin structures, H^1 classes)."""

    modulus: int
    solutions: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.solutions)


@dataclass(frozen=True)
class CosetSet:
    """Coset representatives together with the subgroup they are taken
    modulo: Im L in (Z_d)^n for homology, 2 Im L in (Z_2d)^n for Chern
    vectors.  ``modulus`` is d in both cases."""

    modulus: int
    classes: tuple[tuple[int, ...], ...]
    subgroup: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.classes)


def characteristic_rhs(mat: LinkingMatrix, d: int) -> tuple[int, ...]:
    return tuple((d // 2) * mat[i][i] % d for i in range(len(mat)))


def spin_solutions(mat: LinkingMatrix, d: int) -> SolutionSet:
    """Solutions of L s = (d/2) diag(L) mod d; empty output is valid (the
    obstruction may not vanish for arbitrary matrices)."""
    if d < 2 or d % 2:
        raise StructureError("spin structures need an even modulus d >= 2")
    sols = solve_mod(mat, characteristic_rhs(mat, d), d)
    return SolutionSet(d, tuple(sols))


def cohomology_classes(mat: LinkingMatrix, d: int) -> SolutionSet:
    if d < 1:
        raise StructureError("modulus must be positive")
    sols = solve_mod(mat, (0,) * len(mat), d)
    return SolutionSet(d, tuple(sols))


def _close_subgroup(gens: list[tuple[int, ...]], mod: int, n: int
                    ) -> tuple[tuple[int, ...], ...]:
    """Breadth-first closure of generators in (Z_mod)^n."""
    zero = (0,) * n
    seen = {zero}
    frontier = [zero]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple((c + x) % mod for c, x in zip(cur, g))
            if nxt not in seen:
                charge((len(seen) + 1) * (n + 1), "subgroup closure")
                seen.add(nxt)
                frontier.append(nxt)
    return tuple(sorted(seen))


def image_subgroup(mat: LinkingMatrix, mod: int, scale: int = 1
                   ) -> tuple[tuple[int, ...], ...]:
    """The subgroup scale * Im(mat) of (Z_mod)^n, fully enumerated."""
    n = len(mat)
    gens = [tuple(scale * mat[i][j] % mod for i in range(n)) for j in range(n)]
    return _close_subgroup(gens, mod, n)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s a + t b = g = gcd(a, b)."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _hermite_rows(gens, d: int) -> list[list[int]]:
    """The triangular basis of the lattice span(gens) + d Z^n.

    Row i vanishes before coordinate i and holds the pivot a_i | d there
    (a_i = d when no generator reaches column i); its other entries are
    in [0, d), and every entry above a pivot is reduced modulo it, so a
    column whose pivot is 1 is zero above it.  Column by column, the
    generator d e_i absorbs every remaining generator with a nonzero i-th
    entry by unimodular 2x2 steps, which leave the others zero there;
    entries right of the column are reduced mod d, as d e_k (k > i) are
    still generators.  The earlier rows are then reduced by the new one,
    which changes them only from column i on."""
    if d < 1:
        raise StructureError("modulus must be positive")
    gens = [[x % d for x in g] for g in gens]
    n = len(gens[0]) if gens else 0
    rows = []
    for i in range(n):
        pivot = [0] * n
        pivot[i] = d
        rest = []
        for g in gens:
            if g[i]:
                a, b = pivot[i], g[i]
                h, s, t = _xgcd(a, b)
                pivot, g = ([(s * x + t * y) % d for x, y in zip(pivot, g)],
                            [(a // h * y - b // h * x) % d
                             for x, y in zip(pivot, g)])
                pivot[i] = h
            if any(g):
                rest.append(g)
        gens = rest
        for row in rows:
            q = row[i] // pivot[i]
            if q:
                row[i:] = [(x - q * y) % d
                           for x, y in zip(row[i:], pivot[i:])]
        rows.append(pivot)
    return rows


def howell_pivots(mat: LinkingMatrix, d: int) -> tuple[int, ...]:
    """Pivot moduli a_0, ..., a_(n-1) of the Howell form of Im L over Z_d.

    The elements of Im L whose first i coordinates vanish have i-th
    coordinates a_i Z_d, with a_i | d (a_i = d when there is no pivot in
    column i).  They are the diagonal of ``_hermite_rows`` on the columns
    of L.  The product of the pivots is |coker(L mod d)|."""
    rows = _hermite_rows(list(zip(*mat)), d)
    return tuple(row[i] for i, row in enumerate(rows))


def _column(values, each: int, outer: int):
    """``values`` with every entry repeated ``each`` times, the whole run
    repeated ``outer`` times, as an iterator."""
    run = (values if each == 1 else
           chain.from_iterable(map(repeat, values, repeat(each))))
    return run if outer == 1 else chain.from_iterable(repeat(list(run), outer))


def _lex_walk(rows: list[list[int]], d: int, step: int
              ) -> tuple[tuple[int, ...], ...]:
    """The points of span(rows) mod d, times ``step``, in lexicographic
    order; ``rows`` is a basis from ``_hermite_rows``.

    A prefix x_0..x_(j-1) fixes the partial sums s_m = sum k_i row_i[m]
    (mod d) of the rows that reach it, and x_j then runs over
    range(s_j mod a_j, d, a_j) in increasing order, with k_j =
    ((x_j - s_j) mod d) / a_j.  So every prefix has d / a_j children and
    the walk is a mixed-radix count.  A column whose pivot is 1 has s = 0
    (``_hermite_rows`` reduced it), so x_j = k_j runs over all of Z_d and
    its column is a repeated pattern; only the sums at the pivots above 1
    still ahead are carried, one tuple per prefix, stored as an index into
    the distinct tuples.  Each level expands the prefixes through tables
    over those tuples, and at the end the columns are repeated to full
    length and zipped into points."""
    n = len(rows)
    pivots = [row[i] for i, row in enumerate(rows)]
    tracked = [m for m in range(n) if pivots[m] > 1]
    keys = [(0,) * len(tracked)]       # the distinct tuples of carried sums
    states = [0]                       # per prefix, the index of its tuple
    cols = []                          # (values, repeats of the whole list)
    size = 1
    for row, a in zip(rows, pivots):
        if a > 1:
            tracked.pop(0)
        elif not tracked:              # a free coordinate, nothing to carry
            cols.append(([step * x for x in range(d)], size))
            size *= d
            continue
        ahead = [row[m] for m in tracked]
        index, xtab, stab = {}, [], []
        for key in keys:
            s, rest = (key[0], key[1:]) if a > 1 else (0, key)
            xs = range(s % a, d, a)
            xtab.append([step * x for x in xs])
            stab.append([index.setdefault(
                tuple([(t + (x - s) % d // a * c) % d
                       for t, c in zip(rest, ahead)]), len(index))
                for x in xs])
        cols.append(
            (list(chain.from_iterable(map(xtab.__getitem__, states))), 1)
            if a > 1 else (xtab[0], size))
        states = list(chain.from_iterable(map(stab.__getitem__, states)))
        keys = list(index)
        size *= d // a
    return tuple(zip(*[_column(values, size // (len(values) * outer), outer)
                       for values, outer in cols])) or ((),)


def image_subgroup_factored(mat: LinkingMatrix, mod: int, scale: int = 1
                            ) -> tuple[tuple[int, ...], ...]:
    """The subgroup scale * Im(mat) of (Z_mod)^n, in lexicographic order,
    walked from the Hermite basis with no deduplication and no sort.

    With g = gcd(scale, mod) and d = mod / g, scale * Im(mat) is g times
    Im(mat) mod d: scale / g is a unit mod d, so it permutes that
    subgroup, and x -> g x is increasing on [0, d).  The size
    prod d / a_i is read off the pivots and charged, times n + 1 units
    per point, before any column is built."""
    if mod < 1:
        raise StructureError("modulus must be positive")
    g = math.gcd(scale, mod)
    d = mod // g
    n = len(mat)
    rows = _hermite_rows(list(zip(*mat)), d)
    count = math.prod(d // row[i] for i, row in enumerate(rows))
    charge(count * (n + 1),
           f"enumeration of {count} subgroup elements of {n} coordinates")
    return _lex_walk(rows, d, g)


def homology_representatives(mat: LinkingMatrix, d: int
                             ) -> tuple[tuple[int, ...], ...]:
    """Lex-minimal representatives of (Z_d)^n / Im L, in lex order.

    With a_i the Howell pivots, every coset has exactly one element with
    each coordinate i in [0, a_i): subtracting a multiple of the element
    that vanishes before i and has a_i at i brings coordinate i there
    without touching the earlier ones, and the box holds prod a_i =
    |coker| vectors.  So the box is the set of lex-minimal
    representatives, and no vector outside it is visited."""
    return _box(mat, d, (0,) * len(mat), 1)


def chern_representatives(mat: LinkingMatrix, d: int
                          ) -> tuple[tuple[int, ...], ...]:
    """Lex-minimal representatives of {sigma = diag(L) mod 2} / 2 Im L.

    sigma = diag(L) mod 2 + 2 tau, tau in [0, d)^n, and sigma ~ sigma' iff
    tau - tau' is in Im L mod d, so these are the homology representatives
    mapped by tau -> parity + 2 tau.  The map is strictly increasing in
    every coordinate, so lex-minimality and sorted order carry over."""
    return _box(mat, d, [mat[i][i] % 2 for i in range(len(mat))], 2)


def _box(mat: LinkingMatrix, d: int, base, step: int
         ) -> tuple[tuple[int, ...], ...]:
    """base + step * tau for tau in the box prod [0, a_i) of the Howell
    pivots, in lex order; charged count x (n + 1) units."""
    pivots = howell_pivots(mat, d)
    count = math.prod(pivots)
    charge(count * (len(pivots) + 1), f"enumeration of {count} classes of "
           f"{len(pivots)} coordinates")
    return tuple(product(*[range(b, b + step * a, step)
                           for a, b in zip(pivots, base)]))


def homology_classes(mat: LinkingMatrix, d: int) -> CosetSet:
    """Lex-minimal representatives of (Z_d)^n / Im L, with Im L."""
    return CosetSet(d, homology_representatives(mat, d),
                    image_subgroup_factored(mat, d))


def chern_vectors(mat: LinkingMatrix, d: int) -> CosetSet:
    """Lex-minimal representatives of {sigma = diag(L) mod 2} / 2 Im L,
    with 2 Im L in (Z_2d)^n."""
    return CosetSet(d, chern_representatives(mat, d),
                    image_subgroup_factored(mat, 2 * d, 2))


def coker_count(mat: LinkingMatrix, d: int) -> int:
    """|coker(L mod d)| = prod gcd(d_i, d) over the diagonal form of
    `smith_normal_form`, independent of the coset enumerations."""
    n = len(mat)
    _, dd, _ = smith_normal_form(mat, d)
    count = 1
    for i in range(n):
        count *= math.gcd(dd[i][i], d)
    return count


# ---------------------------------------------------------------------------
# Brute-force oracles


def brute_spin_solutions(mat: LinkingMatrix, d: int) -> tuple[tuple[int, ...], ...]:
    n = len(mat)
    charge(d ** n, f"brute-force search over {d}^{n} vectors")
    rhs = characteristic_rhs(mat, d)
    return tuple(x for x in product(range(d), repeat=n)
                 if _mat_vec_mod(mat, x, d) == rhs)


def brute_cohomology_classes(mat: LinkingMatrix, d: int) -> tuple[tuple[int, ...], ...]:
    n = len(mat)
    charge(d ** n, f"brute-force search over {d}^{n} vectors")
    zero = (0,) * n
    return tuple(x for x in product(range(d), repeat=n)
                 if _mat_vec_mod(mat, x, d) == zero)


def brute_chern_vectors(mat: LinkingMatrix, d: int) -> tuple[tuple[int, ...], ...]:
    """Independent enumeration: the subgroup 2 Im L is produced by running
    over all of (Z_d)^n rather than by closure."""
    n = len(mat)
    charge(d ** n, f"brute-force search over {d}^{n} vectors")
    two_d = 2 * d
    sub = {tuple(2 * s % two_d for s in _mat_vec_mod(mat, x, d))
           for x in product(range(d), repeat=n)}
    parity = tuple(mat[i][i] % 2 for i in range(n))
    seen: set[tuple[int, ...]] = set()
    classes = []
    for tau in product(range(d), repeat=n):
        sigma = tuple(parity[i] + 2 * tau[i] for i in range(n))
        if sigma in seen:
            continue
        classes.append(sigma)
        for s in sub:
            seen.add(tuple((x + y) % two_d for x, y in zip(sigma, s)))
    return tuple(classes)


def brute_homology_classes(mat: LinkingMatrix, d: int) -> tuple[tuple[int, ...], ...]:
    n = len(mat)
    charge(d ** n, f"brute-force search over {d}^{n} vectors")
    sub = {_mat_vec_mod(mat, x, d) for x in product(range(d), repeat=n)}
    seen: set[tuple[int, ...]] = set()
    classes = []
    for x in product(range(d), repeat=n):
        if x in seen:
            continue
        classes.append(x)
        for s in sub:
            seen.add(tuple((a + b) % d for a, b in zip(x, s)))
    return tuple(classes)


# ---------------------------------------------------------------------------
# Move transport at the matrix level

_SOLUTION_KINDS = {"spin", "coh"}


def _validate_element(kind: str, mat: LinkingMatrix, elem, d: int,
                      modulus: int) -> tuple[int, ...]:
    n = len(mat)
    if len(elem) != n:
        raise StructureError(f"element has length {len(elem)}, expected {n}")
    e = tuple(x % modulus for x in elem)
    if kind == "spin":
        if d % 2:
            raise StructureError("spin transport needs even d")
        if _mat_vec_mod(mat, e, d) != characteristic_rhs(mat, d):
            raise StructureError("vector is not a characteristic solution")
    elif kind == "coh":
        if _mat_vec_mod(mat, e, d) != (0,) * n:
            raise StructureError("vector is not in the kernel")
    elif kind == "chern":
        for i in range(n):
            if (e[i] - mat[i][i]) % 2:
                raise StructureError("Chern vector parity mismatch")
    elif kind != "hom":
        raise StructureError(f"unknown structure kind {kind!r}")
    return e


def move_matrix(mat: LinkingMatrix, move) -> LinkingMatrix:
    """Image of the linking matrix under a matrix-level move."""
    n = len(mat)
    kind = move[0]
    if kind == "stabilize":
        sign = move[1]
        rows = [list(row) + [0] for row in mat]
        rows.append([0] * n + [sign])
        return tuple(tuple(r) for r in rows)
    if kind == "reverse":
        i = move[1]
        return tuple(tuple(-v if (r == i) != (c == i) else v
                           for c, v in enumerate(row))
                     for r, row in enumerate(mat))
    if kind == "slide":
        # slide component i along j: basis change e_i -> e_i + orient e_j
        _, i, j, orient = move
        rows = [list(row) for row in mat]
        new = [row[:] for row in rows]
        for k in range(n):
            new[i][k] = rows[i][k] + orient * rows[j][k]
        for k in range(n):
            new[k][i] = new[k][i] + orient * new[k][j]
        return tuple(tuple(r) for r in new)
    raise StructureError(f"unknown move {move!r}")


def transport(kind: str, mat: LinkingMatrix, move, elem, d: int
              ) -> tuple[LinkingMatrix, tuple[int, ...]]:
    """Carry a structure vector through a matrix-level move.

    Solution kinds (spin, coh) transform contragradiently under slides
    (the slid-over coordinate absorbs -orient * elem_i); coset kinds
    (chern, hom) transform covariantly (coordinate i gains
    +orient * elem_j).  Reversal negates one coordinate for every kind.
    """
    modulus = 2 * d if kind == "chern" else d
    e = _validate_element(kind, mat, elem, d, modulus)
    new_mat = move_matrix(mat, move)
    mkind = move[0]
    if mkind == "stabilize":
        sign = move[1]
        if kind == "spin":
            extra = d // 2
        elif kind == "chern":
            extra = sign % modulus
        else:
            extra = 0
        return new_mat, e + (extra,)
    if mkind == "reverse":
        i = move[1]
        out = list(e)
        out[i] = (-out[i]) % modulus
        return new_mat, tuple(out)
    if mkind == "slide":
        _, i, j, orient = move
        out = list(e)
        if kind in _SOLUTION_KINDS:
            out[j] = (out[j] - orient * out[i]) % modulus
        else:
            out[i] = (out[i] + orient * out[j]) % modulus
        return new_mat, tuple(out)
    raise StructureError(f"unknown move {move!r}")
