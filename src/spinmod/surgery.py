"""Surgery presentations as plumbing forests.

A plumbing forest is a framed link made of unknotted components (one per
vertex) clasped along signed Hopf links (one per edge), with no cycles.
On this class the colored invariant is determined by the Hopf-link matrix,
twists and quantum dimensions alone, which keeps every computation exact.

Handle slides leave the class and are therefore not forest operations;
the move set here is stabilization, blow-up/blow-down (the Fenn-Rourke
composite) and per-vertex orientation reversal, which generate enough
Kirby equivalences for machine verification.  Signatures are exact, by
one O(n) leaf elimination for every matrix whose off-diagonal support is
a forest and by O(n^3) rational congruence for one with a cycle (and as
the oracle), never by floating eigenvalues: eigenvalue sign counts feed
exponents of invertible numbers, where an off-by-one is catastrophic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .budget import charge

# structures appears only in annotations, which are never evaluated, and
# in `structure_transport`, which imports its error class, so building or
# showing a forest does not load the structure solvers


class ForestError(ValueError):
    """Malformed plumbing forest or illegal move."""


def _forest_order(n: int, pairs, first: int | None = None
                  ) -> tuple[list[int], list[int]] | None:
    """Parent array (-1 at roots) and a leaves-first vertex order of the
    graph on range(n) with edges `pairs` (no loops, no repeats), or None
    when it has a cycle.  Each tree is rooted at its least vertex, except
    that the tree holding `first`, if it is a vertex, is rooted there."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for (u, v) in pairs:
        adj[u].append(v)
        adj[v].append(u)
    parent = [-1] * n
    seen = [False] * n
    preorder = []
    for root in ((first, *range(n)) if first in range(n) else range(n)):
        if seen[root]:
            continue
        seen[root] = True
        stack = [root]
        while stack:
            v = stack.pop()
            preorder.append(v)
            for u in adj[v]:
                if u == parent[v]:
                    continue
                if seen[u]:
                    return None
                seen[u] = True
                parent[u] = v
                stack.append(u)
    preorder.reverse()
    return parent, preorder


@dataclass(frozen=True)
class PlumbingForest:
    """Framed vertices and signed edges; immutable and validated."""

    framings: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        n = len(self.framings)
        seen_pairs = set()
        for (u, v, sign) in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ForestError(f"edge ({u},{v}) out of range")
            if u >= v:
                raise ForestError("edges must be stored with u < v")
            if sign not in (1, -1):
                raise ForestError(f"edge sign must be +-1, got {sign}")
            if (u, v) in seen_pairs:
                raise ForestError(f"duplicate edge ({u},{v})")
            seen_pairs.add((u, v))
        self.rooted  # the walk rejects a cycle

    @property
    def n(self) -> int:
        return len(self.framings)

    def degree(self, v: int) -> int:
        return sum(1 for (u, w, _) in self.edges if u == v or w == v)

    @functools.cached_property
    def rooted(self) -> tuple[tuple[int, ...], ...]:
        """(parent, sign of the edge to the parent, leaves-first order) with
        each tree rooted at its least vertex; -1 and 0 at a root."""
        return self.rooted_at(None)

    def rooted_at(self, first: int | None) -> tuple[tuple[int, ...], ...]:
        """`rooted`, except that the tree holding `first` is rooted there."""
        tree = _forest_order(self.n, [e[:2] for e in self.edges], first)
        if tree is None:
            raise ForestError("edges contain a cycle")
        parent, order = tree
        sign = [0] * self.n
        for (u, v, s) in self.edges:
            sign[v if parent[v] == u else u] = s
        return tuple(parent), tuple(sign), tuple(order)

    def linking_matrix(self) -> structures.LinkingMatrix:
        """The dense n x n matrix, charged its n^2 entries."""
        n = self.n
        charge(n * n, f"linking matrix of {n} vertices")
        mat = [[0] * n for _ in range(n)]
        for v, m in enumerate(self.framings):
            mat[v][v] = m
        for (u, v, sign) in self.edges:
            mat[u][v] = sign
            mat[v][u] = sign
        return tuple(tuple(row) for row in mat)


def forest(framings, edges=()) -> PlumbingForest:
    """Build a forest, normalizing edge orientation and order."""
    norm = []
    for (u, v, sign) in edges:
        if u > v:
            u, v = v, u
        norm.append((u, v, sign))
    return PlumbingForest(tuple(framings), tuple(sorted(norm)))


def chain(framings) -> PlumbingForest:
    """A linear plumbing chain with positive edges; lens spaces come from
    these."""
    framings = tuple(framings)
    edges = [(i, i + 1, 1) for i in range(len(framings) - 1)]
    return forest(framings, edges)


@dataclass(frozen=True)
class SignaturePair:
    """Counts of positive/negative/zero eigenvalues; nullity = b_1 of the
    surgered manifold."""

    b_plus: int
    b_minus: int
    nullity: int


def signature(mat: structures.LinkingMatrix) -> SignaturePair:
    """Exact inertia via symmetric elimination over the rationals.

    A zero diagonal with a nonzero off-diagonal entry is handled by the
    symmetric congruence row_i += row_j, which exposes a nonzero pivot
    (the hyperbolic block then contributes one eigenvalue of each sign).
    """
    n = len(mat)
    a = [[Fraction(mat[i][j]) for j in range(n)] for i in range(n)]
    live = list(range(n))
    b_plus = b_minus = 0
    while live:
        pivot = next((i for i in live if a[i][i] != 0), None)
        if pivot is None:
            pair = next(((i, j) for i in live for j in live
                         if i != j and a[i][j] != 0), None)
            if pair is None:
                return SignaturePair(b_plus, b_minus, len(live))
            i, j = pair
            for k in live:
                a[i][k] += a[j][k]
            for k in live:
                a[k][i] += a[k][j]
            continue
        p = a[pivot][pivot]
        if p > 0:
            b_plus += 1
        else:
            b_minus += 1
        live.remove(pivot)
        for r in live:
            f = a[r][pivot] / p
            if f:
                for c in live:
                    a[r][c] -= f * a[pivot][c]
        # column entries are no longer consulted for removed indices
    return SignaturePair(b_plus, b_minus, 0)


def _leaf_elimination(diag, edge, parent, order) -> SignaturePair:
    """Inertia of a symmetric matrix whose off-diagonal support is a forest
    with `_forest_order` (parent, order): diagonal ``diag``, and ``edge[v]``
    = L_pv L_vp to the parent p (0 at a root).

    Leaves first (an elimination order with no fill), a vertex whose
    children are eliminated has the pivot a_v = diag_v - sum_c edge_c/a_c.
    A nonzero pivot counts its sign and passes edge_v/a_v to the parent.
    A zero pivot under a live parent p spans a hyperbolic block with p:
    one eigenvalue of each sign, and congruence clears p's other entries,
    so p is cut and drops out.  A zero pivot at a root or under a cut
    parent is isolated and counts nullity.
    """
    a = [Fraction(x) for x in diag]
    cut = [False] * len(a)
    b_plus = b_minus = nullity = 0
    for v in order:
        if cut[v]:
            continue
        p, x, e = parent[v], a[v], edge[v]
        if x:
            if x > 0:
                b_plus += 1
            else:
                b_minus += 1
            if e:
                a[p] -= e / x
        elif e and not cut[p]:
            b_plus += 1
            b_minus += 1
            cut[p] = True
        else:
            nullity += 1
    return SignaturePair(b_plus, b_minus, nullity)


def _support_order(mat) -> tuple[list[int], list[int]] | None:
    """`_forest_order` of the off-diagonal support of `mat` (i ~ j iff
    mat[i][j] or mat[j][i] is nonzero), or None when it has a cycle."""
    n = len(mat)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if mat[i][j] or mat[j][i]]
    return _forest_order(n, pairs)


def _matrix_signature(mat, tree) -> SignaturePair:
    """Inertia of `mat` by leaf elimination on its `_support_order` `tree`,
    or by `signature` when that is None (a cycle)."""
    if tree is None:
        return signature(mat)
    parent, order = tree
    return _leaf_elimination(
        [mat[v][v] for v in range(len(mat))],
        [mat[p][v] * mat[v][p] if p >= 0 else 0
         for v, p in enumerate(parent)],
        parent, order)


def forest_signature(f: PlumbingForest) -> SignaturePair:
    """`signature(f.linking_matrix())` in O(n) Fractions: the leaf
    elimination with every edge term (+-1)^2 = 1."""
    parent, sign, order = f.rooted
    return _leaf_elimination(f.framings, [s * s for s in sign], parent, order)


@dataclass(frozen=True)
class Move:
    """One of stabilize(sign) / blow_up(vertex, sign) / blow_down(vertex) /
    reverse(vertex)."""

    kind: str
    vertex: int = 0
    sign: int = 1


def stabilize(sign: int) -> Move:
    return Move("stabilize", 0, sign)


def blow_up(vertex: int, sign: int) -> Move:
    return Move("blow_up", vertex, sign)


def blow_down(vertex: int) -> Move:
    return Move("blow_down", vertex)


def reverse(vertex: int) -> Move:
    return Move("reverse", vertex)


def apply_move(f: PlumbingForest, move: Move) -> PlumbingForest:
    if move.kind == "stabilize":
        if move.sign not in (1, -1):
            raise ForestError("stabilization framing must be +-1")
        return PlumbingForest(f.framings + (move.sign,), f.edges)
    if move.kind == "blow_up":
        u, eps = move.vertex, move.sign
        if not 0 <= u < f.n:
            raise ForestError(f"no vertex {u}")
        if eps not in (1, -1):
            raise ForestError("blow-up framing must be +-1")
        w = f.n
        framings = list(f.framings)
        framings[u] += eps
        framings.append(eps)
        # blow-up is stabilize + slide, which links the new leaf with sign eps
        return forest(framings, f.edges + ((u, w, eps),))
    if move.kind == "blow_down":
        w = move.vertex
        if not 0 <= w < f.n:
            raise ForestError(f"no vertex {w}")
        if f.framings[w] not in (1, -1):
            raise ForestError("blow-down target must have framing +-1")
        incident = [(u, v, s) for (u, v, s) in f.edges if w in (u, v)]
        if len(incident) > 1:
            raise ForestError("blow-down target must be a leaf or isolated")
        eps = f.framings[w]
        framings = list(f.framings)
        if incident:
            (u, v, s) = incident[0]
            nb = u if v == w else v
            framings[nb] -= eps
        framings.pop(w)

        def reindex(x: int) -> int:
            return x if x < w else x - 1

        edges = [(reindex(u), reindex(v), s) for (u, v, s) in f.edges
                 if w not in (u, v)]
        return forest(framings, edges)
    if move.kind == "reverse":
        v = move.vertex
        if not 0 <= v < f.n:
            raise ForestError(f"no vertex {v}")
        edges = tuple((a, b, -s if v in (a, b) else s) for (a, b, s) in f.edges)
        return PlumbingForest(f.framings, edges)
    raise ForestError(f"unknown move kind {move.kind!r}")


def structure_transport(kind: str, f: PlumbingForest, move: Move,
                        element: tuple[int, ...], d: int) -> tuple[int, ...]:
    """Carry a structure vector of `f` to the matching one of
    ``apply_move(f, move)``: a bijection of structure sets (of classes,
    for chern and hom), read from the framings and edges in O(n + |E|).

    `apply_move` refuses an illegal move (ForestError).  A modulus below
    1, an odd spin modulus, an unknown kind or an element that is not a
    structure of `f` raises StructureError.  Coordinates are mod d (mod 2d
    for chern).  Stabilization appends d/2 (spin), the sign (chern) or 0;
    reversal negates one coordinate; blow-up at u appends d/2 - e_u
    (spin), -e_u (coh) or 0 (hom), and for chern adds the sign to e_u and
    appends it; blow-down at w drops e_w, after the neighbour loses
    t * e_w for hom and chern, with t = (sign of w's edge) * framing(w).
    """
    from .structures import StructureError
    apply_move(f, move)
    if d < 1:
        raise StructureError(f"modulus must be positive, got {d}")
    if len(element) != f.n:
        raise StructureError(
            f"element has length {len(element)}, expected {f.n}")
    mod = 2 * d if kind == "chern" else d
    e = [x % mod for x in element]
    half = d // 2 if kind == "spin" else 0
    if kind in ("spin", "coh"):
        if d % 2 and kind == "spin":
            raise StructureError("spin transport needs even d")
        lx = [m * x for m, x in zip(f.framings, e)]
        for (u, v, s) in f.edges:
            lx[u] += s * e[v]
            lx[v] += s * e[u]
        if any((y - half * m) % d for y, m in zip(lx, f.framings)):
            raise StructureError(f"vector is not a {kind} solution")
    elif kind == "chern":
        if any((x - m) % 2 for x, m in zip(e, f.framings)):
            raise StructureError("Chern vector parity mismatch")
    elif kind != "hom":
        raise StructureError(f"unknown structure kind {kind!r}")
    v, eps = move.vertex, move.sign
    if move.kind == "stabilize":
        e.append(eps if kind == "chern" else half)
    elif move.kind == "reverse":
        e[v] = -e[v]
    elif kind == "chern" and move.kind == "blow_up":
        e[v] += eps
        e.append(eps)
    elif move.kind == "blow_up":
        e.append(0 if kind == "hom" else half - e[v])
    else:
        if kind in ("hom", "chern"):
            for (a, b, s) in f.edges:
                if v in (a, b):
                    e[a + b - v] -= s * f.framings[v] * e[v]
        del e[v]
    return tuple(x % mod for x in e)
