"""Reproducible manifold corpora: named classics plus seeded random forests.

Random forests are bounded (|framing| <= 5, n <= 8 by default) so that
acceptance runs are fast; the named classics (lens chains, the E8 tree)
anchor the corpus to recognizable manifolds.  All randomness flows through
an explicit ``random.Random(seed)``, so reports are byte-identical for a
fixed seed.
"""

from __future__ import annotations

import random

from .budget import charge
from .surgery import (Move, PlumbingForest, apply_move, blow_down, blow_up,
                      chain, forest, reverse, stabilize)

# chance that a random forest's vertex v > 0 hangs under an earlier vertex
EDGE_PROB = 0.7


def e8_forest() -> PlumbingForest:
    """The E8 plumbing tree, all framings 2; its form is positive definite."""
    return forest([2] * 8, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1),
                            (4, 5, 1), (5, 6, 1), (4, 7, 1)])


def lens_space(p: int) -> PlumbingForest:
    return forest([p])


def classics() -> list[tuple[str, PlumbingForest]]:
    return [
        ("S3_plus", lens_space(1)),
        ("S3_minus", lens_space(-1)),
        ("S1xS2", lens_space(0)),
        ("lens_3", lens_space(3)),
        ("lens_chain_2_3", chain([2, 3])),
        ("lens_chain_2_2_2", chain([2, 2, 2])),
        ("lens_chain_-2_3_5", chain([-2, 3, 5])),
        ("E8", e8_forest()),
    ]


def random_forest(rng: random.Random, max_vertices: int = 8,
                  max_framing: int = 5) -> PlumbingForest:
    n = rng.randint(1, max_vertices)
    edges = []
    for v in range(1, n):
        if rng.random() < EDGE_PROB:
            edges.append((rng.randrange(v), v, rng.choice([1, -1])))
    framings = [rng.randint(-max_framing, max_framing) for _ in range(n)]
    return forest(framings, edges)


def corpus(seed: int, size: int, max_vertices: int = 8
           ) -> list[tuple[str, PlumbingForest]]:
    """Named classics followed by ``size`` seeded random forests; charged
    size x ``max_vertices`` vertices before any is drawn."""
    charge(size * max_vertices, f"corpus of {size} random forests of up "
           f"to {max_vertices} vertices")
    rng = random.Random(seed)
    out = classics()
    for k in range(size):
        out.append((f"random_{k}", random_forest(rng, max_vertices)))
    return out


def random_move(rng: random.Random, f: PlumbingForest,
                max_vertices: int = 12) -> Move:
    """A random legal move; keeps the vertex count below ``max_vertices``."""
    kinds = ["reverse"] if f.n else []
    if f.n < max_vertices:
        kinds += ["stabilize", "blow_up"]
    blowable = [v for v in range(f.n)
                if f.framings[v] in (1, -1) and f.degree(v) <= 1]
    if blowable and f.n > 1:
        kinds += ["blow_down", "blow_down"]
    kind = rng.choice(kinds)
    if kind == "stabilize":
        return stabilize(rng.choice([1, -1]))
    if kind == "blow_up":
        return blow_up(rng.randrange(f.n), rng.choice([1, -1]))
    if kind == "blow_down":
        return blow_down(rng.choice(blowable))
    return reverse(rng.randrange(f.n))


def random_move_sequence(rng: random.Random, f: PlumbingForest,
                         length: int, max_vertices: int = 12
                         ) -> tuple[list[Move], PlumbingForest]:
    moves = []
    cur = f
    for _ in range(length):
        mv = random_move(rng, cur, max_vertices)
        moves.append(mv)
        cur = apply_move(cur, mv)
    return moves, cur
