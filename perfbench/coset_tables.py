"""coset-tables: the exponential-enumeration workload.

Small fields (sl2(6), sl2(8)) on seeded plumbing trees, three of each
size 6..10: the homology table (d=2, one forest evaluation per element
of (Z_2)^n), the cohomology and spin tables, and the m=3 Gauss-sum
invariant (a sum over (Z_3)^n); plus pure homology-class and
Chern-vector enumerations on seeded trees with |H_1 (x) Z_d| = d, at
d=3 for n = 7..9 and d=4 for n = 6..8.  Cost is dominated by repeated
``eval_weighted`` calls with their cyclotomic multiplies and by the
(Z_d)^n walks; inversion is rare.
"""

from __future__ import annotations

import random

from harness import Job, hom_table_total, seeded_tree

NAME = "coset-tables"
TREE_SIZES = (6, 7, 8, 9, 10)
TREES_PER_SIZE = 3
# (d, n); d=4 stops at n=8: the n=9 walks build 4^9-element sets and
# took half of each pass, which then spread more from run to run
ENUM_CASES = ((3, 7), (3, 8), (3, 9), (4, 6), (4, 7), (4, 8))
MOO_M = 3


def cyclic_coker_matrix(rng, n: int, d: int, mods):
    """Linking matrix of the first seeded tree on n vertices whose
    H_1 (x) Z_d has exactly d elements.

    The enumerations walk (Z_d)^n and close the image subgroup, whose size
    is d^n / |coker(L mod d)|; fixing |coker| = d keeps that work the same
    for every seed while the trees themselves differ."""
    for _ in range(10_000):
        mat = seeded_tree(rng, n, mods["surgery"]).linking_matrix()
        if mods["structures"].coker_count(mat, d) == d:
            return mat
    raise RuntimeError(f"no tree with |coker| = {d} on {n} vertices")


def setup(mods, seed: int, workdir: str, inprocess: bool):
    constructions, invariants = mods["constructions"], mods["invariants"]
    structures = mods["structures"]
    rng = random.Random(seed)
    ev6 = invariants.Evaluator(constructions.sl2_category(6))
    ev8 = invariants.Evaluator(constructions.sl2_category(8))
    xi = ev6.cat.field.zeta(ev6.cat.field.order // MOO_M)   # zeta_3
    jobs = []
    inputs = {}          # job id -> (evaluator or None, tree or matrix, d)
    for n in TREE_SIZES:
        for i in range(TREES_PER_SIZE):
            t = seeded_tree(rng, n, mods["surgery"])
            mat = t.linking_matrix()
            tag = f"n{n}.{i}"
            for job_id, ev, run in (
                    (f"hom2/sl2_6/{tag}", ev6,
                     lambda t=t: ev6.wrt_homology(t, 2)),
                    (f"coh2/sl2_6/{tag}", ev6,
                     lambda t=t: ev6.wrt_cohomology(t, 2)),
                    (f"spin2/sl2_8/{tag}", ev8,
                     lambda t=t: ev8.wrt_spin(t, 2)),
                    (f"moo{MOO_M}/{tag}", None,
                     lambda m=mat: invariants.moo(m, MOO_M, xi))):
                jobs.append(Job(job_id, run))
                inputs[job_id] = (ev, t, 2)
    for d, n in ENUM_CASES:
        mat = cyclic_coker_matrix(rng, n, d, mods)
        for kind in ("homology_classes", "chern_vectors"):
            job_id = f"{kind}/d{d}/n{n}"
            jobs.append(Job(job_id, lambda f=getattr(structures, kind),
                            m=mat, d=d: f(m, d)))
            inputs[job_id] = (None, mat, d)
    # the check reuses the inputs and the evaluators, untimed
    return jobs, {"mods": mods, "inputs": inputs, "xi": xi}


def check(jobs: list[Job], outputs: dict, ctx) -> dict[str, str]:
    """Seed-independent identities: spin and coh tables sum to wrt, hom
    tables to the degree-0 evaluation (``hom_table_total``); hom and
    Chern class counts equal coker_count and tile (Z_d)^n with their
    subgroup; moo equals the one-class refined Gauss sum."""
    structures = ctx["mods"]["structures"]
    invariants = ctx["mods"]["invariants"]
    problems = {}
    for job_id, out in outputs.items():
        head = job_id.split("/")[0]
        ev, given, d = ctx["inputs"][job_id]
        if head in ("hom2", "coh2", "spin2"):
            want = (hom_table_total(ev, given, d, ctx["mods"]["surgery"])
                    if head == "hom2" else ev.wrt(given).exact)
            if not out.entries:
                problems[job_id] = "empty refined table"
            elif out.total() != want:
                problems[job_id] = "refined table total is wrong"
            elif head == "hom2" and len(out.entries) != \
                    structures.coker_count(given.linking_matrix(), d):
                problems[job_id] = "hom class count != coker_count"
        elif head.startswith("moo"):
            mat = given.linking_matrix()
            params = invariants.MooParams(m=MOO_M, xi=ctx["xi"])
            refined = invariants.moo_refined(mat, params, (0,) * len(mat))
            if refined.exact != out.exact:
                problems[job_id] = "moo != one-class refined Gauss sum"
        else:
            n = len(given)
            if out.count != structures.coker_count(given, d):
                problems[job_id] = f"{head} count != coker_count"
            elif out.count * len(out.subgroup) != d ** n:
                problems[job_id] = f"{head} classes do not tile (Z_{d})^{n}"
    return problems
