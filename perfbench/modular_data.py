"""modular-data: the large-field workload.

For each sl2(r), r in R_VALUES (field degree phi(4r) from 16 to 32),
the jobs are ``check_axioms``, a cold ``Evaluator`` computing a chain
with every framing the inputs use, and, on that now-warm evaluator,
``wrt`` and the category's refined table (spin d=2 if 4 | r, else
cohomological d=2) over the classics and seeded small trees.  Cost is
dominated by exact inversion in the field (``cyclo.invert`` through the
rank check and cold evaluator caches) and by ``check_axioms``; structure
sets are tiny.
"""

from __future__ import annotations

import random

from harness import Job, seeded_tree

NAME = "modular-data"
R_VALUES = (10, 12, 14, 16, 20, 24)      # phi(4r) = 16, 16, 24, 32, 32, 32
TREE_SIZES = (4, 5, 6)
MAX_FRAMING = 5


def table_kind(r: int) -> str:
    return "spin" if r % 4 == 0 else "coh"


def forests(mods, seed: int):
    """The classics (fixed) followed by seeded trees of TREE_SIZES."""
    rng = random.Random(seed)
    out = list(mods["corpus"].classics())
    for n in TREE_SIZES:
        out.append((f"tree{n}", seeded_tree(rng, n, mods["surgery"],
                                            MAX_FRAMING)))
    return out


def framing_ladder(mods):
    """A chain with every framing in [-MAX_FRAMING, MAX_FRAMING].

    The cold job evaluates it, so each category pays for its twist powers
    there, once; the later jobs then cost the same whichever framings the
    seed draws."""
    return mods["surgery"].chain(range(-MAX_FRAMING, MAX_FRAMING + 1))


def setup(mods, seed: int, workdir: str, inprocess: bool):
    category, invariants = mods["category"], mods["invariants"]
    manifolds = forests(mods, seed)
    ladder = framing_ladder(mods)
    holders = {"ladder": ladder}
    jobs = []
    for r in R_VALUES:
        cat = mods["constructions"].sl2_category(r)
        kind = table_kind(r)
        holder = holders[r] = {}

        def cold(cat=cat, holder=holder):
            holder["ev"] = invariants.Evaluator(cat)
            return holder["ev"].wrt(ladder)

        def wrt(f, holder=holder):
            return holder["ev"].wrt(f)

        def table(f, holder=holder, kind=kind):
            ev = holder["ev"]
            return ev.wrt_spin(f, 2) if kind == "spin" else \
                ev.wrt_cohomology(f, 2)

        jobs.append(Job(f"sl2_{r}/check_axioms",
                        lambda cat=cat: category.check_axioms(cat)))
        jobs.append(Job(f"sl2_{r}/cold_wrt/ladder", cold))
        for name, f in manifolds:
            jobs.append(Job(f"sl2_{r}/wrt/{name}", lambda f=f, w=wrt: w(f)))
            jobs.append(Job(f"sl2_{r}/{kind}/{name}",
                            lambda f=f, t=table: t(f)))
    return jobs, holders


def check(jobs: list[Job], outputs: dict, ctx) -> dict[str, str]:
    """Seed-independent identities: the sl2 axiom battery passes, the cold
    ladder value equals a warm re-evaluation, and every refined table sums
    to wrt."""
    problems = {}
    for r in R_VALUES:
        key = f"sl2_{r}/check_axioms"
        rep = outputs.get(key)
        if rep is not None and not (rep.premodular and rep.modular
                                    and tuple(rep.transparent) == (0,)
                                    and not rep.violations):
            problems[key] = f"axiom battery fails: {rep.summary()}"
        key = f"sl2_{r}/cold_wrt/ladder"
        if key in outputs:
            warm = ctx[r]["ev"].wrt(ctx["ladder"])
            if outputs[key].exact != warm.exact:
                problems[key] = "cold ladder value != warm value"
    for job in jobs:
        part = job.id.split("/")[1]
        if part not in ("spin", "coh") or job.id not in outputs:
            continue
        tab = outputs[job.id]
        w = outputs.get(job.id.replace(f"/{part}/", "/wrt/"))
        if not tab.entries:
            problems[job.id] = "empty refined table"
        elif w is not None and tab.total() != w.exact:
            problems[job.id] = "refined table total != wrt"
    return problems
