"""Closed-loop pass runner, output digests and run metadata.

A workload's ``setup(mods, seed, workdir, inprocess)`` returns its fixed
job list for one pass and a context for its check; ``check(jobs,
outputs, context)`` returns the identity failures of a pass by job id.
One caller issues the jobs one after the other, each only after the
previous one returned.  Every pass starts
from a fresh import of spinmod (``fresh_import``), so categories,
evaluators and module caches are cold in every pass, as in a new
process; the set-up of each pass is timed as one ``setup_s`` sample.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Callable

from tracing import MODULES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.join(ROOT, "perfbench")
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference_digests.json")
DEFAULT_SEED = 1


@dataclass
class Job:
    id: str
    run: Callable[[], object]
    # documented expected failure, e.g. a malformed input that crashes today
    known_failure: str | None = None


@dataclass
class PassResult:
    wall_s: float
    latencies: list[float]
    outputs: list[object]
    errors: list[str | None]


def fresh_import() -> dict:
    """Drop every loaded spinmod module and import the ten modules anew."""
    for name in list(sys.modules):
        if name == "spinmod" or name.startswith("spinmod."):
            del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return {short: importlib.import_module(f"spinmod.{short}")
            for short in MODULES}


def run_pass(jobs: list[Job], tracer=None) -> PassResult:
    """Issue the jobs one at a time; time each call and the whole list."""
    latencies, outputs, errors = [], [], []
    start = perf_counter()
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        t0 = perf_counter()
        try:
            out, err = job.run(), None
        except Exception as exc:  # a raising job is a failed job
            out, err = None, f"raised {type(exc).__name__}: {exc}"
        latencies.append(perf_counter() - t0)
        outputs.append(out)
        errors.append(err)
    wall = perf_counter() - start
    if tracer is not None:
        tracer.job = -1
    return PassResult(wall, latencies, outputs, errors)


# ---------------------------------------------------------------------------
# exact-output digests


def canon(obj):
    """A JSON-able canonical form of an exact output.

    Cyclotomic numbers become (N, num, den); dataclasses their fields
    except the floating-point display shadow ``approx``; dicts their items
    sorted by key.  Works by shape, so objects from any fresh import of
    spinmod compare alike.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if all(hasattr(obj, a) for a in ("field", "num", "den")):
        return ["Q", obj.field.order, list(obj.num), obj.den]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: canon(getattr(obj, f.name))
                for f in dataclasses.fields(obj) if f.name != "approx"}
    if isinstance(obj, dict):
        items = [[canon(k), canon(v)] for k, v in obj.items()
                 if k != "approx"]
        return sorted(items, key=lambda kv: json.dumps(kv[0]))
    if isinstance(obj, (list, tuple)):
        return [canon(x) for x in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def digest(obj) -> str:
    text = json.dumps(canon(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference(workload: str, seed: int) -> dict | None:
    """Committed digests of the default seed, or None for other seeds."""
    if seed != DEFAULT_SEED or not os.path.exists(REFERENCE_PATH):
        return None
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh).get(workload)


class Judge:
    """Verdicts per job execution.

    The first pass is checked against the workload's identities and, for
    the default seed, the committed reference digests; every later pass
    must reproduce the first pass's digests exactly.
    """

    def __init__(self, workload, reference: dict | None):
        self.workload = workload
        self.reference = reference
        self.first: dict[str, tuple[str | None, str | None]] = {}
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.failures: dict[str, str] = {}
        self.digests: dict[str, str | None] = {}      # of the latest pass

    def judge(self, jobs: list[Job], res: PassResult, ctx) -> None:
        digests = {}
        for job, out, err in zip(jobs, res.outputs, res.errors):
            digests[job.id] = None if err else digest(out)
        if not self.first:
            problems = self.workload.check(
                jobs, {j.id: o for j, o, e in zip(jobs, res.outputs,
                                                  res.errors) if e is None},
                ctx)
            for job, err in zip(jobs, res.errors):
                msg = err or problems.get(job.id)
                if msg is None and self.reference is not None:
                    msg = self._against_reference(job.id, digests[job.id])
                self.first[job.id] = (digests[job.id], msg)
        for job, err in zip(jobs, res.errors):
            first_digest, first_msg = self.first[job.id]
            msg = err or first_msg
            if msg is None and digests[job.id] != first_digest:
                msg = "output differs from the first pass"
            self.attempted += 1
            if msg is not None:
                self.failed += 1
                self.failures.setdefault(job.id, msg)
                if job.known_failure is None:
                    self.unexpected.append(f"{job.id}: {msg}")
        self.digests = digests

    def _against_reference(self, job_id: str, dig: str) -> str | None:
        # null marks a documented known failure, whose output is not pinned
        if job_id not in self.reference:
            return "job has no reference digest"
        ref = self.reference[job_id]
        if ref is not None and ref != dig:
            return "digest differs from the committed reference"
        return None


# ---------------------------------------------------------------------------
# statistics and metadata


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (q in [0, 1]) of a sample."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return quantile(values, 0.5)


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def metadata(workload: str, seed: int, load_at_start) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(load_at_start),
        "git_commit": git_commit(),
    }


def seeded_tree(rng, n: int, surgery, max_framing: int = 5):
    """A plumbing tree on n vertices with seeded framings in
    [-max_framing, max_framing] and seeded edge signs.

    The shape is fixed: vertex v > 0 hangs off vertex (v - 1) // 2, a
    complete binary tree.  Evaluation work (depth, leaf-message reuse)
    then depends on n and not on the seed; only the values do."""
    edges = [((v - 1) // 2, v, rng.choice((1, -1))) for v in range(1, n)]
    framings = [rng.randint(-max_framing, max_framing) for _ in range(n)]
    return surgery.forest(framings, edges)


def hom_table_total(ev, f, d: int, surgery):
    """What a homology table must sum to.  By character orthogonality the
    sum over all of (Z_d)^n of the dual colors keeps only degree-0 labels,
    so the class values add up to the normalized evaluation with the
    degree-0 graded color on every vertex (not to ``wrt``)."""
    grad = ev.structure_grading(d, spin=False)
    raw = ev.eval_weighted(f, [ev.graded_color(grad, 0, 1)] * f.n)
    return ev.normalize(raw, surgery.signature(f.linking_matrix())).exact
