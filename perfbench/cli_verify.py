"""cli-verify: the entry point users run, every call a cold process.

One ``verify all --seed S`` followed by 140 small requests, each a fresh
``python -m spinmod.cli`` process: ``invariant`` over sl2(5..12) with no
refinement or a spin / coh / hom table on seeded forest files with at
most 8 vertices, ``structures``, ``category check`` (built-in and file)
and ``manifold show``, all in JSON.  Every twentieth request is one of
the malformed inputs of ROADMAP item 5, which must exit 2 with no
traceback.  Interpreter start, import and category construction are paid
on every call.  In the traced run the same argv lists go through
``cli.main`` in-process with output captured.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import traceback

from harness import SRC, Job, hom_table_total, seeded_tree

NAME = "cli-verify"
CHILD_RSS = True       # peak RSS is that of the child processes
N_REQUESTS = 140
MALFORMED_EVERY = 20
TIMEOUT_S = 170

# Round-robin plans for the well-formed requests.
KIND_CYCLE = ("invariant",) * 12 + ("structures",) * 3 + ("category",) * 2 \
    + ("manifold",) * 2
INVARIANT_PLAN = tuple((r, None) for r in range(5, 13)) + (
    (8, "spin"), (12, "spin"), (6, "coh"), (10, "coh"), (6, "hom"),
    (10, "hom"))
STRUCTURES_PLAN = (("spin", 2), ("coh", 3), ("chern", 2), ("hom", 3),
                   ("spin", 4), ("coh", 2), ("chern", 3), ("hom", 2))
PLAIN_SIZES = (2, 3, 4, 5, 6, 7, 8)
HOM_SIZES = (3, 4, 5, 6)
MATRIX_SIZES = (2, 3, 4, 5)

# The malformed inputs of ROADMAP item 5, in request order: name, argv
# template ({...} names a file written by set-up), and the outcome
# observed when this benchmark was defined.  Each is expected to exit 2
# with a one-line message; a non-None outcome marks a documented failure
# that counts in fail_ratio until the program is fixed.
MALFORMED = (
    ("invariant_e_d_not_primitive",
     "invariant --category builtin:sl2:8 --manifold {plain_forest} "
     "--e_d 2 --refine spin --d 2 --format json",
     "rc 1 with a traceback (GradingError)"),
    ("structures_scalar_matrix", "structures spin --matrix [1] --d 2",
     "rc 1 with a traceback (TypeError)"),
    ("category_short_dual", "category check {short_dual} --format json",
     "rc 1 with a traceback (MalformedCategoryError)"),
    ("category_negative_fusion",
     "category check {negative_fusion} --format json",
     "rc 1 with a traceback (MalformedCategoryError)"),
    ("category_fusion_index_out_of_range",
     "category check {fusion_index} --format json",
     "rc 1 with a traceback (IndexError)"),
    ("verify_negative_corpus_size", "verify sum --corpus-size -3",
     "rc 0: the value is accepted silently"),
    ("invariant_hom_d0",
     "invariant --category builtin:sl2:6 --manifold {plain_forest} "
     "--refine hom --d 0 --format json", None),
)


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _malformed_categories(formats, constructions, workdir: str) -> dict:
    """sl2(4) exported, then broken in three ways."""
    good = formats.category_to_text(constructions.sl2_category(4))
    if "dual 0 1 2\n" not in good or "fusion 1 1 0 1\n" not in good:
        raise RuntimeError("unexpected sl2(4) category file layout")
    return {
        "short_dual": _write(os.path.join(workdir, "short_dual.cat"),
                             good.replace("dual 0 1 2\n", "dual 0 1\n")),
        "negative_fusion": _write(
            os.path.join(workdir, "negative_fusion.cat"),
            good.replace("fusion 1 1 0 1\n", "fusion 1 1 0 -1\n")),
        "fusion_index": _write(os.path.join(workdir, "fusion_index.cat"),
                               good.replace("end\n", "fusion 9 0 0 1\nend\n")),
    }


def setup(mods, seed: int, workdir: str, inprocess: bool):
    """Write the request files and build the argv list of every job."""
    formats, surgery = mods["formats"], mods["surgery"]
    rng = random.Random(seed)
    files = _malformed_categories(formats, mods["constructions"], workdir)
    expect: dict[str, dict] = {}
    requests: list[tuple[str, list[str], str | None]] = [
        ("verify_all", ["verify", "all", "--seed", str(seed)], None)]
    expect["verify_all"] = {"kind": "verify"}
    counters = {k: 0 for k in ("invariant", "structures", "category",
                               "manifold", "plain", "hom")}
    malformed = iter(MALFORMED)
    well = 0
    written = []

    def forest_file(n: int) -> tuple[str, object]:
        f = seeded_tree(rng, n, surgery)
        path = os.path.join(workdir, f"forest{len(written)}.txt")
        written.append(path)
        return _write(path, formats.forest_to_text(f)), f

    files["plain_forest"] = forest_file(4)[0]
    for index in range(N_REQUESTS):
        if index % MALFORMED_EVERY == MALFORMED_EVERY // 2:
            key, template, today = next(malformed)
            job_id = f"{index:03d}/malformed/{key}"
            argv = [tok.format(**files) for tok in template.split()]
            requests.append((job_id, argv, today))
            expect[job_id] = {"kind": "malformed"}
            continue
        kind = KIND_CYCLE[well % len(KIND_CYCLE)]
        well += 1
        k = counters[kind]
        counters[kind] += 1
        if kind == "invariant":
            r, refine = INVARIANT_PLAN[k % len(INVARIANT_PLAN)]
            sizes, size_key = ((HOM_SIZES, "hom") if refine == "hom"
                               else (PLAIN_SIZES, "plain"))
            n = sizes[counters[size_key] % len(sizes)]
            counters[size_key] += 1
            path, f = forest_file(n)
            argv = ["invariant", "--category", f"builtin:sl2:{r}",
                    "--manifold", path, "--format", "json"]
            if refine:
                argv += ["--refine", refine, "--d", "2"]
            job_id = f"{index:03d}/invariant/sl2_{r}/{refine or 'none'}/n{n}"
            expect[job_id] = {"kind": kind, "refine": refine, "forest": f,
                              "r": r, "d": 2}
        elif kind == "structures":
            skind, d = STRUCTURES_PLAN[k % len(STRUCTURES_PLAN)]
            n = MATRIX_SIZES[(k + k // len(STRUCTURES_PLAN))
                             % len(MATRIX_SIZES)]
            mat = seeded_tree(rng, n, surgery).linking_matrix()
            argv = ["structures", skind, "--matrix",
                    json.dumps([list(row) for row in mat]), "--d", str(d)]
            job_id = f"{index:03d}/structures/{skind}/d{d}/n{n}"
            expect[job_id] = {"kind": kind, "skind": skind, "mat": mat,
                              "d": d}
        elif kind == "category":
            r = 5 + (k // 2) % 8
            if k % 2:
                source = _write(os.path.join(workdir, f"cat{index}.txt"),
                                formats.category_to_text(
                                    mods["constructions"].sl2_category(r)))
                job_id = f"{index:03d}/category/file/sl2_{r}"
            else:
                source = f"builtin:sl2:{r}"
                job_id = f"{index:03d}/category/builtin/sl2_{r}"
            argv = ["category", "check", source, "--format", "json"]
            expect[job_id] = {"kind": kind}
        else:
            n = PLAIN_SIZES[k % len(PLAIN_SIZES)]
            path, f = forest_file(n)
            argv = ["manifold", "show", path, "--format", "json"]
            job_id = f"{index:03d}/manifold/n{n}"
            expect[job_id] = {"kind": kind, "forest": f}
        requests.append((job_id, argv, None))

    stderr_tails: dict[str, str] = {}
    runner = _in_process(mods) if inprocess else _subprocess(workdir)
    jobs = [Job(job_id, lambda j=job_id, a=argv: runner(j, a, stderr_tails),
                known_failure=today)
            for job_id, argv, today in requests]
    ctx = {"mods": mods, "expect": expect, "stderr": stderr_tails}
    return jobs, ctx


def _result(rc: int, stdout: str, stderr: str, job_id: str,
            tails: dict) -> dict:
    lines = stderr.strip().splitlines()
    tails[job_id] = lines[-1] if lines else ""
    try:
        out = json.loads(stdout)
    except ValueError:
        out = stdout
    return {"rc": rc, "out": out, "traceback": "Traceback" in stderr}


def _subprocess(workdir: str):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("SPINMOD_SEED", None)

    def run(job_id: str, argv: list[str], tails: dict) -> dict:
        proc = subprocess.run([sys.executable, "-m", "spinmod.cli", *argv],
                              cwd=workdir, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
        return _result(proc.returncode, proc.stdout, proc.stderr, job_id,
                       tails)

    return run


def _in_process(mods):
    """``cli.main(argv)`` with stdout/stderr captured; an escaping
    exception is reported as ``python -m`` would: rc 1 and a traceback."""
    def run(job_id: str, argv: list[str], tails: dict) -> dict:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = mods["cli"].main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # mirrors an uncaught exception in a process
                traceback.print_exc()
                rc = 1
        return _result(rc, out.getvalue(), err.getvalue(), job_id, tails)

    return run


# ---------------------------------------------------------------------------
# checks


def check(jobs: list[Job], outputs: dict, ctx) -> dict[str, str]:
    """Exit-code contract plus seed-independent identities per request."""
    problems = {}
    for job_id, res in outputs.items():
        exp = ctx["expect"][job_id]
        tail = ctx["stderr"].get(job_id, "")
        if exp["kind"] == "malformed":
            if res["rc"] != 2 or res["traceback"]:
                problems[job_id] = (f"expected rc 2 without traceback, got rc "
                                    f"{res['rc']}" + (f": {tail}" if tail
                                                      else ""))
            continue
        if res["rc"] != 0 or res["traceback"]:
            problems[job_id] = f"rc {res['rc']}: {tail}"
            continue
        msg = CHECKS[exp["kind"]](res["out"], exp, ctx["mods"])
        if msg:
            problems[job_id] = msg
    return problems


def _check_verify(out, exp, mods):
    heads = [ln for ln in str(out).splitlines() if ln.startswith("[")]
    if len(heads) != len(mods["verify"].ALL_SUITES) or \
            not all(h.startswith("[PASS]") for h in heads):
        return "verify all did not pass every suite"
    return None


def _check_invariant(out, exp, mods):
    formats, structures = mods["formats"], mods["structures"]
    if not isinstance(out, dict) or "invariant" not in out:
        return "no invariant in JSON output"
    f = exp["forest"]
    if out["manifold"]["vertices"] != f.n:
        return "vertex count differs from the forest file"
    if exp["refine"] is None:
        return None
    entries = out["table"]["entries"]
    if not entries:
        return "empty refined table"
    total = formats.cyclo_from_json(entries[0]["exact"])
    for e in entries[1:]:
        total = total + formats.cyclo_from_json(e["exact"])
    if exp["refine"] != "hom":
        if total != formats.cyclo_from_json(out["invariant"]["exact"]):
            return "refined table total != invariant"
        return None
    ev = mods["invariants"].Evaluator(
        mods["constructions"].sl2_category(exp["r"]))
    if total != hom_table_total(ev, f, exp["d"], mods["surgery"]):
        return "hom table total != degree-0 evaluation"
    if len(entries) != structures.coker_count(f.linking_matrix(), exp["d"]):
        return "hom class count != coker_count"
    return None


def _check_structures(out, exp, mods):
    structures = mods["structures"]
    mat, d, skind = exp["mat"], exp["d"], exp["skind"]
    reps = [tuple(r) for r in out["representatives"]]
    if out["count"] != len(reps) or not reps:
        return "count differs from the representatives"
    n = len(mat)
    if skind in ("spin", "coh"):
        rhs = (structures.characteristic_rhs(mat, d) if skind == "spin"
               else (0,) * n)
        for s in reps:
            lhs = tuple(sum(mat[i][j] * s[j] for j in range(n)) % d
                        for i in range(n))
            if lhs != rhs:
                return f"{skind} representative {s} does not solve L s = rhs"
    elif len(reps) != structures.coker_count(mat, d):
        return f"{skind} class count != coker_count"
    return None


def _check_category(out, exp, mods):
    if not (out["premodular"] and out["modular"]
            and out["transparent"] == [0] and not out["violations"]):
        return "sl2 axiom battery fails"
    return None


def _check_manifold(out, exp, mods):
    f = exp["forest"]
    sig = (out["b_plus"], out["b_minus"], out["nullity"])
    if out["linking_matrix"] != [list(r) for r in f.linking_matrix()]:
        return "linking matrix differs from the forest file"
    if sum(sig) != f.n:
        return "b_plus + b_minus + nullity != vertex count"
    return None


CHECKS = {"verify": _check_verify, "invariant": _check_invariant,
          "structures": _check_structures, "category": _check_category,
          "manifold": _check_manifold}
