"""Tests of the benchmark itself: tracer completeness, determinism of
traced counts and digests, and the metric names of BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json

import pytest

import harness
import run
import tracing
from harness import DEFAULT_SEED, Judge, fresh_import, run_pass

COUNTS = ("structures.set_size.sum", "invariants.entries_per_eval")


def test_benchmark_json_names_the_workloads_and_metrics():
    bench = run.load_benchmark()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == [
        "setup_s", "wall_s", "job_p50_ms", "job_p90_ms", "peak_rss_mb",
        "ok_ratio"]
    tracer = tracing.Tracer()
    tracer.install(fresh_import())
    tracer.uninstall()
    derived = dict.fromkeys(("invariants.entries_per_eval",
                             "trace.overhead_ratio", "trace.jobs",
                             "trace.job_s", "trace.span_coverage",
                             "cli.start_ms"), 1.0)
    for m in bench["per_layer"]:
        run.layer_value(m["name"], tracer, derived)   # KeyError if unknown


def test_install_rebinds_every_reference_and_uninstall_restores():
    mods = fresh_import()
    tracer = tracing.Tracer()
    tracer.install(mods)
    rebound = list(tracer._rebound)
    try:
        assert tracing.spinmod_references(tracer.originals) == []
        wrapped = tracer.wrappers
        category, cyclo = mods["category"], mods["cyclo"]
        orig_check = tracer.originals[id(category.check_axioms.__wrapped__)]
        assert mods["cli"].check_axioms is wrapped[id(orig_check)]
        assert mods["verify"].check_axioms is wrapped[id(orig_check)]
        verify = mods["verify"]
        assert verify.ALL_SUITES["axioms"] is verify.verify_axioms
        assert mods["invariants"].signature is mods["surgery"].signature
        assert mods["verify"].moo is mods["invariants"].moo
        assert vars(cyclo.CycloNumber)["__rmul__"] is \
            vars(cyclo.CycloNumber)["__mul__"]
        names = {name for name, _ in tracer.targets(mods)}
        assert {"cyclo.invert", "cyclo.mul", "cli.main",
                "verify.verify_spinc", "surgery.linking_matrix",
                "invariants.eval_weighted"} <= names
    finally:
        tracer.uninstall()
    assert tracing.spinmod_references(tracer.wrappers) == []
    for owner, attr, orig, is_dict in rebound:
        now = owner[attr] if is_dict else vars(owner)[attr]
        assert now is orig


def _traced_counts(workload, seed, tmp_path):
    judge = Judge(workload, harness.load_reference(workload.NAME, seed))
    tracer, _ = run.traced_pass(workload, seed, str(tmp_path), judge)
    counts = dict(tracer.calls)
    counts.update(tracer.sums)
    return counts, dict(judge.digests), judge


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_traced_runs_repeat_exactly_and_a_new_seed_passes(name, tmp_path):
    workload = run.WORKLOADS[name]
    first, digests, judge = _traced_counts(workload, DEFAULT_SEED, tmp_path)
    second, digests2, _ = _traced_counts(workload, DEFAULT_SEED, tmp_path)
    assert first == second
    assert digests == digests2
    assert judge.unexpected == []
    assert first["invariants.eval_weighted"] > 0
    # another seed: other inputs, every identity still holds
    other = Judge(workload, harness.load_reference(name, DEFAULT_SEED + 1))
    _, jobs, ctx = run.timed_setup(workload, DEFAULT_SEED + 1, str(tmp_path),
                                   True)
    other.judge(jobs, run_pass(jobs), ctx)
    assert other.unexpected == []
    assert any(other.digests[k] != digests[k] for k in digests)


def test_reference_covers_every_job_of_the_default_seed(tmp_path):
    with open(harness.REFERENCE_PATH, encoding="utf-8") as fh:
        reference = json.load(fh)
    for name, workload in run.WORKLOADS.items():
        jobs, _ = workload.setup(fresh_import(), DEFAULT_SEED,
                                 str(tmp_path), False)
        assert sorted(reference[name]) == sorted(j.id for j in jobs)
        for job in jobs:
            assert (reference[name][job.id] is None) == bool(job.known_failure)


def test_canon_ignores_the_float_shadow_and_key_order():
    a = {"approx": [0.1, 0.2], "b": 1, "a": [1, 2]}
    b = {"a": [1, 2], "b": 1, "approx": [0.3, 0.4]}
    assert harness.digest(a) == harness.digest(b)
    assert harness.digest({"a": 1}) != harness.digest({"a": 2})


def test_quantile_interpolates():
    assert harness.quantile([4, 1, 3, 2], 0.5) == 2.5
    assert harness.quantile([1, 2, 3, 4, 5], 0.9) == pytest.approx(4.6)
