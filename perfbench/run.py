"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload modular-data --seed 1 \
        --seconds 30 --trace 0

With ``--trace 0`` the workload's fixed job list is run in passes, each
from a fresh import of spinmod, until ``--seconds`` is used up, and the
end-to-end metrics of BENCHMARK.json are printed.  With ``--trace 1`` one
untraced and one traced in-process pass give the per-layer metrics.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
metric with its unit, the failures, and the run metadata.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import cli_verify  # noqa: E402
import coset_tables  # noqa: E402
import harness  # noqa: E402
import modular_data  # noqa: E402
import tracing  # noqa: E402
from harness import (Judge, fresh_import, median, quantile,  # noqa: E402
                     run_pass)

WORKLOADS = {w.NAME: w for w in (modular_data, coset_tables, cli_verify)}
BENCHMARK_PATH = os.path.join(harness.ROOT, "BENCHMARK.json")
MIN_SETUPS = 5
START_SAMPLES = 5
# stdlib modules spinmod imports; loaded before timing so that every
# setup_s sample measures the same work
PRELOAD = ("argparse", "cmath", "contextlib", "dataclasses", "fractions",
           "functools", "itertools", "json", "math", "random")


def load_benchmark() -> dict:
    with open(BENCHMARK_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def peak_rss_mb(workload) -> float:
    who = (resource.RUSAGE_CHILDREN if getattr(workload, "CHILD_RSS", False)
           else resource.RUSAGE_SELF)
    return resource.getrusage(who).ru_maxrss / 1024.0   # KiB on Linux


def timed_setup(workload, seed: int, workdir: str, inprocess: bool):
    # a new directory per set-up: rewriting existing files can stall on
    # the file system's flush-on-truncate and would time the disk
    files_dir = tempfile.mkdtemp(prefix="setup-", dir=workdir)
    gc.collect()
    t0 = perf_counter()
    jobs, ctx = workload.setup(fresh_import(), seed, files_dir, inprocess)
    return perf_counter() - t0, jobs, ctx


def measure(workload, seed: int, seconds: float, workdir: str) -> dict:
    """Untraced passes until the time is used up; end-to-end metrics."""
    judge = Judge(workload, harness.load_reference(workload.NAME, seed))
    setups, walls, latencies = [], [], []
    begin = last = perf_counter()
    while True:
        setup_s, jobs, ctx = timed_setup(workload, seed, workdir, False)
        setups.append(setup_s)
        res = run_pass(jobs)
        judge.judge(jobs, res, ctx)
        walls.append(res.wall_s)
        latencies.extend(res.latencies)
        del jobs, ctx, res      # free the pass before the next set-up
        # the next pass is estimated by the last one; the first also paid
        # for the identity checks
        now = perf_counter()
        if now - begin + (now - last) > seconds:
            break
        last = now
    while len(setups) < MIN_SETUPS:
        setups.append(timed_setup(workload, seed, workdir, False)[0])
    values = {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "job_p50_ms": 1000 * quantile(latencies, 0.5),
        "job_p90_ms": 1000 * quantile(latencies, 0.9),
        "peak_rss_mb": peak_rss_mb(workload),
        "ok_ratio": 1 - judge.failed / judge.attempted,
    }
    p90 = values["job_p90_ms"] / 1000
    info = {"passes": len(walls),
            "jobs_per_pass": len(latencies) // len(walls),
            "latency_samples": len(latencies),
            "samples_above_p90": sum(1 for x in latencies if x > p90),
            "setup_samples": len(setups),
            "fail_ratio": judge.failed / judge.attempted,
            "wall_s_per_pass": walls}
    return {"values": values, "judge": judge, "info": info}


def cli_start_ms(workdir: str) -> float:
    """Median time of a fresh interpreter importing spinmod.cli."""
    env = dict(os.environ, PYTHONPATH=harness.SRC)
    times = []
    for _ in range(START_SAMPLES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import spinmod.cli"], env=env,
                       cwd=workdir, check=True, timeout=120)
        times.append(perf_counter() - t0)
    return 1000 * median(times)


def traced_pass(workload, seed: int, workdir: str, judge: Judge):
    """One in-process pass with the tracer installed from the fresh import
    on, so set-up calls are counted too (as job -1)."""
    tracer = tracing.Tracer()
    mods = fresh_import()
    tracer.install(mods)
    try:
        jobs, ctx = workload.setup(
            mods, seed, tempfile.mkdtemp(prefix="setup-", dir=workdir), True)
        res = run_pass(jobs, tracer)
    finally:
        tracer.uninstall()
    judge.judge(jobs, res, ctx)
    return tracer, res


def traced(workload, seed: int, workdir: str) -> dict:
    """One untraced and one traced in-process pass; per-layer metrics."""
    judge = Judge(workload, harness.load_reference(workload.NAME, seed))
    _, jobs, ctx = timed_setup(workload, seed, workdir, True)
    plain = run_pass(jobs)
    judge.judge(jobs, plain, ctx)
    del jobs, ctx
    gc.collect()
    tracer, res = traced_pass(workload, seed, workdir, judge)
    job_s = sum(res.latencies)
    derived = {
        "invariants.entries_per_eval":
            tracer.sums["invariants.entries"]
            / max(1, tracer.calls["invariants.eval_weighted"]),
        "trace.overhead_ratio": res.wall_s / plain.wall_s,
        "trace.jobs": len(res.latencies),
        "trace.job_s": job_s,
        "trace.span_coverage": tracer.root_time_of_jobs() / job_s,
        "cli.start_ms": cli_start_ms(workdir),
    }
    path = os.path.join(HERE, "traces",
                        f"{workload.NAME}-seed{seed}.spans.csv.gz")
    tracer.write(path)
    return {"tracer": tracer, "derived": derived, "judge": judge,
            "info": {"trace_file": os.path.relpath(path, harness.ROOT),
                     "spans": len(tracer.span_name),
                     "untraced_wall_s": plain.wall_s,
                     "traced_wall_s": res.wall_s}}


def layer_value(name: str, tracer, derived: dict) -> float:
    if name in derived:
        return derived[name]
    if name in tracer.sums:
        return tracer.sums[name]
    base, _, what = name.rpartition(".")
    if what == "calls":
        return tracer.calls[base]
    if what == "self_s":
        return tracer.self_s[base]
    raise KeyError(f"no per-layer metric {name!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(harness.SRC, "spinmod")):
        print(f"error: no spinmod sources under {harness.SRC}",
              file=sys.stderr)
        return 2
    for name in PRELOAD:
        __import__(name)
    bench = load_benchmark()
    workload = WORKLOADS[args.workload]
    meta = harness.metadata(workload.NAME, args.seed, os.getloadavg())
    workdir = os.path.join(HERE, ".work", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            out = traced(workload, args.seed, workdir)
            specs = bench["per_layer"]
            metrics = {m["name"]: {"value": layer_value(m["name"],
                                                        out["tracer"],
                                                        out["derived"]),
                                   "unit": m["unit"]} for m in specs}
        else:
            out = measure(workload, args.seed, args.seconds, workdir)
            specs = bench["end_to_end"]
            metrics = {m["name"]: {"value": out["values"][m["name"]],
                                   "unit": m["unit"]} for m in specs}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):     # only if no other run uses it
            os.rmdir(os.path.dirname(workdir))
    judge = out["judge"]
    print(f"perfbench {workload.NAME} seed={args.seed} "
          f"trace={args.trace}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"  fail_ratio {judge.failed}/{judge.attempted} "
          f"({len(judge.unexpected)} unexpected)")
    for job_id, msg in sorted(judge.failures.items()):
        print(f"  failed {job_id}: {msg}")
    print("meta " + json.dumps({**meta, **out["info"]}, sort_keys=True))
    print(json.dumps({"correct": not judge.unexpected,
                      "attempted": judge.attempted,
                      "failed": judge.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
