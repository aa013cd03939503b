"""Rewrite reference_digests.json from one pass of every workload.

    python3 perfbench/update_reference.py

Runs each workload once, untraced, at the default seed and stores the
sha256 of every job's exact output.  It refuses to write if any job
fails other than a documented known failure, whose digest is stored as
null so that a fix is not reported as a mismatch.  Regenerate only when
an output is meant to change, and say why in the change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import harness
from harness import DEFAULT_SEED, Judge, fresh_import, run_pass
from run import WORKLOADS


def main() -> int:
    reference = {}
    workdir = tempfile.mkdtemp(prefix=".work-ref-", dir=harness.BENCH_DIR)
    try:
        for name, workload in sorted(WORKLOADS.items()):
            jobs, ctx = workload.setup(fresh_import(), DEFAULT_SEED, workdir,
                                       False)
            judge = Judge(workload, None)
            judge.judge(jobs, run_pass(jobs), ctx)
            if judge.unexpected:
                print(f"{name}: refusing, unexpected failures:",
                      *judge.unexpected, sep="\n  ", file=sys.stderr)
                return 1
            reference[name] = {
                job.id: (None if job.known_failure else judge.digests[job.id])
                for job in jobs}
            print(f"{name}: {len(jobs)} digests")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(harness.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
