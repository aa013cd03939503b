"""Acceptance suite: one test per criterion, each timing its own suite
call, printing a PASS/FAIL line with that runtime and asserting the stated
tolerance (exactness) and time budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines, or via ``spinmod verify all``.
"""

import inspect
import time

import pytest

from spinmod import verify

SEED = 7


def _report(number: int, label: str, suite, budget: float | None = None,
            **kwargs):
    """Run ``suite(**kwargs)``, timing the call, and assert that it passed
    within ``budget`` seconds; returns its report."""
    t0 = time.perf_counter()
    rep = suite(**kwargs)
    elapsed = time.perf_counter() - t0
    status = "PASS" if rep.passed else "FAIL"
    line = f"criterion {number} [{status}] {label}: {elapsed:.1f}s"
    if budget is not None:
        line += f" (budget {budget:.0f}s)"
    print(line)
    for ln in rep.lines:
        print(f"    {ln}")
    assert rep.passed, f"criterion {number} failed: {rep.witness}"
    if budget is not None:
        assert elapsed < budget, \
            f"criterion {number} exceeded its {budget}s budget ({elapsed:.1f}s)"
    return rep


def test_criterion_01_axioms():
    _report(1, "axioms for sl2(3..12) and modular abelian instances",
            verify.verify_axioms, budget=5.0)


def test_criterion_02_refinability():
    _report(2, "2-refinable iff r even, 2-spin iff 4 | r",
            verify.verify_refinability)


def test_criterion_03_vanishing_lemmas():
    _report(3, "graded unknot evaluations vanish exactly off the live degree",
            verify.verify_lemmas)


def test_criterion_04_sum_formulas():
    _report(4, "refined tables sum to the unrefined invariant (50-manifold "
               "corpus + classics)", verify.verify_sum, budget=60.0,
            seed=SEED, size=50)


def test_criterion_05_move_invariance():
    _report(5, "wrt and refined multisets invariant under 200 move sequences "
               "per corpus manifold", verify.verify_kirby, budget=120.0,
            seed=SEED, sequences=200)


def test_criterion_06_oracle_equivalence():
    _report(6, "evaluator == brute force, SNF solver == brute force "
               "(200 instances each)", verify.verify_oracle, seed=SEED)


def test_criterion_07_bijection_counts():
    _report(7, "Chern-vector class counts equal cokernel counts "
               "(100 matrices)", verify.verify_bijection, seed=SEED)


def test_criterion_08_decomposition():
    _report(8, "tau = tau_reduced * gauss factor, exactly, sl2(5/7/9)",
            verify.verify_decomposition, budget=60.0, seed=SEED, size=50)


def test_criterion_09_moo_sanity():
    _report(9, "Gauss-sum invariant normalization, moduli, partition",
            verify.verify_moo)


def test_criterion_10_spinc():
    rep = _report(10, "complex-spin machinery (conditional on the bounded "
                      "search)", verify.verify_spinc, seed=SEED)
    conditional = any("CONDITIONAL" in ln or "FOUND" in ln for ln in rep.lines)
    assert conditional, "spinc report must state whether the search succeeded"


def test_suites_take_only_what_the_cli_sets():
    # every other size of a criterion is a constant in verify.py
    for name, fn in verify.ALL_SUITES.items():
        params = set(inspect.signature(fn).parameters)
        assert params <= {"seed", "size", "sequences", "category"}, name
