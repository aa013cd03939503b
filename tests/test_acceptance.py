"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its runtime and asserting the stated tolerance (exactness) and
time budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines, or via ``spinmod verify all``.
"""

import inspect
import time

import pytest

from spinmod import verify

SEED = 7


def _report(number: int, label: str, rep, budget: float | None = None):
    status = "PASS" if rep.passed else "FAIL"
    line = f"criterion {number} [{status}] {label}: {rep.elapsed:.1f}s"
    if budget is not None:
        line += f" (budget {budget:.0f}s)"
    print(line)
    for ln in rep.lines:
        print(f"    {ln}")
    assert rep.passed, f"criterion {number} failed: {rep.witness}"
    if budget is not None:
        assert rep.elapsed < budget, \
            f"criterion {number} exceeded its {budget}s budget ({rep.elapsed:.1f}s)"


def test_criterion_01_axioms():
    rep = verify.verify_axioms()
    _report(1, "axioms for sl2(3..12) and modular abelian instances", rep,
            budget=5.0)


def test_criterion_02_refinability():
    rep = verify.verify_refinability()
    _report(2, "2-refinable iff r even, 2-spin iff 4 | r", rep)


def test_criterion_03_vanishing_lemmas():
    rep = verify.verify_lemmas()
    _report(3, "graded unknot evaluations vanish exactly off the live degree",
            rep)


def test_criterion_04_sum_formulas():
    rep = verify.verify_sum(seed=SEED, size=50)
    _report(4, "refined tables sum to the unrefined invariant (50-manifold "
               "corpus + classics)", rep, budget=60.0)


def test_criterion_05_move_invariance():
    rep = verify.verify_kirby(seed=SEED, sequences=200)
    _report(5, "wrt and refined multisets invariant under 200 move sequences "
               "per corpus manifold", rep, budget=120.0)


def test_criterion_06_oracle_equivalence():
    rep = verify.verify_oracle(seed=SEED)
    _report(6, "evaluator == brute force, SNF solver == brute force "
               "(200 instances each)", rep)


def test_criterion_07_bijection_counts():
    rep = verify.verify_bijection(seed=SEED)
    _report(7, "Chern-vector class counts equal cokernel counts "
               "(100 matrices)", rep)


def test_criterion_08_decomposition():
    rep = verify.verify_decomposition(seed=SEED, size=50)
    _report(8, "tau = tau_reduced * gauss factor, exactly, sl2(5/7/9)", rep,
            budget=60.0)


def test_criterion_09_moo_sanity():
    rep = verify.verify_moo()
    _report(9, "Gauss-sum invariant normalization, moduli, partition", rep)


def test_criterion_10_spinc():
    rep = verify.verify_spinc(seed=SEED)
    _report(10, "complex-spin machinery (conditional on the bounded search)",
            rep)
    conditional = any("CONDITIONAL" in ln or "FOUND" in ln for ln in rep.lines)
    assert conditional, "spinc report must state whether the search succeeded"


def test_suites_take_only_what_the_cli_sets():
    # every other size of a criterion is a constant in verify.py
    for name, fn in verify.ALL_SUITES.items():
        params = set(inspect.signature(fn).parameters)
        assert params <= {"seed", "size", "sequences", "category"}, name
