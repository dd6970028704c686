"""Tests for the verification-run harness (§IV-A protocol)."""

import pytest

from repro.bench import (
    CORRECTNESS_TOLERANCE,
    OverlapConfig,
    run_verification,
)
from repro.units import KiB


@pytest.fixture(scope="module")
def small_verification():
    cfg = OverlapConfig(nprocs=8, nbytes=1 * KiB, compute_total=10.0,
                        paper_iterations=10000, iterations=25, nprogress=5)
    return run_verification(cfg, selectors=("brute_force", "heuristic"),
                            evals_per_function=3, fixed_iterations=6)


def test_all_fixed_implementations_measured(small_verification):
    assert set(small_verification.fixed_times) == {
        "linear", "dissemination", "pairwise"
    }
    assert all(t > 0 for t in small_verification.fixed_times.values())


def test_best_fixed_and_correct_set(small_verification):
    v = small_verification
    best = v.best_fixed
    assert v.fixed_times[best] == min(v.fixed_times.values())
    correct = v.correct_names()
    assert best in correct
    # everything in the correct set is within the 5% band
    lim = v.fixed_times[best] * (1 + CORRECTNESS_TOLERANCE)
    assert all(v.fixed_times[n] <= lim for n in correct)


def test_deterministic_decision_is_correct(small_verification):
    """Without noise the selectors must find the true winner."""
    v = small_verification
    assert v.decision_correct("brute_force")
    assert v.decision_correct("heuristic")


def test_adcl_overhead_metric(small_verification):
    v = small_verification
    # projected totals amortize learning: overhead should be small
    assert v.adcl_overhead("brute_force") < 0.30


def test_verification_result_holds_adcl_winners(small_verification):
    for sel in ("brute_force", "heuristic"):
        assert small_verification.adcl_results[sel].winner is not None
