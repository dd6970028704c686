"""Scale harness: P=1024 through the fast lane.

Runs as pytest (``PYTHONPATH=src:benchmarks python -m pytest
benchmarks/test_perf_scale.py``).  Every assertion is exact and
host-independent; ``benchmarks/out/BENCH_scale.json`` records the
virtual-time comparison for reading.

* The scenario is the hierarchical-Ibcast steady state at P=1024 on the
  BlueGene/P preset (the only shipped 1024-rank platform): a fixed
  two-level leader-tree candidate in verification mode, 300 progress
  calls per iteration.  Symmetric ranks + deterministic timing is
  exactly the regime the fast lane collapses.
* The fast lane is bit-identical to ``REPRO_ARRAY_ENGINE=0``, which
  turns it off, and its work is pinned: the engine's dispatched,
  batched and coalesced counts on every Python version, per-layer
  calls (:mod:`repro.obs.calls`) on versions with pins.
"""

from __future__ import annotations

import gc
import sys

import pytest

from conftest import fingerprint, pins_for_python, record
from repro.bench.overlap import OverlapConfig, function_set_for, run_overlap
from repro.obs.calls import C_CALLS, count_calls

#: P=1024 hierarchical-broadcast steady state.  ``selector`` indices
#: into the hierarchical Ibcast set: 0-20 are the paper's flat
#: candidates, 21-23 the two-level leader trees (seg 32/64/128KB).
SCALE_CFG = OverlapConfig(
    platform="bluegene_p",
    nprocs=1024,
    operation="bcast_hier",
    nbytes=8 * 1024,
    compute_total=50.0,
    paper_iterations=1000,
    iterations=5,
    nprogress=300,
    seed=7,
)

HIER_SEG32 = next(
    i for i, f in enumerate(function_set_for("bcast_hier"))
    if f.name == "hier_seg32KB"
)

#: engine counters of one fast-lane ``hier_seg32KB`` op: 95.5% of the
#: dispatched syscalls are batched
SCALE_ENGINE_STATS = {"events_dispatched": 3098604,
                      "batched_syscalls": 2959360, "coalesced": 103113}

#: (major, minor) -> layer -> calls of that op, after a warm-up op
SCALE_CALL_COUNTS = {
    (3, 11): {"repro.sim": 367899, "repro.nbc": 123167,
              "repro.adcl": 56531, "repro.bench": 26657, C_CALLS: 564284},
}


def _run(cfg: OverlapConfig, selector: int):
    return run_overlap(cfg, selector=selector, evals_per_function=1)


# ---------------------------------------------------------------------------
# 1. correctness: fast lane on is bit-identical to off at P=1024
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("selector,label", [
    (HIER_SEG32, "hier_seg32KB"),
    (18, "binomial_seg32KB"),
])
def test_array_engine_identity_p1024(selector, label, monkeypatch):
    """Fast lane on and off agree bit-for-bit on the P=1024 scenario."""
    on = _run(SCALE_CFG, selector)
    monkeypatch.setenv("REPRO_ARRAY_ENGINE", "0")
    off = _run(SCALE_CFG, selector)
    assert on.winner == label
    assert fingerprint(on) == fingerprint(off), (
        f"the fast lane changed virtual-time results for {label} at P=1024"
    )


# ---------------------------------------------------------------------------
# 2. the fast lane's work at P=1024: batched syscalls and calls per layer
# ---------------------------------------------------------------------------


def test_fast_lane_batches_p1024():
    """The fast lane batches exactly the pinned syscalls."""
    stats = _run(SCALE_CFG, HIER_SEG32).engine_stats
    assert {k: stats[k] for k in SCALE_ENGINE_STATS} == SCALE_ENGINE_STATS


def test_fast_lane_calls_p1024():
    """One fast-lane op makes exactly the pinned calls in every layer."""
    pins = pins_for_python(SCALE_CALL_COUNTS)
    _run(SCALE_CFG, HIER_SEG32)  # warm-up: plans, memoized tables
    gc.collect()
    with count_calls() as counts:
        _run(SCALE_CFG, HIER_SEG32)
    assert {layer: counts[layer] for layer in pins} == pins


# ---------------------------------------------------------------------------
# 3. hierarchical vs flat at scale (virtual time, recorded not asserted)
# ---------------------------------------------------------------------------


def test_hier_vs_flat_virtual_time():
    """Record the tuning-relevant comparison the candidates exist for:
    two-level leader tree vs the paper's flat binomial at P=1024."""
    rows = {}
    for selector, label in ((HIER_SEG32, "hier_seg32KB"),
                            (18, "binomial_seg32KB")):
        res = _run(SCALE_CFG, selector)
        rows[label] = {
            "mean_iteration_s": res.mean_iteration,
            "mean_iteration_hex": float(res.mean_iteration).hex(),
            "makespan_s": res.makespan,
        }
    record("BENCH_scale.json", "hier_vs_flat", {
        "scenario": SCALE_CFG.describe(),
        "candidates": rows,
    })
    # both candidates must overlap the collective almost entirely at
    # this geometry (the compute span dominates); a candidate that
    # cannot is a broken schedule, not a tuning trade-off
    compute = SCALE_CFG.compute_per_iteration
    for label, row in rows.items():
        assert row["mean_iteration_s"] < compute * 1.5, (label, row)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
