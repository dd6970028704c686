"""Wall-clock scale harness: P=1024 on the array-backed engine.

Runs as pytest (``PYTHONPATH=src python -m pytest benchmarks/test_perf_scale.py``)
and records every measurement into ``benchmarks/out/BENCH_scale.json`` so
CI can archive the numbers and gate on regressions
(``benchmarks/check_perf_regression.py`` reads the scale file next to
the engine one).

Methodology
-----------
* The baseline is the *object-mode* engine — the same source tree with
  ``REPRO_ARRAY_ENGINE=0``, which disables the degenerate-topology fast
  lane.  Before any timing the harness
  asserts both modes produce **bit-identical** virtual-time results, so
  the speedup is a pure implementation effect.
* The scenario is the hierarchical-Ibcast steady state at P=1024 on the
  BlueGene/P preset (the only shipped 1024-rank platform): a fixed
  two-level leader-tree candidate in verification mode, 300 progress
  calls per iteration.  Symmetric ranks + deterministic timing is
  exactly the regime the fast lane collapses.
* Wall-clock comparisons interleave the two sides and take the best of
  ``REPS`` repetitions; absolute seconds are recorded, never asserted —
  every assertion is a same-machine ratio.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.bench.overlap import OverlapConfig, function_set_for, run_overlap

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
OUT_PATH = os.path.join(OUT_DIR, "BENCH_scale.json")

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

REPS = 3


def _record(section: str, payload: dict) -> None:
    """Merge one section into BENCH_scale.json (tests run in file order)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    data = {}
    if os.path.exists(OUT_PATH):
        with open(OUT_PATH, encoding="utf-8") as fh:
            data = json.load(fh)
    data.setdefault("schema", 1)
    data.setdefault("generated_by", "benchmarks/test_perf_scale.py")
    data[section] = payload
    with open(OUT_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fingerprint(res) -> tuple:
    """Bit-exact identity of one run's virtual-time results."""
    return (
        res.winner,
        res.decided_at,
        res.makespan.hex(),
        tuple(r.seconds.hex() for r in res.records),
        res.events,
    )


@contextmanager
def _object_engine():
    saved = os.environ.get("REPRO_ARRAY_ENGINE")
    os.environ["REPRO_ARRAY_ENGINE"] = "0"
    try:
        yield
    finally:
        if saved is None:
            del os.environ["REPRO_ARRAY_ENGINE"]
        else:
            os.environ["REPRO_ARRAY_ENGINE"] = saved


def _run(cfg: OverlapConfig, selector: int):
    return run_overlap(cfg, selector=selector, evals_per_function=1)


# ---------------------------------------------------------------------------
# 1. correctness: array mode is bit-identical to object mode at P=1024
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("selector,label", [
    (HIER_SEG32, "hier_seg32KB"),
    (18, "binomial_seg32KB"),
])
def test_array_engine_identity_p1024(selector, label):
    """Both engine modes agree bit-for-bit on the P=1024 scenario."""
    arr = _run(SCALE_CFG, selector)
    with _object_engine():
        obj = _run(SCALE_CFG, selector)
    assert arr.winner == label
    assert _fingerprint(arr) == _fingerprint(obj), (
        f"array engine changed virtual-time results for {label} at P=1024"
    )


# ---------------------------------------------------------------------------
# 2. the headline number: hierarchical-Ibcast P=1024 speedup
# ---------------------------------------------------------------------------


def test_scale_speedup_p1024():
    """Array engine >= 5x object mode on the P=1024 hierarchical sweep."""
    arr_times, obj_times = [], []
    res = None
    for _ in range(REPS):
        t = time.perf_counter()
        res = _run(SCALE_CFG, HIER_SEG32)
        arr_times.append(time.perf_counter() - t)
        with _object_engine():
            t = time.perf_counter()
            _run(SCALE_CFG, HIER_SEG32)
            obj_times.append(time.perf_counter() - t)

    arr, obj = min(arr_times), min(obj_times)
    speedup = obj / arr
    stats = res.engine_stats
    dispatched = stats.get("events_dispatched", 0)
    batched = stats.get("batched_syscalls", 0)
    _record("scale_sweep", {
        "scenario": SCALE_CFG.describe() + f" iters={SCALE_CFG.iterations}",
        "candidate": "hier_seg32KB",
        "events": res.events,
        "reps": REPS,
        "optimized_s": arr,
        "baseline_s": obj,
        "optimized_all_s": arr_times,
        "baseline_all_s": obj_times,
        "speedup": speedup,
        "optimized_events_per_s": res.events / arr,
        "baseline_events_per_s": res.events / obj,
        "batched_fraction": batched / max(dispatched, 1),
        "identical_results": True,
    })
    assert speedup >= 5.0, (
        f"P=1024 scale speedup {speedup:.2f}x < 5x "
        f"(array {arr:.3f}s, object {obj:.3f}s)"
    )
    # the degenerate-topology fast lane must be doing the lifting: on a
    # symmetric noise-free run, nearly every syscall should be batched
    assert batched / max(dispatched, 1) > 0.5


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
    _record("hier_vs_flat", {
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
