"""Perf harness for the simulation performance layer.

Runs as pytest (``PYTHONPATH=src:benchmarks python -m pytest
benchmarks/test_perf_engine.py``).  Every assertion is an exact,
host-independent count; wall-clock is only recorded, into
``benchmarks/out/BENCH_perf.json`` for reading.  Raw speed is gated at
20% by the end-to-end benchmark (``benchmarks/e2e/run.py``).

* **Results are pinned.**  The tuning runs in ``RUNS`` reproduce
  ``FINGERPRINTS`` bit for bit: the results of the pre-optimization
  seed stack (commit c6e9d2f), which this harness re-ran from a
  verbatim snapshot up to commit 7a0d002.
* **Work is counted, not timed.**  One op of each run, after a warm-up
  op, makes exactly ``CALL_COUNTS`` calls per layer
  (:mod:`repro.obs.calls`).  Counts follow the code and the
  interpreter's minor version, not the host, so a layer doing 1% more
  work fails; on a version without pins the count tests skip.  A count
  that falls is re-recorded from the failing test's message and stated
  with the change; one that rises is a defect.  Pins for a new version::

      PYTHONPATH=src:benchmarks python -c "import test_perf_engine as t;
      print({r: t.layer_calls(c) for r, c in sorted(t.RUNS.items())})"

* **Each speed property has a count.**  The event loop makes no Python
  call per event besides the handler, the schedule cache builds each
  role template once, a result-cache replay simulates nothing, the
  fabric leases each task once, and a traced op records a fixed number
  of rows.
"""

from __future__ import annotations

import gc
import sys
import time
from unittest import mock

import pytest

from conftest import fingerprint, pins_for_python, record
from repro.bench.overlap import OverlapConfig, run_overlap
from repro.bench.parallel import ResultCache, sweep_implementations
from repro.nbc.schedule import SCHEDULE_CACHE
from repro.obs.calls import C_CALLS, count_calls
from repro.sim.engine import Simulator

#: timed scenario — a 500-iteration Ibcast tuning sweep (brute-force
#: selection over the paper's 21-function set, 2 evaluations each, 20
#: progress calls per iteration).  Noise is off so the timing measures
#: the simulation machinery rather than numpy's RNG.
PERF_CFG = OverlapConfig(
    platform="whale",
    nprocs=16,
    operation="bcast",
    nbytes=128 * 1024,
    iterations=500,
    nprogress=20,
    seed=11,
)

#: identity-check scenario with the stochastic paths enabled: proves the
#: noise/jitter code draws the exact same RNG stream
NOISY_CFG = OverlapConfig(
    platform="whale",
    nprocs=16,
    operation="bcast",
    nbytes=128 * 1024,
    iterations=500,
    nprogress=5,
    noise_sigma=0.02,
    noise_outlier_prob=0.05,
    seed=11,
)

#: the ``a2a-tcp-p32`` end-to-end workload's op: Gigabit-Ethernet
#: latencies keep the fast lane off, so message matching and delivery
#: dominate
A2A_CFG = OverlapConfig(
    platform="whale_tcp",
    nprocs=32,
    operation="alltoall",
    nbytes=128 * 1024,
    iterations=30,
    nprogress=5,
)

#: sweep scenario for the parallel-executor tests (21 independent
#: verification runs, one per Ibcast implementation)
SWEEP_CFG = OverlapConfig(
    platform="whale",
    nprocs=8,
    operation="bcast",
    nbytes=32 * 1024,
    iterations=40,
    nprogress=5,
    noise_sigma=0.02,
    noise_outlier_prob=0.05,
    seed=7,
)

#: the tuning runs whose results and call counts are pinned (brute
#: force, 2 evaluations per candidate)
RUNS = {"perf": PERF_CFG, "noisy": NOISY_CFG, "a2a": A2A_CFG}

#: run -> (winner, decided_at, makespan, sha256 of the per-iteration
#: seconds, events), as the seed stack produced them
FINGERPRINTS = {
    "perf": ("2ary_seg128KB", 42, "0x1.902859bbdfb30p+4",
             "6293dc9d4972db681b4b23cf1eb26346ed94184a742e30682a4901783e777bd5",
             361438),
    "noisy": ("4ary_seg64KB", 42, "0x1.caa4c054f6874p+5",
              "96911adafa11d826cf6b7263ad0ccef7a760283e8d22b65da39a428ca67e8faa",
              155301),
    "a2a": ("pairwise", 6, "0x1.4645ead519cd6p+3",
            "64947f68d36178d87f0cf05e4d865757d04f2aa496b5b823481b99a6cb6d430c",
            123936),
}

#: the layers whose calls are pinned
LAYERS = ("repro.sim", "repro.nbc", "repro.adcl", "repro.bench", C_CALLS)

#: (major, minor) -> run -> layer -> calls of one counted op
CALL_COUNTS = {
    (3, 11): {
        "perf": {"repro.sim": 496379, "repro.nbc": 173756,
                 "repro.adcl": 95491, "repro.bench": 40170, "C": 879110},
        "noisy": {"repro.sim": 657233, "repro.nbc": 210366,
                  "repro.adcl": 101874, "repro.bench": 52936, "C": 1164005},
        "a2a": {"repro.sim": 447083, "repro.nbc": 151680,
                "repro.adcl": 12026, "repro.bench": 6764, "C": 587305},
    },
}

#: (major, minor) -> n -> layer -> calls of ``Simulator.run()`` over
#: ``n`` posted no-op events: per event only the handler (billed to
#: ``other``) and the heap pop (a C call), plus a fixed few per run
ENGINE_LOOP_CALLS = {
    (3, 11): {
        1000: {"repro.sim": 1, "repro.obs": 2, "other": 1001, "C": 1002},
        2000: {"repro.sim": 1, "repro.obs": 2, "other": 2001, "C": 2002},
    },
}

#: ``SCHEDULE_CACHE`` after one ``PERF_CFG`` op from an empty cache:
#: 8000 lookups (500 iterations x 16 ranks) against 72 role templates
#: (21 functions x 2-5 tree roles), each built once
SCHEDULE_CACHE_STATS = {"hits": 7928, "misses": 72, "entries": 72,
                        "flushes": 0}

#: rows one traced ``PERF_CFG`` op records
RECORDER_ROWS = 365068

#: (major, minor) -> ``repro.obs`` calls of that traced op
RECORDER_CALLS = {(3, 11): 394464}

REPS = 5


def _run_optimized(cfg: OverlapConfig):
    SCHEDULE_CACHE.clear()
    return run_overlap(cfg, evals_per_function=2)


def layer_calls(cfg: OverlapConfig) -> dict:
    """Calls per pinned layer of one op of ``cfg``, after a warm-up op."""
    _run_optimized(cfg)  # warm-up: imports, plans, memoized tables
    gc.collect()  # no garbage of earlier work is freed while counting
    with count_calls() as counts:
        run_overlap(cfg, evals_per_function=2)
    return {layer: counts[layer] for layer in LAYERS}


# ---------------------------------------------------------------------------
# 1. the paper's tuning loop: pinned results, pinned work, recorded time
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("run", sorted(RUNS))
def test_fingerprint_matches_the_seed_stack(run):
    """The tuning loop reproduces the seed stack's results bit for bit."""
    assert fingerprint(_run_optimized(RUNS[run])) == FINGERPRINTS[run], (
        f"virtual-time results changed for {RUNS[run].describe()}")


@pytest.mark.parametrize("run", sorted(RUNS))
def test_call_counts_match_the_pins(run):
    """One op makes exactly the pinned number of calls in every layer."""
    pins = pins_for_python(CALL_COUNTS)[run]
    got = layer_calls(RUNS[run])
    moved = {layer: f"{pins[layer]} -> {got[layer]}"
             for layer in LAYERS if got[layer] != pins[layer]}
    assert not moved, (
        f"{run}: calls per layer moved from the pins: {moved}; a count "
        f"that fell is re-recorded as {got}, one that rose is a defect")


def test_sweep_throughput():
    """Wall-clock of the 500-iteration sweep, recorded, not asserted."""
    times = []
    for _ in range(REPS):
        t = time.perf_counter()
        res = _run_optimized(PERF_CFG)
        times.append(time.perf_counter() - t)
    best = min(times)
    record("BENCH_perf.json", "sweep_speedup", {
        "scenario": PERF_CFG.describe() + f" iters={PERF_CFG.iterations}",
        "events": res.events,
        "reps": REPS,
        "optimized_s": best,
        "optimized_all_s": times,
        "optimized_events_per_s": res.events / best,
    })


# ---------------------------------------------------------------------------
# 2. schedule cache: identical trace, each role template built once
# ---------------------------------------------------------------------------


def test_schedule_cache_identical_and_hot():
    """Cache on vs off on the *same* stack: identical trace, and every
    lookup past each role template's first build hits."""
    SCHEDULE_CACHE.clear()
    SCHEDULE_CACHE.reset_stats()
    cached = run_overlap(PERF_CFG, evals_per_function=2)
    stats = SCHEDULE_CACHE.stats()

    # every lookup rebuilds its plan
    with mock.patch.object(SCHEDULE_CACHE, "get",
                           lambda key, build: build().compile(key)):
        uncached = run_overlap(PERF_CFG, evals_per_function=2)

    assert fingerprint(cached) == fingerprint(uncached)
    record("BENCH_perf.json", "schedule_cache", stats)
    assert {k: stats[k] for k in SCHEDULE_CACHE_STATS} == SCHEDULE_CACHE_STATS


# ---------------------------------------------------------------------------
# 3. the event loop: no Python call per event besides the handler
# ---------------------------------------------------------------------------


def _noop() -> None:
    pass


@pytest.mark.parametrize("n", [1000, 2000])
def test_engine_loop_calls_per_event(n):
    """``Simulator.run()`` over ``n`` no-op events calls only the handler
    and the heap pop per event."""
    pins = pins_for_python(ENGINE_LOOP_CALLS)[n]
    sim = Simulator()
    for i in range(n):
        sim.post(i * 1e-6, _noop)
    gc.collect()
    with count_calls() as counts:
        sim.run()
    assert dict(counts) == pins


# ---------------------------------------------------------------------------
# 4. parallel sweep executor and result cache: identical results, each
#    task simulated once
# ---------------------------------------------------------------------------


def test_parallel_sweep_determinism():
    """jobs=2 through the fabric is bitwise-equal to jobs=1, with one
    lease per task and no retry."""
    from repro.bench.fabric import FabricConfig

    serial = sweep_implementations(SWEEP_CFG, jobs=1)
    fabric = FabricConfig()
    parallel = sweep_implementations(SWEEP_CFG, jobs=2, fabric=fabric)

    assert serial == parallel, "fabric sweep diverged from serial sweep"
    fstats = fabric.stats()
    # a healthy run: no quarantines, no determinism defects, no fallback
    assert fstats.get("fabric.tasks.quarantined", 0) == 0
    assert fstats.get("fabric.defects.determinism", 0) == 0
    assert fstats.get("fabric.fallback.serial", 0) == 0
    work = {"fabric.workers.spawned": 2, "fabric.tasks.completed": 21,
            "fabric.leases.issued": 21}
    assert {k: fstats.get(k) for k in work} == work


def test_result_cache_replay(tmp_path):
    """A cached replay is bit-identical to the computed run and
    simulates no task again."""
    cache = ResultCache(str(tmp_path / "sweep-cache"))
    t = time.perf_counter()
    first = sweep_implementations(SWEEP_CFG, jobs=1, cache=cache)
    t_cold = time.perf_counter() - t
    assert cache.stores == len(first)

    before = cache.stats()
    t = time.perf_counter()
    replay = sweep_implementations(SWEEP_CFG, jobs=1, cache=cache)
    t_warm = time.perf_counter() - t
    after = cache.stats()

    assert replay == first, "cache replay diverged from the computed sweep"
    record("BENCH_perf.json", "result_cache", {
        "tasks": len(first), "cold_s": t_cold, "replay_s": t_warm,
        **after,
    })
    added = {k: after[k] - before[k] for k in ("hits", "misses", "stores")}
    assert added == {"hits": len(first), "misses": 0, "stores": 0}


# ---------------------------------------------------------------------------
# 5. observability layer: identical results, pinned recording work
# ---------------------------------------------------------------------------


def _traced(cfg: OverlapConfig):
    """One op of ``cfg`` with a fresh recorder installed."""
    from repro.obs import TraceRecorder, install

    rec = TraceRecorder()
    prev = install(rec)
    try:
        return run_overlap(cfg, evals_per_function=2), rec
    finally:
        install(prev)


def test_recorder_identity_and_rows():
    """Recording never changes virtual-time results, and one traced op
    records exactly the pinned number of rows."""
    # identity includes the stochastic paths (recording draws no RNG)
    traced, _ = _traced(NOISY_CFG)
    assert fingerprint(traced) == FINGERPRINTS["noisy"]

    _, rec = _traced(PERF_CFG)
    assert len(rec.events) == RECORDER_ROWS


def test_recorder_calls():
    """One traced op makes exactly the pinned ``repro.obs`` calls."""
    pins = pins_for_python(RECORDER_CALLS)
    _traced(PERF_CFG)  # warm-up
    gc.collect()
    with count_calls() as counts:
        _traced(PERF_CFG)
    assert counts["repro.obs"] == pins


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
