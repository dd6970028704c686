"""Wall-clock perf harness for the simulation performance layer.

Runs as pytest (``PYTHONPATH=src python -m pytest benchmarks/test_perf_engine.py``)
and records every measurement into ``benchmarks/out/BENCH_perf.json`` so
CI can archive the numbers and gate on regressions
(``benchmarks/check_perf_regression.py``).

Methodology
-----------
* The baseline is not a guess: ``legacy_engine.py`` / ``legacy_mpi.py`` /
  ``legacy_request.py`` / ``legacy_noise.py`` / ``legacy_overlap.py`` are
  verbatim snapshots of the pre-optimization stack (commit c6e9d2f),
  run with every plan rebuilt on each lookup.  Before any timing, the harness
  asserts the two stacks produce **bit-identical** virtual-time results
  (winner, decision point, makespan, first/last iteration times, event
  count) — the speedup is only meaningful because the answer is
  unchanged.
* Wall-clock comparisons interleave the two sides and take the best of
  ``REPS`` repetitions each: best-of-N is the standard estimator for
  "how fast can this code run" on a machine with background load.
* Absolute seconds are machine-dependent and are *recorded*, never
  asserted; every assertion is a ratio on the same machine in the same
  process.
"""

from __future__ import annotations

import json
import os
import sys
import time
from unittest import mock

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.adcl.fnsets import ibcast_mockup_function_set
from repro.adcl.function import CollSpec
from repro.bench.overlap import (
    OPERATION_KINDS,
    OverlapConfig,
    function_set_for,
    run_overlap,
)
from repro.bench.parallel import ResultCache, sweep_implementations
from repro.nbc.schedule import SCHEDULE_CACHE, Schedule
from repro.sim import Wait, get_platform
from repro.sim.engine import Simulator

import legacy_engine
import legacy_mpi
import legacy_request
from legacy_overlap import baseline_stack, run_overlap_legacy

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
OUT_PATH = os.path.join(OUT_DIR, "BENCH_perf.json")

#: timed scenario — a 500-iteration Ibcast tuning sweep (brute-force
#: selection over the paper's 21-function set, 2 evaluations each, 20
#: progress calls per iteration).  Noise is off so the comparison times
#: the simulation machinery rather than numpy's RNG, which is identical
#: on both sides.
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
#: optimized noise/jitter code draws the exact same RNG stream
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

REPS = 5


def _record(section: str, payload: dict) -> None:
    """Merge one section into BENCH_perf.json (tests run in file order)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    data = {}
    if os.path.exists(OUT_PATH):
        with open(OUT_PATH, encoding="utf-8") as fh:
            data = json.load(fh)
    data.setdefault("schema", 1)
    data.setdefault("generated_by", "benchmarks/test_perf_engine.py")
    data[section] = payload
    with open(OUT_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fingerprint(res) -> tuple:
    """Bit-exact identity of one tuning run's virtual-time results."""
    return (
        res.winner,
        res.decided_at,
        res.makespan.hex(),
        tuple(r.seconds.hex() for r in res.records),
        res.events,
    )


def _run_optimized(cfg: OverlapConfig):
    SCHEDULE_CACHE.clear()
    return run_overlap(cfg, evals_per_function=2)


def _run_baseline(cfg: OverlapConfig):
    with baseline_stack():
        return run_overlap_legacy(cfg, evals_per_function=2)


# ---------------------------------------------------------------------------
# 1. the headline number: single-process tuning-sweep speedup
# ---------------------------------------------------------------------------


#: operation -> (CollSpec kind, function-set factory): every benchmark
#: operation plus the guideline checker's scatter+allgather mock-up
_MAKER_SETS = {
    **{op: (kind, lambda op=op: function_set_for(op))
       for op, kind in OPERATION_KINDS.items()},
    "bcast_mockup": ("bcast", ibcast_mockup_function_set),
}


@pytest.mark.parametrize("operation", sorted(_MAKER_SETS))
def test_baseline_stack_reaches_the_maker_path(operation):
    """Inside ``baseline_stack`` the function-set makers build snapshot
    requests and every plan lookup rebuilds.  A stale patch target, or a
    family that bypasses the shared bind step, would let the speedup
    gate below time the optimized stack against itself."""
    kind, function_set = _MAKER_SETS[operation]
    with baseline_stack():
        world = legacy_mpi.SimWorld(get_platform("whale"), 4)
        spec = CollSpec(kind, world.comm_world, 8 * 1024)
        made = []

        def program(ctx):
            for fn in function_set():
                made.append(fn.make(ctx, spec))
                yield Wait(made[-1])

        world.launch(program)
        world.run()
    assert made and all(type(req) is legacy_request.NBCRequest
                        for req in made)
    # a freshly built raw schedule per request: no plan came from the cache
    assert all(type(req.schedule) is Schedule for req in made)
    assert len({id(req.schedule) for req in made}) == len(made)


def test_sweep_speedup_vs_seed_stack():
    """Optimized stack >= 2x the seed stack on the 500-iteration sweep."""
    # correctness first: both stacks, both scenarios, bit-identical
    for cfg in (PERF_CFG, NOISY_CFG):
        assert _fingerprint(_run_optimized(cfg)) == _fingerprint(
            _run_baseline(cfg)
        ), f"optimized stack changed virtual-time results for {cfg.describe()}"

    opt_times, base_times = [], []
    events = None
    for _ in range(REPS):
        t = time.perf_counter()
        res = _run_optimized(PERF_CFG)
        opt_times.append(time.perf_counter() - t)
        events = res.events
        t = time.perf_counter()
        _run_baseline(PERF_CFG)
        base_times.append(time.perf_counter() - t)

    opt, base = min(opt_times), min(base_times)
    speedup = base / opt
    _record("sweep_speedup", {
        "scenario": PERF_CFG.describe() + f" iters={PERF_CFG.iterations}",
        "events": events,
        "reps": REPS,
        "optimized_s": opt,
        "baseline_s": base,
        "optimized_all_s": opt_times,
        "baseline_all_s": base_times,
        "speedup": speedup,
        "optimized_events_per_s": events / opt,
        "baseline_events_per_s": events / base,
        "identical_results": True,
    })
    assert speedup >= 2.0, (
        f"sweep speedup {speedup:.2f}x < 2x "
        f"(optimized {opt:.3f}s, baseline {base:.3f}s)"
    )


# ---------------------------------------------------------------------------
# 2. schedule cache: identical trace, near-perfect hit rate
# ---------------------------------------------------------------------------


def test_schedule_cache_identical_and_hot():
    """Cache on vs off on the *same* stack: identical trace, >99% hits."""
    SCHEDULE_CACHE.clear()
    SCHEDULE_CACHE.reset_stats()
    cached = run_overlap(PERF_CFG, evals_per_function=2)
    stats = SCHEDULE_CACHE.stats()

    # every lookup rebuilds its plan
    with mock.patch.object(SCHEDULE_CACHE, "get",
                           lambda key, build: build().compile(key)):
        uncached = run_overlap(PERF_CFG, evals_per_function=2)

    assert _fingerprint(cached) == _fingerprint(uncached)
    _record("schedule_cache", stats)
    # 8000 lookups (500 iterations x 16 ranks) against 72 distinct
    # role templates (21 functions x 2-5 tree roles): everything past
    # each role's first build hits
    assert stats["hit_rate"] > 0.95, stats
    assert stats["entries"] > 0


# ---------------------------------------------------------------------------
# 3. raw event-loop throughput (kernel only, no MPI layer)
# ---------------------------------------------------------------------------


def _engine_events_per_sec(sim_cls, n_events: int = 200_000) -> float:
    best = 0.0
    for _ in range(3):
        sim = sim_cls()
        # the seed kernel predates the post() fast path
        schedule = sim.post if hasattr(sim, "post") else sim.at
        step = 1e-6
        for i in range(n_events):
            schedule(i * step, _noop)
        t = time.perf_counter()
        sim.run()
        dt = time.perf_counter() - t
        best = max(best, n_events / dt)
    return best


def _noop() -> None:
    pass


def test_engine_events_per_sec():
    """Dispatch throughput of the optimized vs the seed event loop."""
    n = 200_000
    opt = _engine_events_per_sec(Simulator, n)
    legacy = _engine_events_per_sec(legacy_engine.Simulator, n)
    _record("engine_microbench", {
        "events": n,
        "optimized_events_per_s": opt,
        "legacy_events_per_s": legacy,
        "ratio": opt / legacy,
    })
    # the tightened loop must never dispatch slower than the seed loop
    assert opt >= legacy, (opt, legacy)


# ---------------------------------------------------------------------------
# 4. parallel sweep executor: determinism + scaling
# ---------------------------------------------------------------------------


def test_parallel_sweep_determinism_and_scaling():
    """jobs=2 is bitwise-equal to jobs=1; near-linear on 2+ cores."""
    from repro.bench.fabric import FabricConfig

    t = time.perf_counter()
    serial = sweep_implementations(SWEEP_CFG, jobs=1)
    t_serial = time.perf_counter() - t

    fabric = FabricConfig()
    t = time.perf_counter()
    parallel = sweep_implementations(SWEEP_CFG, jobs=2, fabric=fabric)
    t_parallel = time.perf_counter() - t

    assert serial == parallel, "fabric sweep diverged from serial sweep"
    fstats = fabric.stats()
    # a healthy run: no quarantines, no determinism defects, no fallback
    assert fstats.get("fabric.tasks.quarantined", 0) == 0
    assert fstats.get("fabric.defects.determinism", 0) == 0
    assert fstats.get("fabric.fallback.serial", 0) == 0

    cores = os.cpu_count() or 1
    scaling = t_serial / t_parallel
    _record("parallel_executor", {
        "scenario": SWEEP_CFG.describe() + f" iters={SWEEP_CFG.iterations}",
        "tasks": len(serial),
        "cpu_count": cores,
        "jobs1_s": t_serial,
        "jobs2_s": t_parallel,
        "scaling_jobs2": scaling,
        "identical_results": True,
        "fabric": fstats,
    })
    if cores >= 2:
        # "near-linear": 2 workers over 21 ~equal tasks; allow worker
        # startup + imbalance overheads
        assert scaling >= 1.5, (
            f"parallel executor scaled only {scaling:.2f}x on {cores} cores"
        )


def test_result_cache_replay(tmp_path):
    """A cached replay is near-free and bit-identical to the computed run."""
    cache = ResultCache(str(tmp_path / "sweep-cache"))
    t = time.perf_counter()
    first = sweep_implementations(SWEEP_CFG, jobs=1, cache=cache)
    t_cold = time.perf_counter() - t
    assert cache.stores == len(first)

    t = time.perf_counter()
    replay = sweep_implementations(SWEEP_CFG, jobs=1, cache=cache)
    t_warm = time.perf_counter() - t

    assert replay == first, "cache replay diverged from the computed sweep"
    assert cache.hits == len(first)
    _record("result_cache", {
        "tasks": len(first),
        "cold_s": t_cold,
        "replay_s": t_warm,
        "replay_speedup": t_cold / t_warm,
        **cache.stats(),
    })
    # "near-free": reading 21 small JSON files vs 21 simulations
    assert t_warm * 5 < t_cold




# ---------------------------------------------------------------------------
# 5. observability layer: identical results, no disabled-path overhead
# ---------------------------------------------------------------------------


def test_recorder_identity_and_overhead():
    """Recording never changes virtual-time results; the disabled path
    (the production default) costs nothing the regression gate can see."""
    from repro.obs import TraceRecorder, install, uninstall

    # identity: a recording run reproduces the plain run bit-for-bit,
    # including the stochastic paths (recording draws no RNG)
    uninstall()
    plain = _run_optimized(NOISY_CFG)
    rec = TraceRecorder()
    prev = install(rec)
    try:
        traced = _run_optimized(NOISY_CFG)
    finally:
        install(prev)
    assert _fingerprint(traced) == _fingerprint(plain)
    assert len(rec.events) > 0

    # wall-clock: recorder off vs on, interleaved best-of-REPS.  The
    # array engine's fast lane disables itself whenever observability is
    # attached (DESIGN.md §15), so measuring recorder overhead with the
    # lane active on the off side would conflate two effects; pin the
    # object engine so the ratio isolates the recorder's own cost.
    off_times, on_times = [], []
    n_events = None
    saved_env = os.environ.get("REPRO_ARRAY_ENGINE")
    os.environ["REPRO_ARRAY_ENGINE"] = "0"
    try:
        for _ in range(REPS):
            uninstall()
            t = time.perf_counter()
            _run_optimized(PERF_CFG)
            off_times.append(time.perf_counter() - t)

            rec = TraceRecorder()
            prev = install(rec)
            try:
                t = time.perf_counter()
                _run_optimized(PERF_CFG)
                on_times.append(time.perf_counter() - t)
            finally:
                install(prev)
            n_events = len(rec.events)
    finally:
        if saved_env is None:
            del os.environ["REPRO_ARRAY_ENGINE"]
        else:
            os.environ["REPRO_ARRAY_ENGINE"] = saved_env

    off, on = min(off_times), min(on_times)
    _record("recorder", {
        "scenario": PERF_CFG.describe() + f" iters={PERF_CFG.iterations}",
        "reps": REPS,
        "disabled_s": off,
        "enabled_s": on,
        "disabled_all_s": off_times,
        "enabled_all_s": on_times,
        "enabled_overhead": on / off,
        "trace_events": n_events,
        "identical_results": True,
    })
    # the enabled path records hundreds of thousands of events and is
    # allowed to cost something: packed event rows measure 1.34-1.47x on
    # a 2-CPU x86 VM (one tuple plus an args dict per event measured
    # 2.29-2.39x), so 1.9x is that ratio plus 30% headroom.  The
    # *disabled* path is covered by the sections above: every other test
    # in this file runs with no recorder installed, so any disabled-path
    # cost shows up in sweep_speedup and the <--factor> regression gate.
    assert on / off < 1.9, (on, off)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
