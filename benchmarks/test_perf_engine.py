"""Perf harness for the simulation performance layer.

Runs as pytest (``PYTHONPATH=src:benchmarks python -m pytest
benchmarks/test_perf_engine.py``) and records every timing into
``benchmarks/out/BENCH_perf.json``, which
``benchmarks/check_perf_regression.py`` gates on.

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

* **Timings are recorded**, best of ``REPS``; the few assertions on them
  are ratios measured in one process.  ``legacy_engine.py`` backs the
  engine microbench: its event loop runs in one frame, where no call
  count sees a slowdown.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import sys
import time
from unittest import mock

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.bench.overlap import OverlapConfig, run_overlap
from repro.bench.parallel import ResultCache, sweep_implementations
from repro.nbc.schedule import SCHEDULE_CACHE
from repro.obs.calls import C_CALLS, count_calls
from repro.sim.engine import Simulator

import legacy_engine

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
OUT_PATH = os.path.join(OUT_DIR, "BENCH_perf.json")

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
    seconds = "\n".join(r.seconds.hex() for r in res.records)
    return (
        res.winner,
        res.decided_at,
        res.makespan.hex(),
        hashlib.sha256(seconds.encode()).hexdigest(),
        res.events,
    )


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
    assert _fingerprint(_run_optimized(RUNS[run])) == FINGERPRINTS[run], (
        f"virtual-time results changed for {RUNS[run].describe()}")


@pytest.mark.parametrize("run", sorted(RUNS))
def test_call_counts_match_the_pins(run):
    """One op makes exactly the pinned number of calls in every layer."""
    version = sys.version_info[:2]
    python = "Python %d.%d" % version
    if version not in CALL_COUNTS:
        pytest.skip(f"no call-count pins for {python}")
    pins = CALL_COUNTS[version][run]
    got = layer_calls(RUNS[run])
    moved = {layer: f"{pins[layer]} -> {got[layer]}"
             for layer in LAYERS if got[layer] != pins[layer]}
    assert not moved, (
        f"{run}: calls per layer moved from the {python} pins: {moved}; "
        f"a count that fell is re-recorded as {got}, one that rose is a "
        f"defect")


def test_sweep_throughput():
    """Wall-clock of the 500-iteration sweep, recorded for the gate in
    ``check_perf_regression.py`` and the run history."""
    times = []
    for _ in range(REPS):
        t = time.perf_counter()
        res = _run_optimized(PERF_CFG)
        times.append(time.perf_counter() - t)
    best = min(times)
    _record("sweep_speedup", {
        "scenario": PERF_CFG.describe() + f" iters={PERF_CFG.iterations}",
        "events": res.events,
        "reps": REPS,
        "optimized_s": best,
        "optimized_all_s": times,
        "optimized_events_per_s": res.events / best,
    })


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

    # identity: a recording run reproduces the pinned results bit for
    # bit, including the stochastic paths (recording draws no RNG)
    uninstall()
    rec = TraceRecorder()
    prev = install(rec)
    try:
        traced = _run_optimized(NOISY_CFG)
    finally:
        install(prev)
    assert _fingerprint(traced) == FINGERPRINTS["noisy"]
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
    # cost shows up in the call counts and the <--factor> regression gate.
    assert on / off < 1.9, (on, off)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
