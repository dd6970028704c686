"""Unit tests for the parallel sweep executor and its determinism contract."""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from repro.bench.overlap import OverlapConfig
from repro.bench.parallel import (
    ResultCache,
    derive_seed,
    run_tasks,
    sweep_implementations,
    task_key,
)

#: the checkout these tests belong to: subprocesses run from it so they
#: import this tree's ``src``, wherever the checkout lives
REPO_ROOT = Path(__file__).resolve().parents[2]

#: tier-1 sized sweep scenario (21 bcast implementations, tiny runs)
SMALL_CFG = OverlapConfig(platform="whale", nprocs=4, operation="bcast",
                          nbytes=8 * 1024, iterations=4, nprogress=2,
                          noise_sigma=0.02, noise_outlier_prob=0.05, seed=3)


# module-level so the jobs>1 pool can pickle it
def _double(payload):
    return {"value": payload * 2}


# ---------------------------------------------------------------------------
# task identity & seed derivation
# ---------------------------------------------------------------------------


def test_task_key_is_stable_and_canonical():
    a = task_key("sweep", config=SMALL_CFG, fn_index=3)
    b = task_key("sweep", fn_index=3, config=SMALL_CFG)  # kwarg order irrelevant
    assert a == b
    assert a.startswith("sweep:")
    assert task_key("sweep", config=SMALL_CFG, fn_index=4) != a


def test_derive_seed_deterministic_and_bounded():
    key = task_key("sweep", config=SMALL_CFG, fn_index=0)
    s1 = derive_seed(7, key)
    s2 = derive_seed(7, key)
    assert s1 == s2
    assert 0 <= s1 < 2**31
    assert derive_seed(8, key) != s1
    assert derive_seed(7, key + "x") != s1


# ---------------------------------------------------------------------------
# the on-disk result cache
# ---------------------------------------------------------------------------


def test_result_cache_roundtrip(tmp_path):
    cache = ResultCache(str(tmp_path / "c"))
    assert cache.get("k") is None
    cache.put("k", {"x": 1.5, "y": [1, 2]})
    assert cache.get("k") == {"x": 1.5, "y": [1, 2]}
    assert len(cache) == 1
    stats = cache.stats()
    assert (stats["hits"], stats["misses"], stats["stores"]) == (1, 1, 1)
    assert stats["hit_rate"] == 0.5


def test_result_cache_counts_only_entries(tmp_path):
    """The fabric writes ``fabric_defects.json`` into the cache directory
    after a quarantine; it is not an entry."""
    cache = ResultCache(str(tmp_path / "c"))
    cache.put("k", {"x": 1})
    with open(os.path.join(cache.directory, "fabric_defects.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"defects": []}, fh)
    assert len(cache) == 1
    assert cache.stats()["entries"] == 1


def test_result_cache_key_mismatch_degrades_to_miss(tmp_path):
    cache = ResultCache(str(tmp_path / "c"))
    cache.put("real-key", {"x": 1})
    # simulate a digest collision: the file exists but stores another key
    with open(cache.path_for("real-key"), "w", encoding="utf-8") as fh:
        json.dump({"key": "other-key", "result": {"x": 2}}, fh)
    assert cache.get("real-key") is None


def test_result_cache_corrupt_file_degrades_to_miss(tmp_path):
    cache = ResultCache(str(tmp_path / "c"))
    cache.put("k", {"x": 1})
    with open(cache.path_for("k"), "w", encoding="utf-8") as fh:
        fh.write("{not json")
    assert cache.get("k") is None


# ---------------------------------------------------------------------------
# concurrent writers (two sweeps sharing one --result-cache)
# ---------------------------------------------------------------------------


def test_result_cache_held_lock_skips_the_write(tmp_path):
    cache = ResultCache(str(tmp_path / "c"))
    lock = cache.path_for("k") + ".lock"
    with open(lock, "w", encoding="utf-8") as fh:
        fh.write(f"{os.getpid()}\n")  # a live writer holds the lock
    cache.put("k", {"x": 1})
    assert cache.lock_skips == 1
    assert cache.stores == 0
    assert cache.get("k") is None
    assert os.path.exists(lock)  # not ours to remove


def test_result_cache_breaks_lock_of_dead_holder(tmp_path):
    """A --resume run must not be blocked by the lock a SIGKILLed
    sweep left behind seconds earlier: the holder pid is dead, so the
    lock is broken immediately (no 30 s stale wait)."""
    import subprocess as sp

    holder = sp.Popen([sys.executable, "-c", "pass"])
    holder.wait()  # pid is now guaranteed dead (and reaped)
    cache = ResultCache(str(tmp_path / "c"))
    lock = cache.path_for("k") + ".lock"
    with open(lock, "w", encoding="utf-8") as fh:
        fh.write(f"{holder.pid}\n")
    cache.put("k", {"x": 1})
    assert cache.stores == 1
    assert cache.get("k") == {"x": 1}
    assert not os.path.exists(lock)


def test_result_cache_breaks_stale_lock(tmp_path):
    cache = ResultCache(str(tmp_path / "c"))
    lock = cache.path_for("k") + ".lock"
    with open(lock, "w", encoding="utf-8") as fh:
        fh.write("666\n")
    old = time.time() - ResultCache.STALE_LOCK_S - 5.0
    os.utime(lock, (old, old))  # the holder crashed long ago
    cache.put("k", {"x": 1})
    assert cache.stores == 1
    assert cache.get("k") == {"x": 1}
    assert not os.path.exists(lock)


def _hammer_cache(directory, worker_seed, n_keys, out_path):
    """Subprocess body: race puts/gets against a sibling process."""
    cache = ResultCache(directory)
    rng = random.Random(worker_seed)
    for _ in range(300):
        k = f"key{rng.randrange(n_keys)}"
        if rng.random() < 0.6:
            cache.put(k, {"key": k, "payload": [1, 2.5, k]})
        else:
            got = cache.get(k)
            assert got is None or got == {"key": k, "payload": [1, 2.5, k]}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(cache.stats(), fh)


def test_result_cache_two_process_hammer(tmp_path):
    """Two real processes hammering the same keys: every surviving
    entry is complete and correct, and no lock files are left behind."""
    directory = str(tmp_path / "shared")
    n_keys = 8
    procs = []
    for seed in (1, 2):
        out = str(tmp_path / f"stats{seed}.json")
        code = (
            "import sys; sys.path.insert(0, 'src'); "
            "sys.path.insert(0, 'tests/bench'); "
            "from test_parallel import _hammer_cache; "
            f"_hammer_cache({directory!r}, {seed}, {n_keys}, {out!r})"
        )
        procs.append(subprocess.Popen(
            [sys.executable, "-c", code], cwd=REPO_ROOT))
    for proc in procs:
        assert proc.wait(timeout=120) == 0
    cache = ResultCache(directory)
    for i in range(n_keys):
        k = f"key{i}"
        got = cache.get(k)
        if got is not None:
            assert got == {"key": k, "payload": [1, 2.5, k]}
    leftovers = [f for f in os.listdir(directory) if f.endswith(".lock")]
    assert leftovers == []
    stores = skips = 0
    for seed in (1, 2):
        with open(tmp_path / f"stats{seed}.json", encoding="utf-8") as fh:
            st = json.load(fh)
        stores += st["stores"]
        skips += st["lock_skips"]
    assert stores > 0  # the hammer actually wrote


# ---------------------------------------------------------------------------
# the generic executor
# ---------------------------------------------------------------------------


def test_run_tasks_preserves_task_order():
    tasks = [(f"k{i}", i) for i in (5, 1, 9, 3)]
    assert run_tasks(tasks, _double) == [
        {"value": 10}, {"value": 2}, {"value": 18}, {"value": 6}]


def test_run_tasks_parallel_matches_serial():
    tasks = [(f"k{i}", i) for i in range(8)]
    assert run_tasks(tasks, _double, jobs=2) == run_tasks(tasks, _double)


def test_run_tasks_serves_cache_hits_without_running(tmp_path):
    cache = ResultCache(str(tmp_path / "c"))
    tasks = [(f"k{i}", i) for i in range(4)]
    first = run_tasks(tasks, _double, cache=cache)
    assert cache.stores == 4

    calls = []

    def must_not_run(payload):
        calls.append(payload)
        return {"value": payload * 2}

    replay = run_tasks(tasks, must_not_run, cache=cache)
    assert replay == first
    assert calls == []
    assert cache.hits == 4


# ---------------------------------------------------------------------------
# the determinism contract on a real sweep
# ---------------------------------------------------------------------------


def test_sweep_serial_parallel_and_replay_identical(tmp_path):
    cache = ResultCache(str(tmp_path / "sweep"))
    serial = sweep_implementations(SMALL_CFG, jobs=1, cache=cache)
    parallel = sweep_implementations(SMALL_CFG, jobs=2)
    replay = sweep_implementations(SMALL_CFG, jobs=1, cache=cache)
    assert serial == parallel
    assert serial == replay
    assert cache.hits == len(serial)
    # the summaries carry bit-exact hex twins for every float field
    for row in serial:
        assert float.fromhex(row["makespan_hex"]) == row["makespan"]
        assert len(row["record_hex"]) == SMALL_CFG.iterations


def test_sweep_derived_seeds_are_per_task():
    rows = sweep_implementations(SMALL_CFG, jobs=1)
    seeds = [row["seed"] for row in rows]
    assert len(set(seeds)) == len(seeds)  # every implementation: own stream
    assert all(s != SMALL_CFG.seed for s in seeds)

    plain = sweep_implementations(SMALL_CFG, jobs=1, derive_seeds=False)
    assert all(row["seed"] == SMALL_CFG.seed for row in plain)
