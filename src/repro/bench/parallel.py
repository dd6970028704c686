"""Parallel sweep executor: fan simulations out across cores.

A sweep (``python -m repro sweep``) or an FFT method comparison runs
many *independent* simulations — one per candidate implementation or
per method.  Each simulation is a self-contained deterministic world,
so the set parallelizes embarrassingly:

* :func:`run_tasks` — the generic executor: a list of ``(key,
  payload)`` tasks, a picklable module-level worker, the resilient
  master/worker fabric (:mod:`repro.bench.fabric`) for ``jobs > 1``,
  and an optional on-disk :class:`ResultCache`;
* :func:`sweep_implementations` / :func:`fft_methods` — the two
  concrete sweeps behind the ``sweep`` and ``fft`` CLI commands;
* :func:`derive_seed` — deterministic per-task seed derivation, so a
  task's noise stream depends only on its identity (never on sweep
  order, worker count, or which other tasks run alongside it).

Determinism contract: for the same task list, serial execution
(``jobs=1``), fabric execution (``jobs=N``), a chaos-interrupted
fabric run, a ``--resume`` continuation, and a cache replay all return
bit-identical summaries.  Workers reduce each simulation to a
JSON-able dict whose float fields carry ``float.hex()`` twins
(``*_hex`` keys), so the contract survives a JSON round-trip through
the cache exactly.

Robustness: the fabric survives worker SIGKILLs, hangs and OOM kills
(leases + heartbeats + respawn); on *fabric* failure — respawn budget
exhausted, fork unavailable — ``run_tasks`` degrades gracefully to the
serial executor and still finishes the sweep.  Every completed task is
checkpointed to the cache immediately, so a killed sweep (master
included) continues from the last completed task.

The cache reuses :func:`repro.adcl.history.atomic_write_json`: one
file per task, named by the SHA-256 of the task key, written
crash-safely behind an ``O_EXCL`` lock file so concurrent sweeps
sharing a cache directory never tear or duplicate each other's
entries.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
from typing import Any, Callable, Optional, Sequence

from ..adcl.history import atomic_write_json
from ..util.canonical import canonical_json
from ..util.locks import FileLock
from .overlap import OverlapConfig, function_set_for, run_overlap

__all__ = [
    "ResultCache",
    "derive_seed",
    "fft_methods",
    "run_tasks",
    "sweep_implementations",
    "task_key",
]


# ---------------------------------------------------------------------------
# task identity & seed derivation
# ---------------------------------------------------------------------------


def task_key(kind: str, **fields: Any) -> str:
    """Canonical string identity of one task.

    ``fields`` must be JSON-able; dataclasses are flattened with
    :func:`dataclasses.asdict`.  The key is stable across processes and
    sessions (sorted keys, no whitespace), making it usable both as the
    cache key and as the seed-derivation input.
    """
    flat = {}
    for name, value in fields.items():
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            value = dataclasses.asdict(value)
        flat[name] = value
    return f"{kind}:{canonical_json(flat)}"


def derive_seed(base_seed: int, key: str) -> int:
    """Deterministic per-task seed: hash the base seed with the task key.

    Python's builtin ``hash()`` is salted per process, so we use
    SHA-256 — the derived seed is identical in every worker process and
    every session.  The result is a non-negative 31-bit int (safe for
    ``numpy`` generators).
    """
    digest = hashlib.sha256(f"{base_seed}:{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


# ---------------------------------------------------------------------------
# on-disk result cache
# ---------------------------------------------------------------------------


class ResultCache:
    """Keyed on-disk cache of task summaries.

    One JSON file per task under ``directory``, named by the SHA-256 of
    the key and written with ``atomic_write_json`` (unique temp file +
    fsync + atomic rename), so a reader never sees a torn entry.  Each
    file stores ``{"key": ..., "result": ...}``; the stored key is
    verified on read so a (vanishingly unlikely) digest collision
    degrades to a miss, never a wrong answer.

    Concurrent writers — two sweeps sharing ``--result-cache`` — are
    serialized per key by a :class:`~repro.util.locks.FileLock`.  A
    writer that loses the race simply skips its write (``lock_skips``):
    results are a pure function of the key, so first-writer-wins loses
    nothing.  A lock whose holder pid is dead — or, when no pid is
    readable, one older than ``STALE_LOCK_S`` — belonged to a crashed
    writer and is broken.
    """

    #: a lock file older than this is a crashed writer's leftovers
    STALE_LOCK_S = FileLock.STALE_S

    #: an entry's file name (see :meth:`path_for`); other files in the
    #: directory, such as the fabric's ``fabric_defects.json``, are not
    #: entries
    _ENTRY = re.compile(r"[0-9a-f]{40}\.json")

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.lock_skips = 0

    def path_for(self, key: str) -> str:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return os.path.join(self.directory, f"{digest[:40]}.json")

    def get(self, key: str) -> Optional[Any]:
        """The cached result for ``key``, or None on a miss."""
        try:
            with open(self.path_for(key), encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if entry.get("key") != key:
            self.misses += 1
            return None
        self.hits += 1
        return entry.get("result")

    def put(self, key: str, result: Any) -> None:
        path = self.path_for(key)
        lock = FileLock(path, stale_s=self.STALE_LOCK_S)
        if not lock.try_acquire():
            # another sweep is writing this key right now; its result
            # is bit-identical by the determinism contract, so losing
            # the race is free
            self.lock_skips += 1
            return
        try:
            atomic_write_json(path, {"key": key, "result": result})
            self.stores += 1
        finally:
            lock.release()

    def __len__(self) -> int:
        return sum(1 for name in os.listdir(self.directory)
                   if self._ENTRY.fullmatch(name))

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {
            "directory": self.directory,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "lock_skips": self.lock_skips,
            "entries": len(self),
            "hit_rate": round(self.hit_rate, 4),
        }


# ---------------------------------------------------------------------------
# the executor
# ---------------------------------------------------------------------------


def run_tasks(
    tasks: Sequence[tuple[str, Any]],
    worker: Callable[[Any], Any],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    fabric: Optional["FabricConfig"] = None,
) -> list:
    """Run ``worker(payload)`` for every ``(key, payload)`` task.

    Results come back in task order.  Cached tasks are served from
    ``cache`` without running (this is also the ``--resume`` path: the
    cache *is* the sweep checkpoint); computed results are written
    back to it as each task completes.

    With ``jobs > 1`` the non-cached tasks run on the resilient
    master/worker fabric (:mod:`repro.bench.fabric`) — long-lived
    forked workers, leases, heartbeats, respawn, work stealing.
    ``worker`` must be a module-level callable and payloads picklable.
    Results commit keyed by task identity, so fabric execution is
    observationally identical to serial execution.  ``fabric``
    optionally supplies a tuned :class:`~repro.bench.fabric.
    FabricConfig` (its metrics registry collects the run's telemetry).

    Graceful degradation: if the fabric cannot keep workers alive
    (respawn budget exhausted, ``fork`` unavailable), the remaining
    tasks finish on the in-process serial executor — a sweep never
    dies of fabric trouble.
    """
    from .fabric.master import FabricConfig, FabricError, run_tasks_fabric

    results: list = [None] * len(tasks)
    todo: list[int] = []
    for i, (key, _payload) in enumerate(tasks):
        if cache is not None:
            hit = cache.get(key)
            if hit is not None:
                results[i] = hit
                continue
        todo.append(i)

    if fabric is not None:
        fabric.metrics.counter("fabric.resume.hits").inc(
            len(tasks) - len(todo))
        fabric.metrics.counter("fabric.tasks.total").inc(len(tasks))

    if not todo:
        return results

    sub = [tasks[i] for i in todo]
    done: dict[int, Any] = {}
    if jobs > 1 and len(sub) > 1:
        config = fabric if fabric is not None else FabricConfig()
        try:
            computed = run_tasks_fabric(sub, worker, jobs, cache=cache,
                                        config=config)
            for j, result in enumerate(computed):
                done[j] = result
        except FabricError as exc:
            # the fabric is gone; keep its partial results (already
            # checkpointed) and finish the rest serially
            config.metrics.counter("fabric.fallback.serial").inc()
            done.update(exc.partial)
    for j in range(len(sub)):
        if j in done:
            results[todo[j]] = done[j]
            continue
        result = worker(sub[j][1])
        results[todo[j]] = result
        done[j] = result
        if cache is not None:
            cache.put(sub[j][0], result)
    if fabric is not None and cache is not None:
        # fold the cache's cumulative counters into the fabric registry
        # as gauges so --fabric-metrics and the telemetry endpoint see
        # hit rates and lock contention (lock_skips) per run
        for field in ("hits", "misses", "stores", "lock_skips"):
            fabric.metrics.gauge(f"fabric.cache.{field}").set(
                getattr(cache, field))
    return results


# ---------------------------------------------------------------------------
# concrete sweeps (workers are module-level so they pickle)
# ---------------------------------------------------------------------------


def _records_summary(res) -> dict:
    """JSON-able, bit-exact summary shared by both sweep kinds."""
    return {
        "mean_iteration": res.mean_iteration,
        "mean_iteration_hex": float(res.mean_iteration).hex(),
        "makespan": res.makespan,
        "makespan_hex": float(res.makespan).hex(),
        "events": getattr(res, "events", 0),
        "winner": res.winner,
        "decided_at": res.decided_at,
        "record_hex": [float(r.seconds).hex() for r in res.records],
        "engine_stats": getattr(res, "engine_stats", None),
    }


def _sweep_worker(payload) -> dict:
    config, fn_index, fn_name, trace = payload
    if not trace:
        res = run_overlap(config, selector=fn_index)
        out = _records_summary(res)
    else:
        # per-task recorder: each task records its own world(s) and the
        # parent merges them in task order, so serial, parallel and
        # cache-replay sweeps all assemble byte-identical trace docs.
        # install()/uninstall semantics matter for jobs=1 (in-process):
        # the previous recorder must come back whatever happens.
        from ..obs.recorder import TraceRecorder, install

        rec = TraceRecorder()
        prev = install(rec)
        try:
            res = run_overlap(config, selector=fn_index)
        finally:
            install(prev)
        out = _records_summary(res)
        out["trace"] = rec.export_events()
        out["worlds"] = list(rec.worlds)
        out["metrics"] = rec.metrics.snapshot()
    out["fn_index"] = fn_index
    out["name"] = fn_name
    out["seed"] = config.seed
    return out


def sweep_implementations(
    config: OverlapConfig,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    derive_seeds: bool = True,
    trace: bool = False,
    fabric: Optional["FabricConfig"] = None,
) -> list[dict]:
    """Time every implementation of ``config.operation`` (the ``sweep``
    command), optionally in parallel and/or against a result cache.

    With ``derive_seeds`` (the default) each implementation runs under
    :func:`derive_seed`'s per-task seed, so its noise stream is a pure
    function of the scenario + implementation identity.

    With ``trace`` each task additionally records a structured event
    trace and a metrics snapshot (``trace`` / ``worlds`` / ``metrics``
    result keys).  Traced tasks use a distinct cache namespace so plain
    sweep entries are never served trace-less to a traced sweep.
    """
    fnset = function_set_for(config.operation)
    tasks = []
    for i, fn in enumerate(fnset):
        # seeds always derive from the plain sweep key: recording a
        # trace must not perturb the simulated noise stream
        key = task_key("sweep", config=config, fn_index=i, fn_name=fn.name)
        cfg = config
        if derive_seeds:
            cfg = dataclasses.replace(config, seed=derive_seed(config.seed, key))
        cache_key = (
            task_key("sweep+trace", config=config, fn_index=i, fn_name=fn.name)
            if trace else key
        )
        tasks.append((cache_key, (cfg, i, fn.name, trace)))
    return run_tasks(tasks, _sweep_worker, jobs=jobs, cache=cache,
                     fabric=fabric)


def _fft_worker(payload) -> dict:
    config, method = payload
    # local import: keep bench importable without the apps package and
    # avoid a bench <-> apps import cycle at module load
    from ..apps.fft import run_fft

    res = run_fft(config)
    out = _records_summary(res)
    out["method"] = method
    steady = res.mean_after_learning()
    out["mean_after_learning"] = steady
    out["mean_after_learning_hex"] = float(steady).hex()
    return out


def fft_methods(
    config,
    methods: Sequence[str],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    fabric: Optional["FabricConfig"] = None,
) -> list[dict]:
    """Run the FFT kernel once per method (the ``fft`` command)."""
    tasks = []
    for method in methods:
        cfg = dataclasses.replace(config, method=method)
        key = task_key("fft", config=cfg)
        tasks.append((key, (cfg, method)))
    return run_tasks(tasks, _fft_worker, jobs=jobs, cache=cache,
                     fabric=fabric)
