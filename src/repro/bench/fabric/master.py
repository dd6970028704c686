"""The fabric master: leases out tasks, survives its workers.

``run_tasks_fabric`` is the execution engine behind ``repro sweep
--jobs N``: it forks ``jobs`` long-lived workers connected by
socketpairs, streams ``task`` frames out and ``(task, fingerprint,
result)`` frames back, and keeps the sweep alive through everything
the PR-3 pool died of:

* **leases** — every dispatched task carries a deadline
  (``task_timeout``); an expired lease requeues the task for another
  worker while the original execution, if it ever finishes, is deduped
  by fingerprint;
* **heartbeats** — a worker that stops beating for
  ``heartbeat_timeout`` seconds (or whose process exits) is declared
  dead: its leases are torn down and it is respawned with exponential
  backoff;
* **poison-task quarantine** — a task that was held by
  ``poison_worker_kills`` dying workers is quarantined: a
  machine-readable defect is recorded through the PR-4 audit-log
  schema and the task runs *inline* in the master (the last-resort
  executor), so one pathological task cannot sink the sweep;
* **work stealing** — an idle worker duplicates the oldest
  outstanding lease, so a straggler cannot serialize the tail;
* **checkpointing** — every committed result is written to the
  on-disk :class:`~repro.bench.parallel.ResultCache` immediately, so a
  killed sweep (workers *or* master) resumes from the last completed
  task via ``--resume``;
* **graceful degradation** — when the respawn budget is exhausted (or
  workers cannot be spawned at all) the master raises
  :class:`FabricError` carrying the partial results; the caller
  (``run_tasks``) finishes the remainder on the serial executor.

Determinism: task seeds derive from task identity (never from worker
count or scheduling), results commit first-write-wins per task, and a
duplicate result whose fingerprint disagrees with the committed one is
recorded as a determinism defect — so serial == fabric == resumed runs
bit-exactly, which the chaos harness enforces by SIGKILLing workers
mid-sweep (``chaos_kills``) and comparing fingerprints.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import random
import selectors
import signal
import socket
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ...obs.audit import AuditLog
from ...obs.metrics import MetricsRegistry
from . import reaper
from .leases import LeaseTable
from .protocol import FrameReader, drain_socket, result_fingerprint, send_frame
from .worker import worker_main

__all__ = [
    "FabricConfig",
    "FabricError",
    "FabricTaskError",
    "FabricMaster",
    "fork_available",
    "run_tasks_fabric",
]


class FabricError(RuntimeError):
    """The fabric itself failed (spawn failure, respawn budget
    exhausted).  Carries the results committed so far so the caller
    can degrade to the serial executor for the remainder."""

    def __init__(self, message: str, partial: Optional[Dict[int, Any]] = None):
        super().__init__(message)
        self.partial: Dict[int, Any] = partial or {}


class FabricTaskError(RuntimeError):
    """A task raised inside a worker.  Deterministic — the serial
    executor would raise too — so this propagates instead of
    triggering the serial fallback."""

    def __init__(self, key: str, traceback_text: str):
        super().__init__(
            f"task {key!r} raised in a fabric worker:\n{traceback_text}")
        self.key = key
        self.traceback_text = traceback_text


#: a worker still holding a task this many lease lifetimes after issue
#: is presumed wedged (heartbeat thread alive, main thread stuck) and
#: recycled.  Deliberately generous: a slow-but-live worker keeps
#: heartbeating and must be allowed to finish — its expired lease is
#: merely re-issued elsewhere and deduped.
HUNG_GRACE_FACTOR = 4.0

#: seconds before the first respawn of a dead worker; it doubles per
#: respawn (up to 64x)
RESPAWN_BACKOFF = 0.05


@dataclasses.dataclass
class FabricConfig:
    """Tuning knobs + telemetry sinks for one fabric run.

    The ``metrics`` registry (a PR-4 :class:`MetricsRegistry`) outlives
    the run: the CLI reads it for the ``--stats`` footer and dumps it
    for the chaos-smoke CI artifact.  ``audit`` collects quarantine
    defects in the PR-4 audit-log schema; with ``defects_path`` set
    they are also persisted as JSON.
    """

    task_timeout: float = 60.0
    heartbeat_interval: float = 0.1
    heartbeat_timeout: float = 3.0
    poison_worker_kills: int = 2
    max_clones: int = 2
    #: leases younger than this are never stolen (avoids duplicating
    #: fast tasks at the sweep tail just because a worker went idle)
    steal_min_age: float = 0.25
    max_respawns: int = 8
    #: chaos harness: SIGKILL a random live worker after this many
    #: task completions (0 = off); which worker dies is drawn from a
    #: dedicated seeded RNG so chaos runs are reproducible
    chaos_kills: int = 0
    chaos_seed: int = 0
    defects_path: Optional[str] = None
    #: cross-process trace correlation id; when set, task frames carry
    #: it and workers export it into ``REPRO_CORR_ID`` so every
    #: per-task trace joins the sweep's merged timeline
    correlation: str = ""
    #: optional ``unix:``/``tcp:`` endpoint; when set, the master serves
    #: a read-only text exposition of ``metrics`` for the whole run
    telemetry_endpoint: Optional[str] = None
    metrics: MetricsRegistry = dataclasses.field(
        default_factory=MetricsRegistry)
    audit: AuditLog = dataclasses.field(default_factory=AuditLog)

    def stats(self) -> dict:
        """Plain-dict counter snapshot for footers and artifacts."""
        snap = self.metrics.snapshot()
        return {name: m["value"] for name, m in snap.items()
                if m["type"] == "counter"}


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


class _Worker:
    """Master-side handle of one live worker process."""

    __slots__ = ("id", "proc", "sock", "reader", "last_hb", "pid",
                 "current", "hung_since")

    def __init__(self, wid: int, proc, sock: socket.socket, now: float):
        self.id = wid
        self.proc = proc
        self.sock = sock
        self.reader = FrameReader()
        self.last_hb = now
        self.pid = proc.pid
        self.current: Optional[int] = None  # leased task index
        self.hung_since: Optional[float] = None


class FabricMaster:
    """One sweep's master event loop.  Not reusable across runs."""

    def __init__(self, worker_fn: Callable[[Any], Any], jobs: int,
                 config: Optional[FabricConfig] = None):
        self.worker_fn = worker_fn
        self.jobs = max(1, int(jobs))
        self.config = config or FabricConfig()
        self.metrics = self.config.metrics
        self.audit = self.config.audit
        self._sel = selectors.DefaultSelector()
        self._workers: Dict[int, _Worker] = {}
        self._next_wid = 0
        self._respawns = 0
        self._respawn_due: List[float] = []  # monotonic deadlines
        self._fingerprints: Dict[int, str] = {}
        self._completed = 0
        self._chaos_rng = random.Random(self.config.chaos_seed)
        self._chaos_left = self.config.chaos_kills

    # -- spawning -----------------------------------------------------------

    def _spawn_worker(self, now: float) -> _Worker:
        ctx = multiprocessing.get_context("fork")
        parent_sock, child_sock = socket.socketpair()
        wid = self._next_wid
        self._next_wid += 1
        proc = ctx.Process(
            target=worker_main,
            args=(wid, child_sock, self.worker_fn,
                  self.config.heartbeat_interval, os.getpid()),
            name=f"fabric-worker-{wid}",
            daemon=True,
        )
        proc.start()
        child_sock.close()
        parent_sock.setblocking(False)
        worker = _Worker(wid, proc, parent_sock, now)
        self._workers[wid] = worker
        self._sel.register(parent_sock, selectors.EVENT_READ, worker)
        reaper.register(proc)
        self.metrics.counter("fabric.workers.spawned").inc()
        return worker

    def _retire_worker(self, worker: _Worker, kill: bool = True) -> None:
        self._workers.pop(worker.id, None)
        try:
            self._sel.unregister(worker.sock)
        except (KeyError, ValueError):
            pass
        try:
            worker.sock.close()
        except OSError:
            pass
        if kill:
            try:
                if worker.proc.is_alive():
                    worker.proc.kill()
            except Exception:
                pass
        try:
            worker.proc.join(0.2)
        except Exception:
            pass
        reaper.unregister(worker.proc)

    # -- the run ------------------------------------------------------------

    def run(self, tasks: Sequence[Tuple[str, Any]],
            cache=None) -> List[Any]:
        """Execute every ``(key, payload)`` task; results in task order.

        Raises :class:`FabricError` (with partial results) on fabric
        failure and :class:`FabricTaskError` on a deterministic task
        exception.
        """
        cfg = self.config
        table = LeaseTable(
            len(tasks), task_timeout=cfg.task_timeout,
            poison_worker_kills=cfg.poison_worker_kills,
            max_clones=cfg.max_clones,
            steal_min_age=cfg.steal_min_age,
        )
        self._table = table
        self._tasks = tasks
        self._cache = cache
        if not tasks:
            return []
        try:
            now = time.monotonic()
            want = min(self.jobs, len(tasks))
            for _ in range(want):
                self._spawn_worker(now)
        except OSError as exc:
            self._shutdown()
            raise FabricError(f"cannot spawn fabric workers: {exc}",
                              table.results()) from exc
        telemetry = None
        if cfg.telemetry_endpoint:
            from ...obs.telemetry import TelemetryServer
            telemetry = TelemetryServer(
                cfg.telemetry_endpoint, self.metrics.snapshot,
                scope="sweep-fabric").start()
        try:
            self._loop(table)
        except (FabricError, FabricTaskError):
            self._persist_defects()
            raise
        finally:
            self._shutdown()
            if telemetry is not None:
                telemetry.stop()
        self._persist_defects()
        results = table.results()
        return [results[i] for i in range(len(tasks))]

    def _loop(self, table: LeaseTable) -> None:
        cfg = self.config
        tick = max(0.01, cfg.heartbeat_interval / 2)
        while not table.done():
            now = time.monotonic()
            self._do_respawns(now)
            if not self._workers and not self._respawn_due:
                raise FabricError(
                    "no live workers and respawn budget exhausted "
                    f"({self._respawns} respawns)", table.results())
            self._dispatch(table, now)
            # live-state gauges for the telemetry endpoint / `repro top`
            self.metrics.gauge("fabric.workers.live").set(
                len(self._workers))
            self.metrics.gauge("fabric.leases.open").set(
                sum(1 for w in self._workers.values()
                    if w.current is not None))
            events = self._sel.select(timeout=tick)
            now = time.monotonic()
            dead: List[_Worker] = []
            for key, _mask in events:
                worker: _Worker = key.data
                alive, frames = drain_socket(worker.sock, worker.reader)
                for frame in frames:
                    self._handle_frame(worker, frame, table, now)
                if not alive and worker.id in self._workers:
                    dead.append(worker)
            for worker in list(self._workers.values()):
                if worker in dead:
                    continue
                if not worker.proc.is_alive():
                    dead.append(worker)
                elif now - worker.last_hb > cfg.heartbeat_timeout:
                    self.metrics.counter("fabric.heartbeats.missed").inc()
                    dead.append(worker)
            for worker in dead:
                if worker.id in self._workers:
                    self._worker_died(worker, table, time.monotonic())
            self._check_leases(table, time.monotonic())

    # -- frame handling -----------------------------------------------------

    def _handle_frame(self, worker: _Worker, frame: tuple,
                      table: LeaseTable, now: float) -> None:
        kind = frame[0]
        if kind == "hb":
            worker.last_hb = now
            self.metrics.counter("fabric.heartbeats").inc()
            return
        if kind == "hello":
            worker.last_hb = now
            return
        if kind == "error":
            _, index, key, tb = frame
            raise FabricTaskError(key, tb)
        if kind != "result":
            return
        _, index, key, fingerprint, result = frame
        worker.last_hb = now
        if worker.current == index:
            worker.current = None
            worker.hung_since = None
        committed = table.complete(index, worker.id, result)
        if committed:
            self._commit(index, key, fingerprint, result)
        else:
            self.metrics.counter("fabric.tasks.duplicates").inc()
            expected = self._fingerprints.get(index)
            if expected is not None and expected != fingerprint:
                # two executions of one task disagreeing is a broken
                # determinism contract — the most serious defect the
                # fabric can observe; record it machine-readably
                self.metrics.counter("fabric.defects.determinism").inc()
                self.audit.defect(
                    component="fabric", key=key,
                    reason="duplicate execution produced a different "
                           "fingerprint (determinism violation)",
                    expected=expected, actual=fingerprint)

    def _commit(self, index: int, key: str, fingerprint: str,
                result: Any) -> None:
        self._fingerprints[index] = fingerprint
        self._completed += 1
        self.metrics.counter("fabric.tasks.completed").inc()
        if self._cache is not None:
            # the checkpoint: every committed task lands on disk
            # before the sweep moves on, so a killed sweep resumes here
            self._cache.put(key, result)
        self._maybe_chaos_kill()

    # -- failure paths ------------------------------------------------------

    def _worker_died(self, worker: _Worker, table: LeaseTable,
                     now: float) -> None:
        requeued, poisoned = table.worker_died(worker.id)
        self._retire_worker(worker)
        self.metrics.counter("fabric.workers.died").inc()
        for index in poisoned:
            self._quarantine(index, table)
        if self._respawns < self.config.max_respawns:
            backoff = RESPAWN_BACKOFF * 2 ** min(self._respawns, 6)
            self._respawns += 1
            self._respawn_due.append(now + backoff)
        # with the budget exhausted the loop keeps going on the
        # remaining workers; _loop aborts only when none are left

    def _do_respawns(self, now: float) -> None:
        due = [t for t in self._respawn_due if t <= now]
        if not due:
            return
        self._respawn_due = [t for t in self._respawn_due if t > now]
        for _ in due:
            try:
                self._spawn_worker(now)
                self.metrics.counter("fabric.workers.respawned").inc()
            except OSError:
                # couldn't respawn: put the slot back with more backoff
                self._respawn_due.append(
                    now + RESPAWN_BACKOFF * 4)

    def _quarantine(self, index: int, table: LeaseTable) -> None:
        """A poison task: record the defect, then run it inline —
        the master is the executor of last resort."""
        key, payload = self._tasks[index]
        self.metrics.counter("fabric.tasks.quarantined").inc()
        self.audit.defect(
            component="fabric", key=key,
            reason=f"task killed {table.kills(index)} workers; "
                   "quarantined and executed inline in the master",
            worker_kills=table.kills(index))
        result = self.worker_fn(payload)
        table.commit_inline(index, result)
        self._commit(index, key, result_fingerprint(result), result)

    def _check_leases(self, table: LeaseTable, now: float) -> None:
        expired = table.expire(now)
        if expired:
            self.metrics.counter("fabric.leases.expired").inc(len(expired))
        for lease in expired:
            worker = self._workers.get(lease.worker)
            if worker is None or worker.current != lease.task:
                continue
            # the worker keeps running its (now expired) task; its
            # eventual result is deduped.  But a worker that blows far
            # past the lease is presumed hung and recycled.
            if worker.hung_since is None:
                worker.hung_since = lease.issued_at
        grace = HUNG_GRACE_FACTOR * table.task_timeout
        for worker in list(self._workers.values()):
            if (worker.hung_since is not None
                    and now - worker.hung_since > grace):
                self.metrics.counter("fabric.workers.hung").inc()
                self._worker_died(worker, table, now)

    # -- dispatch & stealing ------------------------------------------------

    def _dispatch(self, table: LeaseTable, now: float) -> None:
        for worker in list(self._workers.values()):
            if worker.current is not None:
                continue
            lease = table.next_task(worker.id, now)
            if lease is None:
                return
            if lease.stolen:
                self.metrics.counter("fabric.tasks.stolen").inc()
            key, payload = self._tasks[lease.task]
            self.metrics.counter("fabric.leases.issued").inc()
            if self.config.correlation:
                # 5th element: correlation id (older workers unpack
                # with *rest, so mixed versions stay compatible)
                frame = ("task", lease.task, key, payload,
                         self.config.correlation)
            else:
                frame = ("task", lease.task, key, payload)
            try:
                worker.sock.setblocking(True)
                send_frame(worker.sock, frame)
                worker.sock.setblocking(False)
                worker.current = lease.task
            except OSError:
                self._worker_died(worker, table, now)

    # -- chaos hook ----------------------------------------------------------

    def _maybe_chaos_kill(self) -> None:
        if self._chaos_left <= 0 or not self._workers:
            return
        self._chaos_left -= 1
        victim = self._chaos_rng.choice(
            sorted(self._workers.values(), key=lambda w: w.id))
        self.metrics.counter("fabric.chaos.kills").inc()
        try:
            os.kill(victim.pid, signal.SIGKILL)
        except (OSError, TypeError):
            pass

    # -- teardown ------------------------------------------------------------

    def _shutdown(self) -> None:
        for worker in list(self._workers.values()):
            try:
                worker.sock.setblocking(True)
                send_frame(worker.sock, ("shutdown",))
            except OSError:
                pass
        for worker in list(self._workers.values()):
            self._retire_worker(worker, kill=False)
            try:
                if worker.proc.is_alive():
                    worker.proc.kill()
                    worker.proc.join(0.2)
            except Exception:
                pass
        try:
            self._sel.close()
        except Exception:
            pass

    def _persist_defects(self) -> None:
        path = self.config.defects_path
        if not path or not len(self.audit):
            return
        from ...adcl.history import atomic_write_json
        atomic_write_json(path, {"defects": self.audit.to_json()})


def run_tasks_fabric(
    tasks: Sequence[Tuple[str, Any]],
    worker_fn: Callable[[Any], Any],
    jobs: int,
    cache=None,
    config: Optional[FabricConfig] = None,
) -> List[Any]:
    """Run ``tasks`` on a fresh fabric; results in task order.

    Raises :class:`FabricError` with partial results when the fabric
    cannot keep enough workers alive — callers degrade to serial.
    """
    if not fork_available():
        raise FabricError("fork start method unavailable on this platform")
    master = FabricMaster(worker_fn, jobs, config)
    return master.run(tasks, cache=cache)
