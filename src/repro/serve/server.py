"""The tuning daemon: a crash-safe knowledge service for many clients.

One long-lived process owns the sharded knowledge base
(:mod:`repro.serve.shards`) and answers tuning requests over a
unix/TCP socket using the fabric's length-prefixed framing with the
JSON codec (:mod:`repro.bench.fabric.protocol`).  The design is
failure-first:

* **WAL + replay** — every committed decision is fsync'd to a shard
  WAL before it is acknowledged; a SIGKILL at any instant loses at
  most the un-acknowledged record, and restart replays the log with
  torn tails truncated, never propagated;
* **bounded admission** — misses enter a bounded queue served by a
  small pool of compute threads; when the queue is full the request is
  shed with an explicit ``busy`` reply *immediately* — the daemon
  never parks a client on an unbounded backlog, and a client is never
  left hanging (every code path ends in a reply or a closed socket);
* **coalescing** — identical in-flight requests share one simulation
  (:mod:`repro.serve.coalesce`); exact hits read the in-memory shards
  directly, so a committed re-tune is visible to the very next get;
* **warm starts** — an exact miss can be answered with the
  nearest-geometry neighbor's decision (``warm`` op) while the real
  answer computes;
* **drift-triggered re-tuning** — clients report post-decision
  measurements; a per-key :class:`~repro.adcl.statistics.DriftDetector`
  re-opens tuning in a background thread, gated by a circuit breaker
  and a per-key non-concurrency guard (:mod:`repro.serve.breaker`);
* **drain-then-checkpoint shutdown** — SIGTERM stops the acceptor,
  lets in-flight work finish (bounded by :data:`DRAIN_TIMEOUT`),
  checkpoints every shard and only then exits;
* **telemetry** — a PR-4 :class:`~repro.obs.metrics.MetricsRegistry`
  counts every hit/miss/shed/retune (the ``stats`` op and the shutdown
  dump expose it) and WAL truncations land in the PR-4 audit log as
  machine-readable defects.
"""

from __future__ import annotations

import dataclasses
import queue
import signal
import socket
import threading
import time
from typing import Callable, Dict, Optional

from ..adcl.statistics import DriftDetector
from ..bench.fabric.protocol import ProtocolError, recv_frame, send_frame
from ..errors import ServeError
from ..obs.audit import AuditLog
from ..obs.metrics import SERVICE_BUCKETS, MetricsRegistry
from .breaker import CircuitBreaker, RetuneScheduler
from .coalesce import Coalescer
from .core import compute_decision, normalize_request, request_key
from .endpoint import bind_listener
from .shards import KnowledgeBase

__all__ = ["ServeConfig", "TuningServer", "PROTOCOL_VERSION"]

#: wire protocol version, echoed in ``pong`` replies
PROTOCOL_VERSION = 1

#: frame cap for service connections: requests are small JSON objects,
#: so anything close to the fabric-wide 1 GiB cap is garbage
SERVE_MAX_FRAME = 1 << 20

#: connection-thread recv tick (shutdown latency bound), also the
#: ``retry_after`` a shed request is told
IDLE_TICK = 0.25

#: seconds stop() waits for in-flight work before checkpointing
DRAIN_TIMEOUT = 10.0


class _Shed(Exception):
    """Internal signal: the request was shed (becomes a ``busy`` reply)."""


@dataclasses.dataclass
class ServeConfig:
    """Everything one daemon instance needs to run."""

    endpoint: str
    data_dir: str
    shards: int = 4
    #: compute threads running tuning simulations
    workers: int = 2
    #: bounded admission queue; a full queue sheds with ``busy``
    queue_capacity: int = 16
    #: server-side cap on one request's wait for its (possibly
    #: coalesced) computation; exceeding it sheds with ``busy``
    request_timeout: float = 30.0
    #: committed decisions between automatic shard checkpoints
    checkpoint_every: int = 32
    drift_window: int = 8
    drift_threshold: float = 1.75
    #: write the metrics snapshot here on shutdown (None = skip)
    metrics_path: Optional[str] = None
    #: write the audit log here on shutdown (None = skip)
    audit_path: Optional[str] = None
    #: optional second ``unix:``/``tcp:`` endpoint serving a read-only
    #: Prometheus-style text exposition of the metrics registry; the
    #: scrape path never writes daemon state, so telemetry on vs off
    #: cannot change any decision (the PR-4 passivity contract)
    telemetry_endpoint: Optional[str] = None


class TuningServer:
    """The daemon.  ``start()`` / ``stop()`` for embedding (tests run it
    in-process on an ephemeral socket); ``serve_forever()`` for the CLI,
    which adds SIGTERM/SIGINT drain-then-checkpoint handling."""

    def __init__(self, config: ServeConfig,
                 compute: Callable[[dict], dict] = compute_decision):
        self.config = config
        self._compute = compute
        self.metrics = MetricsRegistry()
        self.audit = AuditLog()
        self.kb = KnowledgeBase(config.data_dir, nshards=config.shards)
        self.coalescer = Coalescer()
        self.retunes = RetuneScheduler(CircuitBreaker())
        self._queue: "queue.Queue" = queue.Queue(maxsize=config.queue_capacity)
        self._drift: Dict[str, DriftDetector] = {}
        self._drift_lock = threading.Lock()
        self._commits = 0
        self._commits_lock = threading.Lock()
        self._shutdown = threading.Event()
        self._stopped = threading.Event()
        self._listener: Optional[socket.socket] = None
        self._telemetry = None
        self._threads: list = []
        self._conn_threads: list = []
        self._record_recovery()
        self._crosscheck_guidelines()

    def _crosscheck_guidelines(self) -> None:
        """Verify the recovered knowledge base against the monotonicity
        guidelines before serving it.

        A decision store that survived crashes, WAL replays and drift
        re-tunes can accumulate mutually inconsistent decisions (a
        bigger scenario stored as cheaper than a smaller one).  Each
        inconsistency becomes an audit defect in the guideline-defect
        pipeline's shape — surfaced at boot, not when a client plans
        around a stale answer.
        """
        from ..guidelines.checker import check_kb_records
        from ..guidelines.defects import defect_from_violation, \
            record_defects

        records = sorted(
            (rec for shard in self.kb.shards
             for rec in shard.live_records()),
            key=lambda rec: rec.get("key") or "")
        violations = check_kb_records(records)
        record_defects(
            self.audit, [defect_from_violation(v) for v in violations])
        self.metrics.gauge("serve.guidelines.checked").set(len(records))
        self.metrics.gauge("serve.guidelines.violations").set(
            len(violations))
        self.guideline_check = {"records": len(records),
                                "violations": len(violations)}

    def _record_recovery(self) -> None:
        """Expose crash-recovery telemetry from the knowledge base."""
        stats = self.kb.stats()
        self.metrics.gauge("serve.recovery.replayed_records").set(
            stats["replayed_records"])
        self.metrics.gauge("serve.recovery.truncated_bytes").set(
            stats["truncated_bytes"])
        for shard in self.kb.shards:
            if shard.truncated_bytes:
                self.audit.defect(
                    "serve.wal", shard.wal_path,
                    "torn WAL tail detected and truncated on replay",
                    truncated_bytes=shard.truncated_bytes,
                    replayed_records=shard.replayed_records,
                )

    # -- lifecycle ----------------------------------------------------------

    @property
    def address(self):
        """The bound address (useful for ``tcp:host:0`` ephemeral ports)."""
        if self._listener is None:
            raise ServeError("server is not started")
        return self._listener.getsockname()

    def start(self) -> None:
        if self._listener is not None:
            raise ServeError("server already started")
        self._listener = bind_listener(self.config.endpoint)
        self._listener.settimeout(IDLE_TICK)
        for i in range(self.config.workers):
            t = threading.Thread(target=self._compute_loop,
                                 name=f"serve-compute-{i}", daemon=True)
            t.start()
            self._threads.append(t)
        acceptor = threading.Thread(target=self._accept_loop,
                                    name="serve-accept", daemon=True)
        acceptor.start()
        self._threads.append(acceptor)
        if self.config.telemetry_endpoint:
            from ..obs.telemetry import TelemetryServer

            self._telemetry = TelemetryServer(
                self.config.telemetry_endpoint,
                self._telemetry_snapshot,
                scope="tuning-service").start()

    def _telemetry_snapshot(self) -> dict:
        """Read-only snapshot fed to the exposition endpoint."""
        self._sync_derived_metrics()
        return self.metrics.snapshot()

    def stop(self) -> None:
        """Drain-then-checkpoint shutdown (idempotent)."""
        if self._stopped.is_set():
            return
        self._shutdown.set()
        if self._telemetry is not None:
            self._telemetry.stop()
            self._telemetry = None
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        # let in-flight computations finish (bounded): workers exit on
        # their sentinel after draining whatever was already queued
        deadline = time.monotonic() + DRAIN_TIMEOUT
        for _ in range(self.config.workers):
            try:
                self._queue.put(None,
                                timeout=max(deadline - time.monotonic(), 0.1))
            except queue.Full:
                break  # a wedged worker; checkpoint what we have
        for t in self._threads:
            t.join(timeout=max(deadline - time.monotonic(), 0.1))
        for t in list(self._conn_threads):
            t.join(timeout=max(deadline - time.monotonic(), 0.1))
        self.kb.checkpoint_all()
        self.metrics.counter("serve.checkpoints").inc()
        self.kb.close()
        if self.config.metrics_path:
            self._sync_derived_metrics()
            self.metrics.dump(self.config.metrics_path, scope="tuning-service")
        if self.config.audit_path:
            import json

            with open(self.config.audit_path, "w", encoding="utf-8") as fh:
                json.dump({"scope": "tuning-service",
                           "audit": self.audit.to_json()}, fh,
                          sort_keys=True, indent=2)
                fh.write("\n")
        self._stopped.set()

    def serve_forever(self) -> None:
        """Run until SIGTERM/SIGINT, then drain, checkpoint, return."""
        stop_signal = threading.Event()
        previous = {}

        def _handler(signum, frame):
            stop_signal.set()

        for sig in (signal.SIGTERM, signal.SIGINT):
            previous[sig] = signal.signal(sig, _handler)
        try:
            self.start()
            while not stop_signal.is_set():
                stop_signal.wait(IDLE_TICK)
        finally:
            for sig, old in previous.items():
                signal.signal(sig, old)
            self.stop()

    # -- accept / connection handling ---------------------------------------

    def _accept_loop(self) -> None:
        while not self._shutdown.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed by stop()
            self.metrics.counter("serve.connections").inc()
            t = threading.Thread(target=self._serve_connection, args=(conn,),
                                 name="serve-conn", daemon=True)
            t.start()
            self._conn_threads.append(t)
            # keep the bookkeeping list from growing unboundedly
            self._conn_threads = [x for x in self._conn_threads
                                  if x.is_alive()]

    def _serve_connection(self, conn: socket.socket) -> None:
        conn.settimeout(IDLE_TICK)
        try:
            while True:
                try:
                    message = recv_frame(conn, codec="json",
                                         max_frame=SERVE_MAX_FRAME)
                except socket.timeout:
                    if self._shutdown.is_set():
                        return
                    continue
                except ProtocolError as exc:
                    # malformed bytes: answer with a typed error (so a
                    # confused-but-listening client learns why) and
                    # close — the stream offset is unrecoverable
                    self.metrics.counter("serve.errors.protocol").inc()
                    self._reply(conn, ("err", "protocol", str(exc)))
                    return
                except OSError:
                    return
                if message is None:
                    return  # clean EOF
                t0 = time.monotonic()
                try:
                    reply = self._dispatch(message)
                except _Shed:
                    reply = ("busy", {"retry_after": IDLE_TICK})
                    self.metrics.counter("serve.shed.total").inc()
                except ServeError as exc:
                    self.metrics.counter("serve.errors.request").inc()
                    reply = ("err", "request", str(exc))
                except Exception as exc:  # noqa: BLE001 - reply, never hang
                    self.metrics.counter("serve.errors.internal").inc()
                    reply = ("err", "internal",
                             f"{type(exc).__name__}: {exc}")
                self.metrics.histogram(
                    "serve.request_seconds", SERVICE_BUCKETS).observe(
                    time.monotonic() - t0)
                if not self._reply(conn, reply):
                    return
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _reply(self, conn: socket.socket, message: tuple) -> bool:
        try:
            send_frame(conn, message, codec="json")
            return True
        except OSError:
            return False  # client went away; nothing left to do

    # -- request dispatch ---------------------------------------------------

    def _dispatch(self, message: tuple) -> tuple:
        if not message or not isinstance(message[0], str):
            raise ServeError(f"malformed request: {message!r}")
        op, args = message[0], message[1:]
        self.metrics.counter(f"serve.ops.{op}").inc()
        if op == "ping":
            return ("pong", {"version": PROTOCOL_VERSION})
        if op == "get":
            return self._op_get(*args)
        if op == "warm":
            return self._op_warm(*args)
        if op == "lookup":
            return self._op_lookup(*args)
        if op == "record":
            return self._op_record(*args)
        if op == "forget":
            return self._op_forget(*args)
        if op == "report":
            return self._op_report(*args)
        if op == "stats":
            return self._op_stats(*args)
        raise ServeError(f"unknown operation {op!r}")

    def _note_correlation(self, corr) -> None:
        """Count correlated requests (the id itself rides the frame, not
        the request dict, so ``normalize_request`` stays strict)."""
        if corr:
            self.metrics.counter("serve.requests.correlated").inc()

    def _op_get(self, fields=None, corr=None) -> tuple:
        self._note_correlation(corr)
        req = normalize_request(fields)
        key = request_key(req)
        record = self.kb.get(key)
        if record is not None and record.get("decision") is not None:
            self.metrics.counter("serve.hits.kb").inc()
            return ("ok", record)
        if self._shutdown.is_set():
            self.metrics.counter("serve.shed.draining").inc()
            raise _Shed()
        leader, entry = self.coalescer.join(key)
        if leader:
            try:
                self._queue.put_nowait((key, req, entry))
            except queue.Full:
                self.metrics.counter("serve.shed.queue_full").inc()
                self.coalescer.abandon(key, error=_Shed())
        outcome = Coalescer.wait(entry, self.config.request_timeout)
        if outcome is None:
            self.metrics.counter("serve.shed.timeout").inc()
            raise _Shed()
        result, error = outcome
        if error is not None:
            if isinstance(error, _Shed):
                raise _Shed()
            if isinstance(error, ServeError):
                raise error
            raise ServeError(f"computation failed: "
                             f"{type(error).__name__}: {error}")
        self.metrics.counter("serve.miss.computed").inc()
        return ("ok", result)

    def _op_warm(self, fields=None, corr=None) -> tuple:
        self._note_correlation(corr)
        req = normalize_request(fields)
        record = self.kb.nearest(req)
        self.metrics.counter(
            "serve.warm.hits" if record else "serve.warm.misses").inc()
        return ("ok", record)

    def _op_lookup(self, key=None, corr=None) -> tuple:
        self._note_correlation(corr)
        if not isinstance(key, str):
            raise ServeError(f"lookup key must be a string, got {key!r}")
        record = self.kb.get(key)
        self.metrics.counter(
            "serve.lookup.hits" if record else "serve.lookup.misses").inc()
        return ("ok", record)

    def _op_record(self, key=None, decision=None, corr=None) -> tuple:
        """A client-computed decision (e.g. a degraded tuner that later
        reconnected, or an ``ADCLRequest`` running stateless over the
        shared store) pushed into the knowledge base."""
        self._note_correlation(corr)
        if not isinstance(key, str):
            raise ServeError(f"record key must be a string, got {key!r}")
        if not isinstance(decision, dict) or "winner" not in decision:
            raise ServeError(
                f"record decision must be a dict with a 'winner': "
                f"{decision!r}")
        record = self.kb.put(key, dict(decision), source="client")
        self.metrics.counter("serve.records.client").inc()
        return ("ok", record)

    def _op_forget(self, key=None, corr=None) -> tuple:
        self._note_correlation(corr)
        if not isinstance(key, str):
            raise ServeError(f"forget key must be a string, got {key!r}")
        removed = self.kb.forget(key)
        return ("ok", {"removed": removed})

    def _op_stats(self, corr=None) -> tuple:
        self._note_correlation(corr)
        self._sync_derived_metrics()
        return ("ok", {
            "metrics": self.metrics.snapshot(),
            "kb": self.kb.stats(),
            "retune_breaker": self.retunes.breaker.state,
            "audit": self.audit.to_json(),
        })

    #: numeric encoding of the breaker state for gauge exposition
    _BREAKER_STATES = {"closed": 0, "half_open": 1, "open": 2}

    def _sync_derived_metrics(self) -> None:
        self.metrics.gauge("serve.kb.records").set(len(self.kb))
        self.metrics.gauge("serve.coalesced").set(self.coalescer.coalesced)
        self.metrics.gauge("serve.retune.trips").set(
            self.retunes.breaker.trips)
        self.metrics.gauge("serve.queue.depth").set(self._queue.qsize())
        self.metrics.gauge("serve.retune.breaker_state").set(
            self._BREAKER_STATES.get(self.retunes.breaker.state, -1))

    # -- compute pool -------------------------------------------------------

    def _compute_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            key, req, entry = item
            try:
                decision = self._compute(req)
                record = self.kb.put(key, decision, source="computed",
                                     request=req)
                self._after_commit()
                self.coalescer.complete(key, result=record)
            except BaseException as exc:  # noqa: BLE001 - wake waiters
                self.coalescer.complete(key, error=exc)

    def _after_commit(self) -> None:
        with self._commits_lock:
            self._commits += 1
            due = (self.config.checkpoint_every > 0
                   and self._commits % self.config.checkpoint_every == 0)
        if due:
            self.kb.checkpoint_all()
            self.metrics.counter("serve.checkpoints").inc()

    # -- drift & background re-tuning ---------------------------------------

    def _op_report(self, fields=None, seconds=None, corr=None) -> tuple:
        """A client's post-decision measurement for drift detection."""
        self._note_correlation(corr)
        if not isinstance(seconds, (int, float)) or seconds <= 0:
            raise ServeError(
                f"report needs a positive measurement, got {seconds!r}")
        req = normalize_request(fields)
        key = request_key(req)
        record = self.kb.get(key)
        if record is None or record.get("decision") is None:
            raise ServeError(f"no decision on file for {key!r}")
        self.metrics.counter("serve.drift.reports").inc()
        with self._drift_lock:
            detector = self._drift.get(key)
            if detector is None:
                baseline = record["decision"].get("mean_after_learning")
                detector = self._drift[key] = DriftDetector(
                    baseline, window=self.config.drift_window,
                    threshold=self.config.drift_threshold,
                )
        drifted = detector.update(float(seconds))
        retune_started = False
        if drifted:
            self.metrics.counter("serve.drift.detected").inc()
            retune_started = self._maybe_retune(key, record)
        return ("ok", {"drift": bool(drifted), "retune": retune_started})

    def _maybe_retune(self, key: str, record: dict) -> bool:
        if not self.retunes.try_begin(key):
            return False
        self.metrics.counter("serve.retune.started").inc()
        t = threading.Thread(target=self._retune, args=(key, record),
                             name="serve-retune", daemon=True)
        t.start()
        self._threads.append(t)
        return True

    def _retune(self, key: str, record: dict) -> None:
        """Background re-tune: recompute with a bumped epoch (a fresh
        learning phase under fresh noise) and commit a new version."""
        try:
            req = dict(record["request"] or {})
            req["epoch"] = int(req.get("epoch", 0)) + 1
            req = normalize_request(req)
            decision = self._compute(req)
            self.kb.put(key, decision, source="retune", request=req)
            with self._drift_lock:
                self._drift.pop(key, None)  # fresh baseline from here on
            self._after_commit()
            self.metrics.counter("serve.retune.ok").inc()
            self.retunes.finish(key, ok=True)
        except BaseException as exc:  # noqa: BLE001 - breaker learns
            self.metrics.counter("serve.retune.failed").inc()
            self.audit.defect("serve.retune", key,
                              f"background re-tune failed: "
                              f"{type(exc).__name__}: {exc}")
            self.retunes.finish(key, ok=False)
