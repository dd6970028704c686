"""Tuning-as-a-service: a crash-safe knowledge daemon and its clients.

The survey's "persistent tuning database" grown into a service: one
long-lived daemon (:mod:`repro.serve.server`) owns a sharded,
WAL-backed knowledge base of tuning decisions
(:mod:`repro.serve.shards`), answers exact-hit lookups and
nearest-geometry warm starts, coalesces identical in-flight requests,
sheds load explicitly when saturated, and re-tunes in the background
when clients report drift.  Clients (:mod:`repro.serve.client`) carry
timeouts, backoff and a circuit breaker — and when the daemon is gone
they compute the **bit-identical** decision locally, because both
sides share :func:`repro.serve.core.compute_decision` over the
deterministic simulator.

See DESIGN.md §13 for the WAL format, shard layout, degradation
ladder and failure matrix.
"""

from .breaker import CircuitBreaker, RetuneScheduler
from .client import ServiceHistory, TuningClient
from .coalesce import Coalescer
from .core import (
    REQUEST_DEFAULTS,
    compute_decision,
    history_key,
    normalize_request,
    request_key,
)
from .server import PROTOCOL_VERSION, ServeConfig, TuningServer
from .shards import KnowledgeBase, Shard
from .wal import WriteAheadLog, replay_wal

__all__ = [
    "CircuitBreaker",
    "Coalescer",
    "KnowledgeBase",
    "PROTOCOL_VERSION",
    "REQUEST_DEFAULTS",
    "RetuneScheduler",
    "ServeConfig",
    "ServiceHistory",
    "Shard",
    "TuningClient",
    "TuningServer",
    "WriteAheadLog",
    "compute_decision",
    "history_key",
    "normalize_request",
    "replay_wal",
    "request_key",
]
