"""Checkpointed tuning state: survive process failures without re-learning.

The tuner's most valuable asset is the measurement record it has
accumulated — losing it to a crash means paying the whole learning
phase again (§IV-B makes the same argument for historic learning across
*executions*; this module makes it within one execution interrupted by
a process failure).

The design is event sourcing: :class:`~repro.adcl.request.ADCLRequest`
journals every tuning event (implementation picked for an iteration,
aggregated measurement fed, candidate quarantined).  A *snapshot* is the
journal plus enough metadata to validate compatibility; *restore*
replays the journal through the live code paths of a freshly built
request, reconstructing the selection state bit-identically — including
stateful selectors such as the heuristic one, whose internals are
reproduced by re-running them, not by serializing them.

The journal length is the request's **decision epoch**; a warm start
reports the epoch it restored.

:class:`CheckpointStore` persists snapshots keyed by problem signature
in one JSON file through the history store's
:class:`~repro.adcl.history.JsonRecordFile` (merge under a cross-process
lock, unique temp file + fsync + atomic rename) — a crash
mid-checkpoint must never destroy the previous good checkpoint.
"""

from __future__ import annotations

from typing import Optional

from ..errors import AdclError, CheckpointError
from .history import JsonRecordFile
from .request import ADCLRequest

__all__ = ["CheckpointStore", "snapshot", "restore"]

#: snapshot format version (bump on incompatible layout changes)
FORMAT = 1


def snapshot(areq: ADCLRequest) -> dict:
    """Serializable snapshot of a request's tuning state.

    Captures the event journal and the identity of the tuning problem;
    deliberately excludes live per-simulation state (in-flight handles,
    timers), which is never restorable across a crash.
    """
    return {
        "format": FORMAT,
        "fnset": areq.fnset.name,
        "functions": [f.name for f in areq.fnset],
        "signature": areq.spec.signature(),
        "epoch": areq.epoch,
        "journal": areq.journal_events(),
    }


def restore(areq: ADCLRequest, snap: dict) -> int:
    """Replay a snapshot into a freshly built request; returns the epoch.

    ``areq`` must be epoch-0 and built with the same function-set and
    selector configuration that produced the snapshot.  The problem
    *signature* is allowed to differ — that is the point: after a crash
    the survivors rebuild the request on a smaller communicator, then
    restore the tuning knowledge gathered on the original one.
    """
    if not isinstance(snap, dict):
        raise CheckpointError(f"snapshot is not a mapping: {type(snap).__name__}")
    if snap.get("format") != FORMAT:
        raise CheckpointError(
            f"unsupported checkpoint format {snap.get('format')!r}"
        )
    if snap.get("fnset") != areq.fnset.name:
        raise CheckpointError(
            f"checkpoint is for function-set {snap.get('fnset')!r}, "
            f"request uses {areq.fnset.name!r}"
        )
    names = [f.name for f in areq.fnset]
    if snap.get("functions") != names:
        raise CheckpointError(
            "checkpoint candidate list does not match the request's "
            f"function-set: {snap.get('functions')!r} vs {names!r}"
        )
    journal = snap.get("journal")
    if not isinstance(journal, list):
        raise CheckpointError("checkpoint journal is missing or malformed")
    try:
        areq.replay(journal)
    except AdclError as exc:
        if isinstance(exc, CheckpointError):
            raise
        raise CheckpointError(f"checkpoint replay failed: {exc}") from exc
    return areq.epoch


class CheckpointStore(JsonRecordFile):
    """JSON-file store of tuning-state snapshots, keyed by caller.

    Parameters
    ----------
    path:
        File to persist to.  ``None`` keeps checkpoints in memory only
        (a restart within the same process can still restore them).
        An unreadable store raises :class:`~repro.errors.CheckpointError`.
    """

    error = CheckpointError
    label = "checkpoint store"

    def __init__(self, path: Optional[str] = None):
        #: number of snapshots written through this store (telemetry)
        self.writes = 0
        super().__init__(path)

    def save(self, key: str, snap: dict) -> None:
        """Store (and persist) one snapshot under ``key``; writers
        sharing one file merge each other's keys
        (:meth:`~repro.adcl.history.JsonRecordFile._save`)."""
        self._records[key] = snap
        self.writes += 1
        self._save(key)

    def load(self, key: str) -> Optional[dict]:
        """The stored snapshot for ``key``, or ``None``."""
        return self._records.get(key)

    def epoch(self, key: str) -> int:
        """Epoch of the stored snapshot (0 when absent)."""
        snap = self._records.get(key)
        if not snap:
            return 0
        return int(snap.get("epoch", 0))
