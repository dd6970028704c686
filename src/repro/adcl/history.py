"""Historic learning: persist tuning decisions across executions (§IV-B).

The paper points out that for short-running applications the learning
phase can eat the gains, and mentions ADCL's *historic learning* feature
— transferring the winner of a previous execution so the next run skips
(or shortens) the tuning phase.  :class:`HistoryStore` is a small JSON
key-value store holding one record per problem signature::

    {"ialltoall@crill:alltoall:P32:B131072:R0":
        {"winner": "pairwise", "decided_at": 15}}

Keys combine the function-set name, the platform, the collective kind,
the process count, the message size and the root (:func:`history_key`,
the one builder every component uses), so a record only ever
short-circuits the *same* tuning problem.

:class:`JsonRecordFile` is the persistence both this store and the
checkpoint store (:mod:`repro.adcl.checkpoint`) use: one JSON object of
records, merged under a cross-process lock and written atomically.
"""

from __future__ import annotations

import json
import os
from typing import Optional, Protocol, runtime_checkable

from ..errors import HistoryError
from ..util.locks import FileLock

__all__ = [
    "HistoryLike",
    "HistoryStore",
    "JsonRecordFile",
    "atomic_write_json",
    "history_key",
]


def history_key(fnset_name: str, platform: str, kind: str, nprocs: int,
                nbytes: int, root: int) -> str:
    """Key of one tuning problem's record in a history store:
    ``fnset@platform:kind:P<nprocs>:B<nbytes>:R<root>``."""
    return f"{fnset_name}@{platform}:{kind}:P{nprocs}:B{nbytes}:R{root}"


@runtime_checkable
class HistoryLike(Protocol):
    """The duck interface :class:`~repro.adcl.request.ADCLRequest`
    expects of its ``history`` argument.

    Anything that answers ``lookup``/``record``/``forget`` works — the
    local JSON :class:`HistoryStore`, or the tuning daemon's
    :class:`~repro.serve.client.ServiceHistory` adapter, which turns
    every request into a stateless worker over the shared knowledge
    base.
    """

    def lookup(self, key: str) -> Optional[str]: ...

    def record(self, key: str, winner: str, decided_at: int) -> None: ...

    def forget(self, key: str) -> None: ...


def atomic_write_json(path: str, obj) -> None:
    """Crash-safe JSON write: unique temp file, fsync, atomic rename.

    A reader (or a restarted process) either sees the previous complete
    file or the new complete file — never a torn write.  The temp name
    embeds the writer's PID so two processes updating the same store
    cannot trample each other's in-progress temp file, and the data is
    fsync'd before the rename so a machine crash cannot leave a renamed
    but empty file.  The directory fsync (best-effort) persists the
    rename itself.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=1, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    try:
        dfd = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # platform without directory fds: rename is still atomic
    try:
        os.fsync(dfd)
    except OSError:
        pass
    finally:
        os.close(dfd)


class JsonRecordFile:
    """One JSON object of records, shared safely between processes.

    ``path=None`` keeps the records in memory only.  An unreadable or
    malformed file raises :attr:`error`; with ``strict=False`` it is
    instead moved aside to ``<path>.corrupt`` and the records start
    empty (:attr:`recovered_from` holds the backup path).  Subclasses
    set :attr:`error` and :attr:`label`.
    """

    #: exception raised for an unreadable or malformed file
    error: type
    #: what the file holds, for error messages
    label: str
    #: seconds a writer waits for the cross-process lock before falling
    #: back to an unmerged write (the pre-lock last-writer-wins behavior)
    LOCK_TIMEOUT_S = 5.0

    def __init__(self, path: Optional[str] = None, strict: bool = True):
        self.path = path
        self.strict = strict
        #: backup location of a corrupt file recovered in non-strict mode
        self.recovered_from: Optional[str] = None
        self._records: dict[str, dict] = {}
        if path is not None and os.path.exists(path):
            self._load()

    def _load(self) -> None:
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise self.error(
                    f"{self.label} {self.path!r} is not a JSON object"
                )
        except (OSError, json.JSONDecodeError, self.error) as exc:
            if self.strict:
                if isinstance(exc, self.error):
                    raise
                raise self.error(
                    f"cannot read {self.label} {self.path!r}: {exc}"
                ) from exc
            backup = f"{self.path}.corrupt"
            try:
                os.replace(self.path, backup)
                self.recovered_from = backup
            except OSError:
                pass  # unreadable *and* unmovable: just start empty
            self._records = {}
            return
        self._records = data

    def _save(self, touched: str) -> None:
        """Persist under the cross-process lock, merging the on-disk
        state first.

        Two processes sharing one file used to lose records: each held
        its own in-memory copy and the last ``atomic_write_json`` won,
        silently dropping the other's records.  Writers now serialize
        on a :class:`~repro.util.locks.FileLock` (dead-holder and stale
        locks are broken) and replay the *current* file contents before
        applying their own change, so concurrent processes interleave
        instead of clobbering.  Only the touched key is forced to this
        writer's view (present, or absent after a removal) — foreign
        keys on disk are preserved verbatim.
        """
        if self.path is None:
            return
        lock = FileLock(self.path)
        locked = lock.acquire(timeout=self.LOCK_TIMEOUT_S)
        try:
            if locked:
                disk = self._read_disk()
                if disk is not None:
                    for key, rec in disk.items():
                        if key != touched and key not in self._records:
                            self._records[key] = rec
            atomic_write_json(self.path, self._records)
        finally:
            if locked:
                lock.release()

    def _read_disk(self) -> Optional[dict]:
        """Best-effort read of the current file (None when unreadable)."""
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        return data if isinstance(data, dict) else None

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records


class HistoryStore(JsonRecordFile):
    """JSON-backed winner cache.

    Parameters
    ----------
    path:
        File to persist to.  ``None`` keeps the store in memory only
        (useful in tests and single-process experiments).
    strict:
        With ``strict=True`` (default) an unreadable or malformed store
        raises :class:`~repro.errors.HistoryError`.  With
        ``strict=False`` the corrupt file is moved aside to
        ``<path>.corrupt`` and the store starts empty — a tuning run
        should degrade to re-learning, not die, when a crash or a
        concurrent writer mangled its cache.  :attr:`recovered_from`
        holds the backup path when that happened.
    """

    error = HistoryError
    label = "history store"

    # ------------------------------------------------------------------

    def lookup(self, key: str) -> Optional[str]:
        """Winner function name recorded for ``key``, if any."""
        rec = self._records.get(key)
        return None if rec is None else rec.get("winner")

    def record(self, key: str, winner: str, decided_at: int) -> None:
        """Store (and persist) a tuning decision."""
        self._records[key] = {"winner": winner, "decided_at": decided_at}
        self._save(key)

    def forget(self, key: str) -> None:
        """Drop one record (no-op when absent)."""
        if self._records.pop(key, None) is not None:
            self._save(key)
