"""Request coalescing: identical in-flight requests share one computation.

The first arrival for a key becomes the **leader** and owns enqueueing
the work; every later arrival becomes a **follower** waiting on the same
entry.  One simulation, N replies — the classic thundering-herd guard
for a service whose misses cost a whole tuning run.  Exact hits never
get here: they read the knowledge base's in-memory shards.

:class:`Coalescer` is a plain thread-safe data structure with no policy
of its own; the server wires it to the admission queue and decides what
a timeout or a shed looks like on the wire.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional, Tuple

__all__ = ["Coalescer"]


class _Entry:
    """One in-flight computation: an event plus its eventual outcome."""

    __slots__ = ("event", "result", "error", "waiters")

    def __init__(self):
        self.event = threading.Event()
        self.result: Optional[Any] = None
        self.error: Optional[BaseException] = None
        self.waiters = 0


class Coalescer:
    """Deduplicate identical in-flight requests onto one computation."""

    def __init__(self):
        self._lock = threading.Lock()
        self._inflight: Dict[str, _Entry] = {}
        #: requests that piggybacked on another's computation (telemetry)
        self.coalesced = 0

    def join(self, key: str) -> Tuple[bool, _Entry]:
        """Register interest in ``key``.

        Returns ``(leader, entry)``: the leader must eventually call
        :meth:`complete` (or :meth:`abandon` if it could not even start
        the work); followers just wait on the entry.
        """
        with self._lock:
            entry = self._inflight.get(key)
            if entry is not None:
                entry.waiters += 1
                self.coalesced += 1
                return False, entry
            entry = _Entry()
            entry.waiters = 1
            self._inflight[key] = entry
            return True, entry

    def complete(self, key: str, result: Any = None,
                 error: Optional[BaseException] = None) -> None:
        """Resolve ``key``: wake every waiter with the result or error."""
        with self._lock:
            entry = self._inflight.pop(key, None)
        if entry is None:
            return
        entry.result = result
        entry.error = error
        entry.event.set()

    # ``abandon`` reads identically to an errored completion on purpose:
    # a leader that failed to enqueue must still wake its followers,
    # or a shed request would become the silent hang the daemon bans.
    abandon = complete

    @staticmethod
    def wait(entry: _Entry, timeout: float) -> Optional[Tuple[Any, Optional[BaseException]]]:
        """Wait for an entry; None when ``timeout`` elapses first."""
        if not entry.event.wait(timeout):
            return None
        return entry.result, entry.error

    def inflight(self) -> int:
        with self._lock:
            return len(self._inflight)
