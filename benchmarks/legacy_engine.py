"""The seed-revision event loop, kept verbatim for A/B benchmarking.

This is the :mod:`repro.sim.engine` implementation *before* the
performance work (tuple-keyed heap, O(1) ``pending()``, heap
compaction):

* the heap holds :class:`Event` objects directly, so every heap
  operation compares events via ``Event.__lt__`` in Python;
* ``pending()`` scans the whole heap;
* cancelled events are only ever discarded when popped.

``benchmarks/test_perf_engine.py``'s engine microbench dispatches the
same no-op events through this loop and the current one in the same
process, and asserts the current one is never slower: the loop runs in
one frame, so no call count can see it slow down.  Only the import of
``SimulationError`` was adapted (absolute instead of relative); do not
"improve" this file.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional

from repro.errors import SimulationError

__all__ = ["Simulator", "Event"]


class Event:
    """Handle to a scheduled callback.

    Supports cancellation: a cancelled event stays in the heap but is
    skipped when popped (lazy deletion), which keeps cancellation O(1).
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.9f} seq={self.seq}{state} {self.fn!r}>"


class Simulator:
    """Deterministic virtual-time event loop (seed revision)."""

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._heap: list[Event] = []
        self._seq = itertools.count()
        self._running = False
        #: number of events dispatched so far (observability / tests)
        self.events_dispatched = 0

    # ------------------------------------------------------------------ API

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time!r} in the past (now={self._now!r})"
            )
        ev = Event(time, next(self._seq), fn, args)
        heapq.heappush(self._heap, ev)
        return ev

    def after(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.at(self._now + delay, fn, *args)

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return sum(1 for ev in self._heap if not ev.cancelled)

    # ------------------------------------------------------------------ run

    def step(self) -> bool:
        """Dispatch the next live event."""
        heap = self._heap
        while heap:
            ev = heapq.heappop(heap)
            if ev.cancelled:
                continue
            self._now = ev.time
            self.events_dispatched += 1
            ev.fn(*ev.args)
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> float:
        """Run the event loop (see repro.sim.engine for the contract)."""
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        try:
            heap = self._heap
            while heap:
                ev = heap[0]
                if ev.cancelled:
                    heapq.heappop(heap)
                    continue
                if until is not None and ev.time > until:
                    self._now = until
                    break
                heapq.heappop(heap)
                self._now = ev.time
                self.events_dispatched += 1
                ev.fn(*ev.args)
                if stop_when is not None and stop_when():
                    break
            else:
                if until is not None and until > self._now:
                    self._now = until
        finally:
            self._running = False
        return self._now
