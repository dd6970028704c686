"""Discrete-event simulation kernel.

A :class:`Simulator` is a minimal, deterministic event loop over virtual
time.  Events are kept in a binary heap of ``(time, seq, ...)`` tuples;
ties on time are broken by insertion order (``seq``) so runs are fully
reproducible.  Using plain tuples as heap entries keeps every heap
comparison in C — payloads are never compared during
``heappush``/``heappop`` because ``seq`` is unique.

The kernel knows nothing about MPI, ranks or networks — those live in
:mod:`repro.sim.mpi` and friends and drive the simulator through
:meth:`Simulator.at` / :meth:`Simulator.after` /
:meth:`Simulator.post`.

Fast-path invariants (see DESIGN.md §10)
----------------------------------------
* Two scheduling entry points share one heap: :meth:`at` returns a
  cancellable :class:`Event` handle (entry ``(time, seq, Event)``);
  :meth:`post` returns nothing and allocates nothing but the heap tuple
  ``(time, seq, fn, args)`` — the right call when the caller discards
  the handle, which is every hot-path event the MPI layer schedules.
  Both draw from the same ``seq`` counter, so their relative order is
  exactly insertion order regardless of which entry point was used.
* ``pending()`` is O(1): ``len(heap)`` minus a count of cancelled
  entries still in the heap, plus the events that share another's entry
  (see the joins below).  Only :meth:`Event.cancel`, the lazy skip of a
  cancelled entry and compaction touch the cancelled count, so
  scheduling and dispatching a live event do no bookkeeping for it.
* Cancelled events are lazily deleted; when more than half of a
  non-trivial heap is cancelled the heap is *compacted* (rebuilt without
  the dead entries).  Compaction never changes the dispatch order:
  entries are totally ordered by ``(time, seq)`` and only entries that
  would have been skipped anyway are removed.
* The dispatch loop binds its hot names to locals and pops before it
  looks: an entry past the ``until`` horizon is pushed back, which
  leaves the ``(time, seq)`` order untouched.  Event order is
  bit-identical to the straightforward peek/pop loop.
* **Inline-post protocol** for trusted drivers: a caller that can prove
  ``time >= now`` for every event it schedules may push
  ``(time, next(sim._seq), fn, args)`` onto ``sim._heap`` directly,
  skipping the :meth:`post` call entirely; nothing else needs updating.
  ``_heap`` is only ever mutated in place (see :meth:`_compact`), so a
  cached reference stays valid for the simulator's lifetime.  The MPI
  layer uses this for its message events.
* **Same-instant joins** (:meth:`post_join`): the same trusted drivers
  schedule rank continuations through :meth:`post_join`, which may
  *join* the heap entry the previous push created instead of pushing
  its own.  It joins only when the seq it draws is exactly one past the
  previous push's seq (nothing was scheduled in between, through any
  entry point), its time equals that entry's time, and that time is
  after ``now`` (so the entry cannot have been popped yet).  In the
  plain heap the two entries would then be adjacent in ``(time, seq)``
  order, and anything pushed later draws a larger seq, so they would pop
  back to back anyway: a coalesced entry
  ``(time, seq, _COHORT, [(fn, args), ...])`` dispatches its members in
  order and the event order is bit-identical.  The joining seq is simply
  spent.  Each member counts as one dispatched and one pending event,
  and ``heap_size`` and the compaction threshold count members, so no
  observable counter changes.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional

from ..errors import SimulationError
from ..obs.recorder import get_recorder as _get_recorder

__all__ = ["Simulator", "Event"]

_heappush = heapq.heappush
_heappop = heapq.heappop

#: heap size below which compaction is never attempted (rebuilds of tiny
#: heaps cost more than the lazy skips they save)
_COMPACT_MIN_HEAP = 64

#: element 2 of a coalesced entry ``(time, seq, _COHORT, members)``
_COHORT = object()

#: the member iterator while no coalesced entry is dispatching
_NO_COHORT = iter(())


class Event:
    """Handle to a scheduled callback.

    Supports cancellation: a cancelled event stays in the heap but is
    skipped when popped (lazy deletion), which keeps cancellation O(1).
    The owning simulator counts the cancelled entry so ``pending()``
    stays exact; once an event has been dispatched the back-reference
    is dropped and a late ``cancel()`` only sets the flag.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sim")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple,
                 sim: Optional["Simulator"] = None):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            self._sim = None
            sim._cancelled += 1
            # logical size, so compaction fires exactly where it would
            # in a heap without joins
            nheap = sim._queued()
            if nheap > _COMPACT_MIN_HEAP and sim._cancelled * 2 > nheap:
                sim._compact()

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.9f} seq={self.seq}{state} {self.fn!r}>"


class Simulator:
    """Deterministic virtual-time event loop.

    Parameters
    ----------
    start_time:
        Initial value of the virtual clock (seconds).
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        #: heap of ``(time, seq, Event)`` / ``(time, seq, fn, args)`` /
        #: ``(time, seq, _COHORT, members)`` entries (tuples compare in
        #: C; element 2 is never compared)
        self._heap: list[tuple] = []
        self._seq = itertools.count()
        self._running = False
        #: cooperative stop flag checked once per dispatched event; set
        #: by :meth:`halt` from inside a callback (cheaper than a
        #: ``stop_when`` predicate, which costs a call per event)
        self._halted = False
        #: cancelled entries still in the heap (lazily deleted)
        self._cancelled = 0
        #: the entry the last :meth:`post_join` push created or joined:
        #: its last seq, its time and its member list
        self._open_seq = -2
        self._open_time = 0.0
        self._open_members: list = []
        #: queued events that share another event's heap entry; the
        #: members of the dispatching entry not yet run are counted by
        #: its iterator instead
        self._joined = 0
        self._cohort = _NO_COHORT
        #: events that joined an existing heap entry instead of pushing
        #: their own (observability; the ``--stats`` footer prints it)
        self.coalesced = 0
        #: number of events dispatched so far (observability / tests).
        #: Updated exactly at loop exit by :meth:`run` (and per event by
        #: :meth:`step`); read it after the loop returns.
        self.events_dispatched = 0
        #: number of heap compactions performed (observability / tests)
        self.compactions = 0
        #: syscalls the MPI layer's fast lane processed inline instead of
        #: through a heap event (see DESIGN.md §15); the lane adds the
        #: matching count to :attr:`events_dispatched` so the observable
        #: event total stays identical to the object-mode engine
        self.batched_syscalls = 0

    # ------------------------------------------------------------------ API

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``.

        Scheduling in the past raises :class:`SimulationError` — it is
        always a logic bug in the caller.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time!r} in the past (now={self._now!r})"
            )
        seq = next(self._seq)
        ev = Event(time, seq, fn, args, self)
        heapq.heappush(self._heap, (time, seq, ev))
        return ev

    def after(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.at(self._now + delay, fn, *args)

    def post(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at ``time`` with no cancellation handle.

        The fire-and-forget fast path: semantically identical to
        :meth:`at` with the returned :class:`Event` discarded, but
        allocates only the heap tuple.  The simulation's internal
        machinery schedules hundreds of thousands of events per run and
        never cancels them, so it uses this entry point.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time!r} in the past (now={self._now!r})"
            )
        _heappush(self._heap, (time, next(self._seq), fn, args))

    def post_join(self, time: float, fn: Callable[..., Any], args: tuple) -> None:
        """Schedule ``fn(*args)`` at ``time``, sharing the previous
        push's heap entry when that is exact (see the module docstring).

        For trusted drivers only: ``time >= now`` is not checked.
        """
        seq = next(self._seq)
        if (seq == self._open_seq + 1 and time == self._open_time
                and time > self._now):
            self._open_members.append((fn, args))
            self._joined += 1
            self.coalesced += 1
        else:
            members = [(fn, args)]
            _heappush(self._heap, (time, seq, _COHORT, members))
            self._open_time = time
            self._open_members = members
        self._open_seq = seq

    def halt(self) -> None:
        """Stop the running loop after the current event's callback.

        Equivalent to a ``stop_when`` predicate that flips to ``True``,
        but costs an attribute read per event instead of a call.  The
        flag is cleared on the next :meth:`run`.
        """
        self._halted = True

    def _queued(self) -> int:
        """Queued events, cancelled shells included: the size the heap
        would have if every event had its own entry."""
        return (len(self._heap) + self._joined
                + self._cohort.__length_hint__())

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.  O(1)."""
        return self._queued() - self._cancelled

    def stats(self) -> dict:
        """Kernel observability counters (cheap; safe to poll)."""
        return {
            "events_dispatched": self.events_dispatched,
            "pending": self.pending(),
            "heap_size": self._queued(),
            "compactions": self.compactions,
            "batched_syscalls": self.batched_syscalls,
        }

    # ------------------------------------------------------------------ heap

    def _compact(self) -> None:
        """Drop cancelled entries and restore the heap invariant.

        Rebuilding keeps the total order ``(time, seq)`` intact, so the
        dispatch sequence of the surviving events — including ties — is
        exactly what lazy deletion would have produced.
        """
        heap = self._heap
        # in-place: Simulator.run() holds a local reference to the list
        heap[:] = [
            entry for entry in heap
            if not (type(entry[2]) is Event and entry[2].cancelled)
        ]
        heapq.heapify(heap)
        self._cancelled = 0
        self.compactions += 1

    # ------------------------------------------------------------------ run

    def step(self) -> bool:
        """Dispatch the next live event.

        Returns ``False`` when the queue is empty, ``True`` otherwise.
        """
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            ev = entry[2]
            if ev is _COHORT:
                members = entry[3]
                fn, args = members[0]
                if len(members) > 1:
                    # the rest go back under the same key: nothing can
                    # sort between them and the member dispatched now
                    heapq.heappush(heap, (entry[0], entry[1], _COHORT,
                                          members[1:]))
                    self._joined -= 1
            elif type(ev) is Event:
                if ev.cancelled:
                    self._cancelled -= 1
                    continue
                ev._sim = None
                fn, args = ev.fn, ev.args
            else:
                fn, args = ev, entry[3]
            self._now = entry[0]
            self.events_dispatched += 1
            fn(*args)
            return True
        return False

    def _run_cohort(self, entry: tuple,
                    stop_when: Optional[Callable[[], bool]]) -> int:
        """Dispatch a coalesced entry's members in order; return how many ran.

        ``_now`` is set before each member (the MPI fast lane moves it
        forward) and ``pending()`` stays exact between members: the
        member iterator counts the ones not yet run.  :meth:`halt` or
        ``stop_when`` stop it between members and leave ``_halted`` set
        for :meth:`run`; members not yet run, also after an exception,
        go back under the same key.
        """
        time = entry[0]
        members = entry[3]
        self._joined -= len(members) - 1
        self._cohort = it = iter(members)
        try:
            if stop_when is None:
                for fn, args in it:
                    self._now = time
                    fn(*args)
                    if self._halted:
                        break
            else:
                for fn, args in it:
                    self._now = time
                    fn(*args)
                    if self._halted or stop_when():
                        self._halted = True
                        break
        except BaseException:
            self.events_dispatched += len(members) - it.__length_hint__()
            raise
        finally:
            self._cohort = _NO_COHORT
            rest = it.__length_hint__()
            if rest:
                _heappush(self._heap,
                          (time, entry[1], _COHORT, members[-rest:]))
                self._joined += rest - 1
        return len(members) - rest

    def _horizon_stop(self, entry: tuple, until: float) -> None:
        """Push back an entry past the ``until`` horizon and stop there."""
        _heappush(self._heap, entry)
        self._now = until
        # the clock may move back here, so "time > now" no longer proves
        # that the open entry is still queued
        self._open_seq = -2

    def run(
        self,
        until: Optional[float] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> float:
        """Run the event loop.

        Parameters
        ----------
        until:
            Optional virtual-time horizon; the loop stops *before*
            dispatching any event later than this.
        stop_when:
            Optional predicate evaluated after every event; the loop
            stops as soon as it returns ``True``.

        Returns
        -------
        float
            The virtual time when the loop stopped.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        self._halted = False
        dispatched = 0
        # +inf horizon keeps the per-event check a single float compare
        until_f = float("inf") if until is None else until
        try:
            heap = self._heap
            pop = _heappop
            event_cls = Event
            cohort = _COHORT
            run_cohort = self._run_cohort
            # pop first: an entry past the horizon is pushed back, which
            # restores the same (time, seq) order — cheaper than peeking
            # at heap[0] before every dispatch
            if stop_when is None:
                # the common loop: one fewer branch per dispatched event
                while heap:
                    entry = pop(heap)
                    ev = entry[2]
                    cancellable = type(ev) is event_cls
                    if cancellable and ev.cancelled:
                        self._cancelled -= 1
                        continue
                    time = entry[0]
                    if time > until_f:
                        self._horizon_stop(entry, until)
                        break
                    if ev is cohort:
                        dispatched += run_cohort(entry, None)
                        if self._halted:
                            break
                        continue
                    self._now = time
                    dispatched += 1
                    if cancellable:
                        ev._sim = None
                        ev.fn(*ev.args)
                    else:
                        ev(*entry[3])
                    if self._halted:
                        break
                else:
                    if until is not None and until > self._now:
                        self._now = until
            else:
                while heap:
                    entry = pop(heap)
                    ev = entry[2]
                    cancellable = type(ev) is event_cls
                    if cancellable and ev.cancelled:
                        self._cancelled -= 1
                        continue
                    time = entry[0]
                    if time > until_f:
                        self._horizon_stop(entry, until)
                        break
                    if ev is cohort:
                        dispatched += run_cohort(entry, stop_when)
                        if self._halted:
                            break
                        continue
                    self._now = time
                    dispatched += 1
                    if cancellable:
                        ev._sim = None
                        ev.fn(*ev.args)
                    else:
                        ev(*entry[3])
                    if self._halted:
                        break
                    if stop_when():
                        break
                else:
                    if until is not None and until > self._now:
                        self._now = until
        finally:
            self._running = False
            self.events_dispatched += dispatched
        # one instant per run() (not per event): the loop itself stays
        # recorder-free so the fast path is untouched when disabled
        rec = _get_recorder()
        if rec.enabled:
            rec.instant("engine", "run", -1, self._now,
                        {"dispatched": dispatched, "pending": self.pending(),
                         "heap_size": self._queued(),
                         "compactions": self.compactions,
                         "batched_syscalls": self.batched_syscalls})
            if self.batched_syscalls:
                rec.instant("engine", "fastlane.batch", -1, self._now,
                            {"batched_syscalls": self.batched_syscalls})
            # fold the kernel counters into the registry as gauges: stats
            # are cumulative, so last-write-wins is the aggregation that
            # stays truthful
            for field, value in self.stats().items():
                rec.metrics.gauge(f"engine.{field}").set(value)
        return self._now
