"""Discrete-event simulation kernel.

A :class:`Simulator` is a minimal, deterministic event loop over virtual
time.  Events are kept in a binary heap of ``(time, seq, fn, args)``
tuples; ties on time are broken by insertion order (``seq``) so runs are
fully reproducible.  Using plain tuples as heap entries keeps every heap
comparison in C — ``fn`` and ``args`` are never compared during
``heappush``/``heappop`` because ``seq`` is unique.

The kernel knows nothing about MPI, ranks or networks — those live in
:mod:`repro.sim.mpi` and friends and drive the simulator through
:meth:`Simulator.post` and :meth:`Simulator.post_join`.

Fast-path invariants (see DESIGN.md §10)
----------------------------------------
* One entry shape: ``(time, seq, fn, args)``, where ``fn`` may be the
  ``_COHORT`` marker of a coalesced entry (see the joins below).  An
  event cannot be cancelled once scheduled, so the loop never skips an
  entry and the heap never needs rebuilding.
* ``pending()`` is O(1): ``len(heap)`` plus the events that share
  another's entry.
* The dispatch loop binds its hot names to locals and pops before it
  looks: an entry past the ``until`` horizon is pushed back, which
  leaves the ``(time, seq)`` order untouched.  Event order is
  bit-identical to the straightforward peek/pop loop.  ``run(until)``
  and :meth:`Simulator.halt` are the only stop conditions.
* **Inline-post protocol** for trusted drivers: a caller that can prove
  ``time >= now`` for every event it schedules may push
  ``(time, next(sim._seq), fn, args)`` onto ``sim._heap`` directly,
  skipping the :meth:`post` call entirely; nothing else needs updating.
  ``_heap`` is never rebound, so a cached reference stays valid for the
  simulator's lifetime.  The MPI layer uses this for its message events.
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
  and ``heap_size`` counts members, so no observable counter changes.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional

from ..errors import SimulationError
from ..obs.recorder import get_recorder as _get_recorder

__all__ = ["Simulator"]

_heappush = heapq.heappush
_heappop = heapq.heappop

#: element 2 of a coalesced entry ``(time, seq, _COHORT, members)``
_COHORT = object()

#: the member iterator while no coalesced entry is dispatching
_NO_COHORT = iter(())


class Simulator:
    """Deterministic virtual-time event loop; the clock starts at 0."""

    def __init__(self):
        self._now = 0.0
        #: heap of ``(time, seq, fn, args)`` entries, ``fn`` possibly
        #: ``_COHORT`` (tuples compare in C; element 2 is never compared)
        self._heap: list[tuple] = []
        self._seq = itertools.count()
        self._running = False
        #: cooperative stop flag checked once per dispatched event; set
        #: by :meth:`halt` from inside a callback
        self._halted = False
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
        #: Updated exactly at loop exit by :meth:`run`; read it after
        #: the loop returns.
        self.events_dispatched = 0
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

    def post(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``.

        Scheduling in the past raises :class:`SimulationError` — it is
        always a logic bug in the caller.
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

        Costs the loop an attribute read per event.  The flag is
        cleared on the next :meth:`run`.
        """
        self._halted = True

    def pending(self) -> int:
        """Number of events still queued: the size the heap would have
        if every event had its own entry.  O(1)."""
        return (len(self._heap) + self._joined
                + self._cohort.__length_hint__())

    def stats(self) -> dict:
        """Kernel observability counters (cheap; safe to poll)."""
        pending = self.pending()
        return {
            "events_dispatched": self.events_dispatched,
            "pending": pending,
            "heap_size": pending,
            # nothing is cancelled, so the heap is never rebuilt; the key
            # stays for the trace and metrics readers that report it
            "compactions": 0,
            "batched_syscalls": self.batched_syscalls,
        }

    # ------------------------------------------------------------------ run

    def _run_cohort(self, entry: tuple) -> int:
        """Dispatch a coalesced entry's members in order; return how many ran.

        ``_now`` is set before each member (the MPI fast lane moves it
        forward) and ``pending()`` stays exact between members: the
        member iterator counts the ones not yet run.  :meth:`halt` stops
        it between members and leaves ``_halted`` set for :meth:`run`;
        members not yet run, also after an exception, go back under the
        same key.
        """
        time = entry[0]
        members = entry[3]
        self._joined -= len(members) - 1
        self._cohort = it = iter(members)
        try:
            for fn, args in it:
                self._now = time
                fn(*args)
                if self._halted:
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

    def run(self, until: Optional[float] = None) -> float:
        """Run the event loop until the queue drains or :meth:`halt`.

        Parameters
        ----------
        until:
            Optional virtual-time horizon; the loop stops *before*
            dispatching any event later than this.

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
            cohort = _COHORT
            run_cohort = self._run_cohort
            # pop first: an entry past the horizon is pushed back, which
            # restores the same (time, seq) order — cheaper than peeking
            # at heap[0] before every dispatch
            while heap:
                entry = pop(heap)
                time = entry[0]
                if time > until_f:
                    _heappush(heap, entry)
                    self._now = until
                    # the clock may move back here, so "time > now" no
                    # longer proves that the open entry is still queued
                    self._open_seq = -2
                    break
                fn = entry[2]
                if fn is cohort:
                    dispatched += run_cohort(entry)
                else:
                    self._now = time
                    dispatched += 1
                    fn(*entry[3])
                if self._halted:
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
            stats = self.stats()
            rec.instant("engine", "run", -1, self._now,
                        {"dispatched": dispatched, "pending": stats["pending"],
                         "heap_size": stats["heap_size"],
                         "compactions": stats["compactions"],
                         "batched_syscalls": self.batched_syscalls})
            if self.batched_syscalls:
                rec.instant("engine", "fastlane.batch", -1, self._now,
                            {"batched_syscalls": self.batched_syscalls})
            # fold the kernel counters into the registry as gauges: stats
            # are cumulative, so last-write-wins is the aggregation that
            # stays truthful
            for field, value in stats.items():
                rec.metrics.gauge(f"engine.{field}").set(value)
        return self._now
