"""Rank programs, syscalls and request handles.

A *rank program* is a Python generator: it yields :class:`Compute`,
:class:`Progress` and :class:`Wait` syscalls to the simulation driver in
:mod:`repro.sim.mpi`, and calls non-blocking post operations
(:meth:`MPIContext.isend` / :meth:`MPIContext.irecv`) directly on its
context object.  This mirrors how an MPI application alternates between
computing and entering the MPI library.

Example
-------
A ping-pong rank program::

    def program(ctx):
        if ctx.rank == 0:
            req = ctx.isend(1, nbytes=1024, tag=7)
            yield Wait([req])
            rreq = ctx.irecv(1, nbytes=1024, tag=8)
            yield Wait([rreq])
        else:
            rreq = ctx.irecv(0, nbytes=1024, tag=7)
            yield Wait([rreq])
            req = ctx.isend(0, nbytes=1024, tag=8)
            yield Wait([req])

Time only advances through syscalls; everything a program does between
two yields happens "instantaneously" at the current virtual time, with
CPU costs accumulated as *debt* that is paid at the next yield.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence

__all__ = [
    "Barrier",
    "Compute",
    "ComputeProgressSpan",
    "Progress",
    "Wait",
    "SendRequest",
    "RecvRequest",
    "Waitable",
]


class Waitable:
    """Protocol for objects a program can ``Wait`` on.

    Subclasses must maintain :attr:`done` and may override
    :meth:`progress` to perform incremental work whenever the owning
    rank enters the MPI library (used by NBC schedules to advance
    rounds).

    A subclass whose :meth:`progress` has nothing to do while some of
    its own operations are in flight says so through :attr:`_pending`:
    while it is non-zero (and the handle is not done), a Progress
    charge skips the ``progress()`` call, so the method must then be a
    no-op.
    """

    __slots__ = ("done", "failed", "_notify")

    #: number of this handle's operations in flight; a non-zero value
    #: means :meth:`progress` would return at once (see above).  Handles
    #: without such operations keep this class default
    _pending = 0

    def __init__(self) -> None:
        self.done = False
        #: the exception that permanently failed this request (a dead peer,
        #: a revoked communicator), or ``None`` while it can still complete
        self.failed = None
        #: optional completion callback ``(request, time)`` used by the
        #: driver to bubble completions up to NBC schedules / waits.  It
        #: may return ``False`` to say that nothing a waiting rank can
        #: observe has changed (an NBC round still has ops in flight); the
        #: driver then skips re-evaluating that rank's wait (DESIGN.md §10)
        self._notify = None

    def progress(self, ctx: Any) -> None:
        """Advance internal state; called at every MPI-library entry."""


class SendRequest(Waitable):
    """Handle for a posted non-blocking send.

    The simulated transport's in-flight message subclasses this class,
    so a posted send is one object; its ``__init__`` sets every field,
    the :class:`Waitable` ones (``done``, ``failed``, ``_notify``, the
    optional completion callback) directly rather than through
    ``super().__init__()``, since one is built per message post.  The
    fields of this class: ``peer`` (the destination world rank),
    ``tag``, ``nbytes``, ``post_time`` (the instant the send was
    posted), ``complete_time`` (None until the send completes) and
    ``comm_id``.
    """

    __slots__ = ("peer", "tag", "nbytes", "post_time", "complete_time", "comm_id")

    def __repr__(self) -> str:  # pragma: no cover
        state = "done" if self.done else "pending"
        return f"<SendRequest to={self.peer} tag={self.tag} n={self.nbytes} {state}>"


class RecvRequest(Waitable):
    """Handle for a posted non-blocking receive.

    ``buf`` is the optional destination: a flat ``uint8`` view the
    transport copies the payload into when the receive completes, and
    never touches before (nor at all when the receive fails).  Without
    one, :attr:`data` holds the delivered payload (if the sender
    attached one) once the request is complete.  ``notify`` is set up
    as in :class:`SendRequest`.
    """

    __slots__ = ("peer", "tag", "nbytes", "post_time", "complete_time", "data",
                 "comm_id", "buf")

    def __init__(self, peer: int, tag: int, nbytes: int, post_time: float,
                 comm_id: int = 0, notify=None, buf=None):
        self.done = False
        self.failed = None
        self._notify = notify
        self.peer = peer
        self.tag = tag
        self.nbytes = nbytes
        self.post_time = post_time
        self.complete_time: Optional[float] = None
        self.data: Any = None
        self.comm_id = comm_id
        self.buf = buf

    def __repr__(self) -> str:  # pragma: no cover
        state = "done" if self.done else "pending"
        return f"<RecvRequest from={self.peer} tag={self.tag} n={self.nbytes} {state}>"


class Compute:
    """Advance this rank's clock by ``seconds`` of computation.

    The duration is perturbed by the world's noise model.  While
    computing, the rank does **not** enter the MPI library: rendezvous
    handshakes and NBC schedule rounds stall until the next
    :class:`Progress` / :class:`Wait`.
    """

    __slots__ = ("seconds",)

    def __init__(self, seconds: float):
        if seconds < 0:
            raise ValueError(f"negative compute time {seconds!r}")
        self.seconds = seconds

    def __repr__(self) -> str:  # pragma: no cover
        return f"Compute({self.seconds!r})"


class Progress:
    """One entry into the (single-threaded) MPI progress engine.

    ``handles`` are additional waitables (typically NBC requests) whose
    :meth:`Waitable.progress` should be driven during this entry — the
    simulated equivalent of calling ``NBC_Test`` / ``ADCL_Progress``.
    """

    __slots__ = ("handles",)

    def __init__(self, handles: Iterable[Waitable] = ()):
        self.handles = tuple(handles)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Progress({len(self.handles)} handles)"


class ComputeProgressSpan:
    """``count`` repetitions of ``Compute(seconds)`` then ``Progress(handles)``.

    Semantically identical to yielding the flat pair stream
    ``(Compute(seconds), Progress(handles)) * count``, and simulated
    with bit-identical charges, times and event counts.  The difference
    is mechanical: the driver steps the span internally instead of
    resuming the generator per chunk, which lets the driver's fast
    lane collapse the remainder into pure arithmetic once every handle
    has completed and nothing else distinguishes the chunks
    (DESIGN.md §15).  Overlap-style benchmark loops — the hot path of
    every sweep — should yield one span per iteration.
    """

    __slots__ = ("seconds", "handles", "count")

    def __init__(self, seconds: float, handles: Iterable[Waitable] = (),
                 count: int = 1):
        if seconds < 0:
            raise ValueError(f"negative compute time {seconds!r}")
        if count < 1:
            raise ValueError(f"span count must be >= 1, got {count!r}")
        self.seconds = seconds
        self.handles = tuple(handles)
        self.count = int(count)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"ComputeProgressSpan({self.seconds!r}, "
                f"{len(self.handles)} handles, x{self.count})")


class Barrier:
    """Idealized hard barrier: every rank resumes at the same instant.

    Unlike a message-based barrier (see ``nbc.start_ibarrier``), this
    erases all rank phase skew — every participant resumes exactly when
    the last one arrived.  Use it as measurement hygiene between timed
    benchmark iterations; real applications should use the NBC barrier.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "Barrier()"


class Wait:
    """Block until every item is complete (MPI_Waitall semantics).

    While blocked the rank spins inside the MPI library, so it reacts
    to network events immediately and continuously progresses the
    waited-on handles.
    """

    __slots__ = ("items",)

    def __init__(self, items: Sequence[Waitable] | Waitable):
        if isinstance(items, Waitable):
            items = (items,)
        self.items = tuple(items)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Wait({len(self.items)} items)"
