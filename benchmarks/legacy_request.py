# The seed-revision snapshot of repro.nbc.request, kept verbatim for A/B
# benchmarking by test_perf_engine.py. Only imports were adapted
# (absolute paths; the seed event loop comes from legacy_engine; the
# seed's ``resolve`` from repro.nbc.schedule now lives here, its last
# user), and the constructor takes the ``peers`` table today's
# schedules name their peers through (a send/recv on slot s targets
# ``peers[s]``).
# Do not "improve" this file.
"""Execution of collective schedules: the NBC request & progress engine.

An :class:`NBCRequest` executes a :class:`~repro.nbc.schedule.Schedule`
incrementally, exactly like a LibNBC handle:

* :meth:`NBCRequest.start` posts round 0,
* each call to :meth:`NBCRequest.progress` (from an explicit progress
  syscall, or continuously while the rank blocks in ``Wait``) checks
  whether the current round finished locally and, if so, posts the next
  round,
* the request is :attr:`~repro.sim.process.Waitable.done` once the last
  round completed.

Because round advancement needs the owning rank's CPU, a rank that
computes without progressing leaves its schedule stalled after the first
round — the paper's central observation about non-blocking collectives
in single-threaded MPI libraries.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ScheduleError
from repro.sim.mpi import MPIContext, SimComm
from repro.sim.process import RecvRequest, Waitable
from repro.nbc.schedule import BufSpec, Schedule

__all__ = ["NBCRequest", "make_buffers"]


def resolve(buffers: Optional[dict], spec: Optional[BufSpec]) -> Optional[np.ndarray]:
    """Resolve a :data:`BufSpec` to a ``uint8`` view, or None in size-only mode."""
    if buffers is None or spec is None:
        return None
    name, offset, nbytes = spec
    try:
        buf = buffers[name]
    except KeyError:
        raise ScheduleError(f"schedule references unknown buffer {name!r}") from None
    if buf is None:
        return None
    view = buf[offset : offset + nbytes]
    if view.nbytes != nbytes:
        raise ScheduleError(
            f"buffer {name!r} too small: need [{offset}:{offset + nbytes}), "
            f"have {buf.nbytes} bytes"
        )
    return view


def make_buffers(**arrays) -> dict[str, Optional[np.ndarray]]:
    """Build a schedule buffer dict from named arrays.

    Arrays of any dtype are accepted and stored as flat ``uint8`` views
    (so schedule byte-range specs apply uniformly); ``None`` values are
    kept as placeholders.

    >>> bufs = make_buffers(send=np.zeros(4), recv=np.zeros(4))
    >>> bufs["send"].dtype
    dtype('uint8')
    """
    out: dict[str, Optional[np.ndarray]] = {}
    for name, arr in arrays.items():
        if arr is None:
            out[name] = None
        else:
            if not isinstance(arr, np.ndarray):
                arr = np.asarray(arr)
            if not arr.flags["C_CONTIGUOUS"]:
                raise ScheduleError(f"buffer {name!r} must be C-contiguous")
            out[name] = arr.reshape(-1).view(np.uint8)
    return out


class NBCRequest(Waitable):
    """A non-blocking collective in flight.

    Parameters
    ----------
    schedule:
        The per-rank schedule to execute.
    comm:
        Communicator the collective runs on.
    local_rank:
        This process's rank within ``comm``.
    buffers:
        Optional buffer dict (see :func:`make_buffers`); ``None`` runs
        the schedule size-only.
    """

    __slots__ = (
        "schedule",
        "comm",
        "local_rank",
        "peers",
        "buffers",
        "tag_base",
        "start_time",
        "complete_time",
        "_round",
        "_pending",
        "_started",
    )

    def __init__(
        self,
        schedule: Schedule,
        comm: SimComm,
        local_rank: int,
        peers: tuple,
        buffers: Optional[dict] = None,
    ):
        super().__init__()
        self.schedule = schedule
        self.comm = comm
        self.local_rank = local_rank
        self.peers = peers
        self.buffers = buffers
        self.tag_base = -1
        self.start_time: Optional[float] = None
        self.complete_time: Optional[float] = None
        self._round = 0
        self._pending = 0
        self._started = False

    # ------------------------------------------------------------------

    def start(self, ctx: MPIContext) -> "NBCRequest":
        """Post the first round (the `*_init` of a persistent operation)."""
        if self._started:
            raise ScheduleError("NBCRequest.start() called twice")
        self._started = True
        self.start_time = ctx.now
        self.tag_base = self.comm.next_coll_tag(
            self.local_rank, self.schedule.tag_span
        )
        if not self.schedule.rounds:
            self.done = True
            self.complete_time = ctx.now
            return self
        self._post_round(ctx)
        self._advance(ctx)
        return self

    def progress(self, ctx: MPIContext) -> bool:
        """Advance the schedule as far as local completions allow.

        Returns True when the request is complete.
        """
        if not self._started:
            raise ScheduleError("progress() before start()")
        self._advance(ctx)
        return self.done

    # ------------------------------------------------------------------

    def _advance(self, ctx: MPIContext) -> None:
        while not self.done and self._pending == 0:
            self._round += 1
            if self._round >= len(self.schedule.rounds):
                self.done = True
                self.complete_time = ctx.now
                notify = self._notify
                if notify is not None:
                    notify(self, ctx.now)
                return
            self._post_round(ctx)

    def _post_round(self, ctx: MPIContext) -> None:
        ops = self.schedule.rounds[self._round]
        buffers = self.buffers
        # guard: eager sends / instantly-matched recvs fire their notify
        # synchronously inside the post call; the sentinel keeps _pending
        # positive until every op of the round has been posted
        self._pending += 1
        for op in ops:
            kind = op.kind
            if kind == "send":
                self._pending += 1
                data = resolve(buffers, op.src)
                ctx.isend(
                    self.peers[op.peer],
                    nbytes=op.nbytes,
                    tag=self.tag_base + op.tagoff,
                    comm=self.comm,
                    data=data,
                    notify=self._child_done,
                )
            elif kind == "recv":
                self._pending += 1
                dst = resolve(buffers, op.dst)
                if dst is None:
                    notify = self._child_done
                else:
                    notify = self._make_recv_notify(dst)
                ctx.irecv(
                    self.peers[op.peer],
                    nbytes=op.nbytes,
                    tag=self.tag_base + op.tagoff,
                    comm=self.comm,
                    notify=notify,
                )
            elif kind == "copy":
                ctx.charge_copy(op.nbytes)
                src = resolve(buffers, op.src)
                dst = resolve(buffers, op.dst)
                if src is not None and dst is not None:
                    dst[:] = src
            elif kind == "combine":
                # a combine reads + writes the destination: ~2 copies of CPU
                ctx.charge_copy(2 * op.nbytes)
                src = resolve(buffers, op.src)
                dst = resolve(buffers, op.dst)
                if src is not None and dst is not None:
                    op.apply(src, dst)
            else:  # pragma: no cover - schedule.validate() prevents this
                raise ScheduleError(f"unknown op kind {kind!r}")
        self._pending -= 1

    def _make_recv_notify(self, dst_view: np.ndarray):
        def notify(req: RecvRequest, t: float) -> None:
            if req.data is not None:
                dst_view[:] = req.data
            self._pending -= 1

        return notify

    def _child_done(self, req: Waitable, t: float) -> None:
        self._pending -= 1

    # ------------------------------------------------------------------

    @property
    def current_round(self) -> int:
        """Index of the round currently in flight (for tests/tracing)."""
        return self._round

    def __repr__(self) -> str:  # pragma: no cover
        state = "done" if self.done else f"round {self._round}"
        return f"<NBCRequest {self.schedule.name!r} {state}>"
