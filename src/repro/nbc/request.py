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

from typing import Union, Optional

import numpy as np

from ..errors import ScheduleError
from ..obs.recorder import declare
from ..sim.mpi import MPIContext, SimComm
from ..sim.process import Waitable
from .schedule import BufSpec, CompiledSchedule, Schedule

__all__ = ["NBCRequest", "make_buffers"]

_K_ROUND = declare("i", "communication", "nbc.round", "sched:O round:i ops:i")
_K_HIER_PHASE = declare("i", "communication", "nbc.hier.phase",
                        "sched:O phase:i ops:i")
_K_DONE = declare("i", "communication", "nbc.done", "sched:O rounds:i")


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


def _view(buffers: dict, spec: Optional[BufSpec]) -> Optional[np.ndarray]:
    """The ``uint8`` view ``spec`` names, unchecked (``start_plan``
    checked the buffers), or None when the op or its buffer has no data."""
    if spec is None:
        return None
    name, off, n = spec
    buf = buffers[name]
    return None if buf is None else buf[off:off + n]


class NBCRequest(Waitable):
    """A non-blocking collective in flight.

    Parameters
    ----------
    schedule:
        The schedule to execute — a mutable
        :class:`~repro.nbc.schedule.Schedule` or a cached
        :class:`~repro.nbc.schedule.CompiledSchedule` plan (all per-run
        state lives in this request, so compiled plans are freely shared
        across requests, ranks and iterations).
    comm:
        Communicator the collective runs on.
    local_rank:
        This process's rank within ``comm``.
    peers:
        The peer table: a send or receive on slot *s* targets
        communicator-local rank ``peers[s]``.  A role template binds
        this rank's ``(parent, *children)``; a per-rank plan binds
        :func:`~repro.nbc.schedule.identity_peers`.
    buffers:
        Optional buffer dict (see :func:`make_buffers`); ``None`` runs
        the schedule size-only.  The request owns the dict, including
        the plan's scratch arrays ``nbc.coll.start_plan`` added to it,
        until its last round completes; it then drops the reference
        (``buffers`` becomes ``None``), so a finished collective pins
        no memory however long its handle is kept.
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
        "_nrounds",
    )

    def __init__(
        self,
        schedule: Union[Schedule, CompiledSchedule],
        comm: SimComm,
        local_rank: int,
        peers: tuple[int, ...],
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
        self._nrounds = 0

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
        # rounds are frozen once started; cache the count for _advance,
        # which runs on every progress/wait poll
        self._nrounds = len(self.schedule.rounds)
        if not self.schedule.rounds:
            self.done = True
            self.complete_time = ctx.now
            self.buffers = None
            return self
        self._post_round(ctx)
        self._advance(ctx)
        return self

    def progress(self, ctx: MPIContext) -> bool:
        """Advance the schedule as far as local completions allow.

        Returns True when the request is complete.
        """
        # fast exits for the two common poll outcomes: already complete,
        # or blocked on in-flight ops (nothing to advance either way)
        if self.done:
            return True
        if self._pending:
            return False
        if not self._started:
            raise ScheduleError("progress() before start()")
        self._advance(ctx)
        return self.done

    # ------------------------------------------------------------------

    def _advance(self, ctx: MPIContext) -> None:
        nrounds = self._nrounds
        while not self.done and self._pending == 0:
            self._round += 1
            if self._round >= nrounds:
                self.done = True
                self.complete_time = ctx.now
                self.buffers = None
                obs = ctx.world._obs
                if obs is not None:
                    obs.emit_obj(self.schedule.name, _K_DONE, ctx.rank,
                                 ctx.now, nrounds)
                notify = self._notify
                if notify is not None:
                    notify(self, ctx.now)
                return
            self._post_round(ctx)

    def _post_round(self, ctx: MPIContext) -> None:
        ops = self.schedule.rounds[self._round]
        obs = ctx.world._obs
        if obs is not None:
            name = self.schedule.name
            obs.emit_obj(name, _K_ROUND, ctx.rank, ctx.now, self._round,
                         len(ops))
            # hierarchical schedules get an explicit phase marker so the
            # intra/inter/broadcast structure is visible in traces
            if "[hier" in name:
                obs.emit_obj(name, _K_HIER_PHASE, ctx.rank, ctx.now,
                             self._round, len(ops))
        buffers = self.buffers
        comm = self.comm
        peers = self.peers
        tag_base = self.tag_base
        child_done = self._child_done
        # guard: eager sends / instantly-matched recvs fire their notify
        # synchronously inside the post call; the sentinel keeps _pending
        # positive until every op of the round has been posted
        self._pending += 1
        if buffers is None:
            # size-only fast path: no buffer resolution, no data movement
            # (performance sweeps post thousands of these rounds)
            for op in ops:
                kind = op.kind
                if kind == "send":
                    self._pending += 1
                    # positional args: this is the sweep hot loop
                    ctx.isend(peers[op.peer], op.nbytes,
                              tag_base + op.tagoff, comm, None, child_done)
                elif kind == "recv":
                    self._pending += 1
                    ctx.irecv(peers[op.peer], op.nbytes,
                              tag_base + op.tagoff, comm, None, child_done)
                elif kind == "copy":
                    ctx.charge_copy(op.nbytes)
                elif kind == "combine":
                    ctx.charge_copy(2 * op.nbytes)
                else:  # pragma: no cover - schedule.validate() prevents this
                    raise ScheduleError(f"unknown op kind {kind!r}")
            self._pending -= 1
            return
        # payload path: start_plan checked every buffer against the
        # plan's extents, so _view slices unchecked
        for op in ops:
            kind = op.kind
            if kind == "send":
                self._pending += 1
                ctx.isend(peers[op.peer], op.nbytes, tag_base + op.tagoff,
                          comm, _view(buffers, op.src), child_done)
            elif kind == "recv":
                self._pending += 1
                # the transport copies the payload into this view when
                # the receive completes
                ctx.irecv(peers[op.peer], op.nbytes, tag_base + op.tagoff,
                          comm, _view(buffers, op.dst), child_done)
            elif kind == "copy":
                ctx.charge_copy(op.nbytes)
                src = _view(buffers, op.src)
                dst = _view(buffers, op.dst)
                if src is not None and dst is not None:
                    dst[:] = src
            elif kind == "combine":
                # a combine reads + writes the destination: ~2 copies of CPU
                ctx.charge_copy(2 * op.nbytes)
                src = _view(buffers, op.src)
                dst = _view(buffers, op.dst)
                if src is not None and dst is not None:
                    op.apply(src, dst)
            else:  # pragma: no cover - schedule.validate() prevents this
                raise ScheduleError(f"unknown op kind {kind!r}")
        self._pending -= 1

    def _child_done(self, req: Waitable, t: float) -> Optional[bool]:
        """A posted op completed.  ``False`` while the round still has ops
        in flight: nothing a blocked wait can observe changed, so the
        driver skips re-evaluating it (DESIGN.md §10)."""
        self._pending -= 1
        return False if self._pending else None

    # ------------------------------------------------------------------

    @property
    def current_round(self) -> int:
        """Index of the round currently in flight (for tests/tracing)."""
        return self._round

    def __repr__(self) -> str:  # pragma: no cover
        state = "done" if self.done else f"round {self._round}"
        return f"<NBCRequest {self.schedule.name!r} {state}>"
