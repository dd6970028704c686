"""High-level collective entry points (persistent-style helpers).

These wrap the schedule builders into one-call APIs for rank programs:

* :func:`start_plan` — the one bind step from a compiled plan to a
  running :class:`~repro.nbc.request.NBCRequest`: it binds the peer
  table, wraps the caller's arrays and allocates the plan's derived
  :attr:`~repro.nbc.schedule.Schedule.scratch`;
* ``start_*`` — look up the plan of a non-blocking collective and post
  it through :func:`start_plan`, returning the request to progress/wait
  on.  Each takes the algorithm (or fan-out) as its family's table
  names it; the one step they add is :func:`_node_groups`, which hands
  a two-level row the topology's node partition unless the caller
  passed ``groups``;
* the module-level generators (``alltoall``, ``bcast``, ...) — blocking
  convenience wrappers (``yield from nbc.alltoall(ctx, ...)``), used for
  the paper's blocking-MPI baselines.

Payload mode: pass ``sendbuf`` / ``recvbuf`` numpy arrays to move real
data; omit them for size-only performance runs.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from ..errors import ScheduleError
from ..sim.mpi import MPIContext, SimComm
from ..sim.process import Wait
from .hier import HIER, Groups, partition_for_comm
from .ialltoall import compiled_ialltoall
from .iallgather import compiled_iallgather
from .iallgatherv import compiled_iallgatherv
from .iallreduce import compiled_iallreduce
from .ibcast import BINOMIAL, compiled_ibcast
from .ireduce import compiled_ireduce
from .ireduce_scatter import compiled_ireduce_scatter
from .request import NBCRequest, make_buffers
from .schedule import Schedule, compiled_rotation

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "start_plan",
    "start_ialltoall",
    "start_ibcast",
    "start_iallgather",
    "start_iallgatherv",
    "start_iallreduce",
    "start_ireduce",
    "start_ireduce_scatter",
    "start_ibarrier",
    "alltoall",
    "barrier",
]


def _local_rank(ctx: MPIContext, comm: Optional[SimComm]) -> tuple[SimComm, int]:
    comm = comm or ctx.comm_world
    return comm, comm.local_rank(ctx.rank)


def start_plan(ctx: MPIContext, comm: SimComm, rank: int,
               plan: Schedule,
               peers: tuple[int, ...],
               **arrays: Optional[np.ndarray]) -> NBCRequest:
    """Bind ``plan`` to this rank and post it.

    ``peers`` is the plan's peer table, as every ``compiled_*`` entry
    point returns it next to the plan.  ``arrays`` are the caller's
    buffers by schedule name (``send=``, ``recv=``, ``data=``); when
    any is given, the plan's scratch is allocated next to them,
    otherwise the request runs size-only.  Each array is checked once
    against the bytes the plan's ops reach in it
    (:attr:`~repro.nbc.schedule.Schedule.user_extents`), so a
    bad buffer raises :class:`~repro.errors.ScheduleError` here,
    before any message is posted, and the rounds can slice views
    unchecked.  A ``None`` array runs the ops that name it without data.
    """
    buffers = None
    if any(arr is not None for arr in arrays.values()):
        import numpy as np

        buffers = make_buffers(**arrays)
        for name, need in plan.user_extents.items():
            if name not in buffers:
                raise ScheduleError(
                    f"{plan.name}: the schedule needs buffer {name!r}, "
                    f"which was not passed"
                )
            buf = buffers[name]
            if buf is not None and buf.nbytes < need:
                raise ScheduleError(
                    f"{plan.name}: buffer {name!r} too small: need "
                    f"{need} bytes, have {buf.nbytes}"
                )
        for name, nbytes in plan.scratch.items():
            buffers[name] = np.empty(nbytes, dtype=np.uint8)
    return NBCRequest(plan, comm, rank, peers, buffers).start(ctx)


def _node_groups(ctx: MPIContext, comm: SimComm, algorithm,
                 groups: Optional[Groups]):
    """``groups``, or for a two-level row (:data:`~repro.nbc.hier.HIER`)
    not given one, the node partition of ``comm`` on the topology; the
    flat rows ignore it, so it is only derived for the two-level one."""
    if groups is None and algorithm == HIER:
        return partition_for_comm(comm, ctx.topology)
    return groups


def start_ialltoall(
    ctx: MPIContext,
    m: int,
    algorithm: str = "linear",
    comm: Optional[SimComm] = None,
    sendbuf: Optional[np.ndarray] = None,
    recvbuf: Optional[np.ndarray] = None,
    groups: Optional[Groups] = None,
) -> NBCRequest:
    """Post a non-blocking all-to-all of ``m`` bytes per process pair.

    ``groups`` overrides the topology-derived node partition of the
    two-level row.
    """
    comm, rank = _local_rank(ctx, comm)
    sched, peers = compiled_ialltoall(comm.size, rank, m, algorithm,
                                      _node_groups(ctx, comm, algorithm,
                                                   groups))
    return start_plan(ctx, comm, rank, sched, peers, send=sendbuf,
                      recv=recvbuf)


def start_ibcast(
    ctx: MPIContext,
    nbytes: int,
    root: int = 0,
    fanout=BINOMIAL,
    segsize: int = 128 * 1024,
    comm: Optional[SimComm] = None,
    buf: Optional[np.ndarray] = None,
    groups: Optional[Groups] = None,
) -> NBCRequest:
    """Post a non-blocking broadcast of ``nbytes`` from ``root``.

    ``groups`` overrides the topology-derived node partition of the
    two-level tree.
    """
    comm, rank = _local_rank(ctx, comm)
    sched, peers = compiled_ibcast(comm.size, rank, root, nbytes, fanout,
                                   segsize,
                                   _node_groups(ctx, comm, fanout, groups))
    return start_plan(ctx, comm, rank, sched, peers, data=buf)


def start_iallgather(
    ctx: MPIContext,
    m: int,
    algorithm: str = "ring",
    comm: Optional[SimComm] = None,
    sendbuf: Optional[np.ndarray] = None,
    recvbuf: Optional[np.ndarray] = None,
) -> NBCRequest:
    """Post a non-blocking all-gather of ``m`` bytes per rank."""
    comm, rank = _local_rank(ctx, comm)
    sched, peers = compiled_iallgather(comm.size, rank, m, algorithm)
    return start_plan(ctx, comm, rank, sched, peers, send=sendbuf,
                      recv=recvbuf)


def start_ireduce(
    ctx: MPIContext,
    nbytes: int,
    root: int = 0,
    algorithm: str = "binomial",
    comm: Optional[SimComm] = None,
    buf: Optional[np.ndarray] = None,
    dtype: str = "float64",
    op: str = "sum",
    segsize: int = 0,
) -> NBCRequest:
    """Post a non-blocking reduction of ``nbytes`` to ``root``."""
    comm, rank = _local_rank(ctx, comm)
    sched, peers = compiled_ireduce(comm.size, rank, root, nbytes, algorithm,
                                    dtype=dtype, op=op, segsize=segsize)
    return start_plan(ctx, comm, rank, sched, peers, data=buf)


def start_iallgatherv(
    ctx: MPIContext,
    counts,
    algorithm: str = "linear",
    comm: Optional[SimComm] = None,
    sendbuf: Optional[np.ndarray] = None,
    recvbuf: Optional[np.ndarray] = None,
    groups: Optional[Groups] = None,
) -> NBCRequest:
    """Post a non-blocking all-gather-v; rank *i* contributes ``counts[i]``."""
    comm, rank = _local_rank(ctx, comm)
    sched, peers = compiled_iallgatherv(
        comm.size, rank, counts, algorithm,
        _node_groups(ctx, comm, algorithm, groups))
    return start_plan(ctx, comm, rank, sched, peers, send=sendbuf,
                      recv=recvbuf)


def start_ireduce_scatter(
    ctx: MPIContext,
    m: int,
    algorithm: str = "pairwise",
    comm: Optional[SimComm] = None,
    sendbuf: Optional[np.ndarray] = None,
    recvbuf: Optional[np.ndarray] = None,
    dtype: str = "float64",
    op: str = "sum",
) -> NBCRequest:
    """Post a non-blocking equal-block reduce-scatter.

    ``sendbuf`` holds the rank's ``P*m``-byte contribution; the fully
    reduced ``m``-byte block lands in ``recvbuf``.
    """
    comm, rank = _local_rank(ctx, comm)
    sched, peers = compiled_ireduce_scatter(comm.size, rank, m, algorithm,
                                            dtype=dtype, op=op)
    return start_plan(ctx, comm, rank, sched, peers, data=sendbuf,
                      recv=recvbuf)


def start_iallreduce(
    ctx: MPIContext,
    nbytes: int,
    algorithm: str = "reduce_bcast",
    comm: Optional[SimComm] = None,
    buf: Optional[np.ndarray] = None,
    dtype: str = "float64",
    op: str = "sum",
    groups: Optional[Groups] = None,
) -> NBCRequest:
    """Post a non-blocking all-reduce over ``buf`` (in place)."""
    comm, rank = _local_rank(ctx, comm)
    sched, peers = compiled_iallreduce(
        comm.size, rank, nbytes, algorithm, dtype=dtype, op=op,
        groups=_node_groups(ctx, comm, algorithm, groups))
    return start_plan(ctx, comm, rank, sched, peers, data=buf)


def _barrier_schedule(size: int) -> Schedule:
    """Dissemination barrier: ceil(log2 P) zero-byte exchange rounds,
    round *k* with ranks ``rank -/+ 2^k`` (a rotation template)."""
    sched = Schedule(name="ibarrier[dissemination]")
    nrounds = math.ceil(math.log2(size)) if size > 1 else 0
    for k in range(nrounds):
        d = 1 << k
        sched.round()
        sched.recv(size - d, 0, tagoff=k)
        sched.send(d, 0, tagoff=k)
    return sched


def start_ibarrier(ctx: MPIContext, comm: Optional[SimComm] = None) -> NBCRequest:
    """Post a non-blocking dissemination barrier."""
    comm, rank = _local_rank(ctx, comm)
    sched, peers = compiled_rotation("barrier", "dissemination", comm.size,
                                     rank, 0, _barrier_schedule, ())
    return start_plan(ctx, comm, rank, sched, peers)


# ---------------------------------------------------------------------------
# blocking wrappers (generators: use as ``yield from nbc.alltoall(ctx, ...)``)
# ---------------------------------------------------------------------------


def alltoall(ctx: MPIContext, m: int, algorithm: str = "pairwise", **kw):
    """Blocking all-to-all: the MPI_Alltoall baseline of §IV-B."""
    req = start_ialltoall(ctx, m, algorithm=algorithm, **kw)
    yield Wait(req)
    return req


def barrier(ctx: MPIContext, comm: Optional[SimComm] = None):
    """Blocking barrier."""
    req = start_ibarrier(ctx, comm)
    yield Wait(req)
    return req
