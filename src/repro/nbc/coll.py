"""High-level collective entry points (persistent-style helpers).

These wrap the schedule builders into one-call APIs for rank programs:

* ``start_*`` — build + post a non-blocking collective, returning the
  :class:`~repro.nbc.request.NBCRequest` to progress/wait on;
* the module-level generators (``alltoall``, ``bcast``, ...) — blocking
  convenience wrappers (``yield from nbc.alltoall(ctx, ...)``), used for
  the paper's blocking-MPI baselines.

Payload mode: pass ``sendbuf`` / ``recvbuf`` numpy arrays to move real
data; omit them for size-only performance runs.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..sim.mpi import MPIContext, SimComm
from ..sim.process import Wait
from .hier import (
    Groups,
    Partition,
    as_partition,
    compiled_hier_ialltoall,
    compiled_hier_ibcast,
    hier_alltoall_scratch_bytes,
    partition_for_comm,
)
from .ialltoall import alltoall_scratch_bytes, compiled_ialltoall
from .iallgather import compiled_iallgather
from .iallgatherv import compiled_iallgatherv
from .iallreduce import compiled_iallreduce
from .ibcast import BINOMIAL, compiled_ibcast
from .ireduce import compiled_ireduce
from .ireduce_scatter import compiled_ireduce_scatter
from .request import NBCRequest, make_buffers
from .schedule import SCHEDULE_CACHE, Schedule, identity_peers

__all__ = [
    "start_ialltoall",
    "start_ibcast",
    "start_iallgather",
    "start_iallgatherv",
    "start_iallreduce",
    "start_ireduce",
    "start_ireduce_scatter",
    "start_ibarrier",
    "alltoall",
    "bcast",
    "allgather",
    "reduce",
    "barrier",
]


def _local_rank(ctx: MPIContext, comm: Optional[SimComm]) -> tuple[SimComm, int]:
    comm = comm or ctx.comm_world
    return comm, comm.local_rank(ctx.rank)


def _partition(ctx: MPIContext, comm: SimComm,
               groups: Optional[Groups]) -> Partition:
    if groups is None:
        return partition_for_comm(comm, ctx.topology)
    return as_partition(groups, comm.size)


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

    ``algorithm="hier"`` routes through per-node leaders; ``groups``
    overrides the topology-derived node partition.
    """
    comm, rank = _local_rank(ctx, comm)
    hier = algorithm == "hier"
    if hier:
        g = _partition(ctx, comm, groups)
        sched = compiled_hier_ialltoall(comm.size, rank, m, g)
    else:
        sched = compiled_ialltoall(comm.size, rank, m, algorithm)
    buffers = None
    if sendbuf is not None or recvbuf is not None:
        buffers = make_buffers(send=sendbuf, recv=recvbuf)
        scratch = (hier_alltoall_scratch_bytes(comm.size, rank, m, g) if hier
                   else alltoall_scratch_bytes(comm.size, m, algorithm))
        for name, nbytes in scratch.items():
            buffers[name] = np.empty(nbytes, dtype=np.uint8)
    return NBCRequest(sched, comm, rank, identity_peers(comm.size),
                      buffers).start(ctx)


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

    ``fanout="hier"`` selects the two-level leader tree; ``groups``
    overrides the topology-derived node partition.
    """
    comm, rank = _local_rank(ctx, comm)
    if fanout == "hier":
        g = _partition(ctx, comm, groups)
        sched, peers = compiled_hier_ibcast(comm.size, rank, root, nbytes,
                                            segsize, g)
    else:
        sched, peers = compiled_ibcast(comm.size, rank, root, nbytes, fanout,
                                       segsize)
    buffers = make_buffers(data=buf) if buf is not None else None
    return NBCRequest(sched, comm, rank, peers, buffers).start(ctx)


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
    sched = compiled_iallgather(comm.size, rank, m, algorithm)
    buffers = None
    if sendbuf is not None or recvbuf is not None:
        buffers = make_buffers(send=sendbuf, recv=recvbuf)
    return NBCRequest(sched, comm, rank, identity_peers(comm.size),
                      buffers).start(ctx)


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
    sched = compiled_ireduce(comm.size, rank, root, nbytes, algorithm,
                             dtype=dtype, op=op, segsize=segsize)
    buffers = None
    if buf is not None:
        buffers = make_buffers(data=buf)
        buffers["acc"] = np.empty(nbytes, dtype=np.uint8)
        buffers["in"] = np.empty(nbytes, dtype=np.uint8)
    return NBCRequest(sched, comm, rank, identity_peers(comm.size),
                      buffers).start(ctx)


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
    g = _partition(ctx, comm, groups) if algorithm == "hier" else ()
    sched = compiled_iallgatherv(comm.size, rank, tuple(counts), algorithm, g)
    buffers = None
    if sendbuf is not None or recvbuf is not None:
        buffers = make_buffers(send=sendbuf, recv=recvbuf)
    return NBCRequest(sched, comm, rank, identity_peers(comm.size),
                      buffers).start(ctx)


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
    sched = compiled_ireduce_scatter(comm.size, rank, m, algorithm,
                                     dtype=dtype, op=op)
    buffers = None
    if sendbuf is not None or recvbuf is not None:
        buffers = make_buffers(data=sendbuf, recv=recvbuf)
        buffers["acc"] = np.empty(comm.size * m, dtype=np.uint8)
        buffers["in"] = np.empty(comm.size * m, dtype=np.uint8)
    return NBCRequest(sched, comm, rank, identity_peers(comm.size),
                      buffers).start(ctx)


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
    g = _partition(ctx, comm, groups) if algorithm == "hier" else ()
    sched = compiled_iallreduce(comm.size, rank, nbytes, algorithm,
                                dtype=dtype, op=op, groups=g)
    buffers = None
    if buf is not None:
        buffers = make_buffers(data=buf)
        buffers["acc"] = np.empty(nbytes, dtype=np.uint8)
        buffers["in"] = np.empty(nbytes, dtype=np.uint8)
    return NBCRequest(sched, comm, rank, identity_peers(comm.size),
                      buffers).start(ctx)


def _barrier_schedule(size: int, rank: int) -> Schedule:
    """Dissemination barrier: ceil(log2 P) zero-byte exchange rounds."""
    sched = Schedule(name="ibarrier[dissemination]")
    nrounds = math.ceil(math.log2(size)) if size > 1 else 0
    for k in range(nrounds):
        d = 1 << k
        sched.round()
        sched.recv((rank - d) % size, 0, tagoff=k)
        sched.send((rank + d) % size, 0, tagoff=k)
    return sched


def start_ibarrier(ctx: MPIContext, comm: Optional[SimComm] = None) -> NBCRequest:
    """Post a non-blocking dissemination barrier."""
    comm, rank = _local_rank(ctx, comm)
    sched = SCHEDULE_CACHE.get(
        ("barrier", "dissemination", comm.size, rank, 0, 0, 0),
        lambda: _barrier_schedule(comm.size, rank),
    )
    return NBCRequest(sched, comm, rank, identity_peers(comm.size)).start(ctx)


# ---------------------------------------------------------------------------
# blocking wrappers (generators: use as ``yield from nbc.alltoall(ctx, ...)``)
# ---------------------------------------------------------------------------


def alltoall(ctx: MPIContext, m: int, algorithm: str = "pairwise", **kw):
    """Blocking all-to-all: the MPI_Alltoall baseline of §IV-B."""
    req = start_ialltoall(ctx, m, algorithm=algorithm, **kw)
    yield Wait(req)
    return req


def bcast(ctx: MPIContext, nbytes: int, **kw):
    """Blocking broadcast."""
    req = start_ibcast(ctx, nbytes, **kw)
    yield Wait(req)
    return req


def allgather(ctx: MPIContext, m: int, algorithm: str = "ring", **kw):
    """Blocking all-gather."""
    req = start_iallgather(ctx, m, algorithm=algorithm, **kw)
    yield Wait(req)
    return req


def reduce(ctx: MPIContext, nbytes: int, **kw):
    """Blocking reduction."""
    req = start_ireduce(ctx, nbytes, **kw)
    yield Wait(req)
    return req


def barrier(ctx: MPIContext, comm: Optional[SimComm] = None):
    """Blocking barrier."""
    req = start_ibarrier(ctx, comm)
    yield Wait(req)
    return req
