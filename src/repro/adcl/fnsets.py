"""Predefined ADCL function-sets (§III-E).

* :func:`ibcast_function_set` — the paper's 21-function ``Ibcast`` set:
  fan-out ∈ {0 linear, 1 chain, 2..5, binomial} x segment size
  ∈ {32 KB, 64 KB, 128 KB};
* :func:`ialltoall_function_set` — the 3-function ``Ialltoall`` set:
  linear, dissemination (Bruck), pairwise exchange;
* :func:`ialltoall_extended_function_set` — the §IV-B extension that
  adds *blocking* variants of the same algorithms (wait pointer NULL),
  letting the selection logic decide blocking vs non-blocking at run
  time;
* :func:`ireduce_function_set` / :func:`iallgather_function_set` — the
  further operations ADCL supports.
"""

from __future__ import annotations


from typing import Mapping, Optional

import numpy as np

from ..nbc.hier import (
    compiled_hier_ialltoall,
    compiled_hier_ibcast,
    hier_alltoall_scratch_bytes,
    partition_for_comm,
)
from ..nbc.ialltoall import alltoall_scratch_bytes, compiled_ialltoall
from ..nbc.iallgather import compiled_iallgather
from ..nbc.iallgatherv import (
    ALLGATHERV_ALGORITHMS,
    balanced_counts,
    compiled_iallgatherv,
)
from ..nbc.iallreduce import ALLREDUCE_ALGORITHMS, compiled_iallreduce
from ..nbc.ibcast import BINOMIAL, IBCAST_FANOUTS, compiled_ibcast
from ..nbc.ireduce import compiled_ireduce
from ..nbc.ireduce_scatter import (
    REDUCE_SCATTER_ALGORITHMS,
    compiled_ireduce_scatter,
)
from ..nbc.request import NBCRequest, make_buffers
from ..nbc.schedule import identity_peers
from ..sim.mpi import MPIContext
from ..units import KiB
from .attributes import Attribute, AttributeSet
from .function import CollFunction, CollSpec, FunctionSet

__all__ = [
    "IBCAST_SEGSIZES",
    "HIER_FANOUT",
    "ibcast_function_set",
    "ibcast_mockup_function_set",
    "ialltoall_function_set",
    "ialltoall_extended_function_set",
    "iallgather_function_set",
    "iallgatherv_function_set",
    "iallreduce_function_set",
    "ireduce_function_set",
    "ireduce_scatter_function_set",
]

#: the paper's three pipeline segment sizes
IBCAST_SEGSIZES = (32 * KiB, 64 * KiB, 128 * KiB)

#: pseudo fan-out value labelling the hierarchical two-level tree in
#: the ``Ibcast`` attribute space (distinct from every real fan-out)
HIER_FANOUT = "hier"

#: paper name for the Bruck algorithm
_A2A_NAME = {"linear": "linear", "bruck": "dissemination", "pairwise": "pairwise"}
_A2A_ALGO = {v: k for k, v in _A2A_NAME.items()}


def _as_buffers(buffers: Optional[Mapping[str, np.ndarray]]):
    if buffers is None:
        return None
    return make_buffers(**buffers)


def _fanout_label(fanout) -> str:
    if fanout == HIER_FANOUT:
        return "hier"
    return {0: "linear", 1: "chain", BINOMIAL: "binomial"}.get(fanout, f"{fanout}ary")


def ibcast_function_set(hierarchical: bool = False) -> FunctionSet:
    """The 21-function non-blocking broadcast set (7 fan-outs x 3 segments).

    ``hierarchical=True`` adds the three leader-based two-level variants
    (one per segment size, pseudo fan-out :data:`HIER_FANOUT`) as
    first-class candidates the selection logic can pick.
    """
    fanouts = IBCAST_FANOUTS + ((HIER_FANOUT,) if hierarchical else ())
    attrs = AttributeSet([
        Attribute("fanout", fanouts),
        Attribute("segsize", IBCAST_SEGSIZES),
    ])
    functions = []
    for fanout in fanouts:
        for segsize in IBCAST_SEGSIZES:
            if fanout == HIER_FANOUT:
                def maker(ctx: MPIContext, spec: CollSpec, buffers,
                          segsize=segsize) -> NBCRequest:
                    comm = spec.comm
                    rank = comm.local_rank(ctx.rank)
                    part = partition_for_comm(comm, ctx.topology)
                    sched, peers = compiled_hier_ibcast(
                        comm.size, rank, spec.root, spec.nbytes, segsize, part)
                    return NBCRequest(sched, comm, rank, peers,
                                      _as_buffers(buffers)).start(ctx)
            else:
                def maker(ctx: MPIContext, spec: CollSpec, buffers,
                          fanout=fanout, segsize=segsize) -> NBCRequest:
                    comm = spec.comm
                    rank = comm.local_rank(ctx.rank)
                    sched, peers = compiled_ibcast(comm.size, rank, spec.root,
                                                   spec.nbytes, fanout, segsize)
                    return NBCRequest(sched, comm, rank, peers,
                                      _as_buffers(buffers)).start(ctx)

            functions.append(CollFunction(
                name=f"{_fanout_label(fanout)}_seg{segsize // KiB}KB",
                maker=maker,
                attributes={"fanout": fanout, "segsize": segsize},
            ))
    return FunctionSet("ibcast", functions, attrs)


def scatter_allgather_function() -> CollFunction:
    """The Bcast ≼ Scatter+Allgather composition as an ADCL function.

    A performance-guideline *mock-up candidate* (Hunold): a broadcast
    implemented as a linear scatter followed by a ring all-gather
    (:func:`repro.nbc.compose.build_scatter_allgather`).  It is not part
    of the shipped :func:`ibcast_function_set` — the guideline checker
    measures it stand-alone and asserts the tuned broadcast decision is
    never slower than this composition.
    """
    from ..nbc.compose import compiled_scatter_allgather

    def maker(ctx: MPIContext, spec: CollSpec, buffers) -> NBCRequest:
        comm = spec.comm
        rank = comm.local_rank(ctx.rank)
        sched = compiled_scatter_allgather(comm.size, rank, spec.root,
                                           spec.nbytes)
        return NBCRequest(sched, comm, rank, identity_peers(comm.size),
                          _as_buffers(buffers)).start(ctx)

    return CollFunction(name="scatter_allgather", maker=maker)


def ibcast_mockup_function_set() -> FunctionSet:
    """Single-function set holding the scatter+allgather bcast mock-up."""
    return FunctionSet("ibcast_mockup", [scatter_allgather_function()])


def _alltoall_maker(algorithm: str, ctx: MPIContext, spec: CollSpec,
                    buffers) -> NBCRequest:
    comm = spec.comm
    rank = comm.local_rank(ctx.rank)
    sched = compiled_ialltoall(comm.size, rank, spec.nbytes, algorithm)
    bufs = _as_buffers(buffers)
    if bufs is not None:
        for name, nbytes in alltoall_scratch_bytes(
            comm.size, spec.nbytes, algorithm
        ).items():
            if name not in bufs:
                bufs[name] = np.empty(nbytes, dtype=np.uint8)
    return NBCRequest(sched, comm, rank, identity_peers(comm.size),
                      bufs).start(ctx)


def _hier_alltoall_maker(ctx, spec: CollSpec, buffers) -> NBCRequest:
    comm = spec.comm
    rank = comm.local_rank(ctx.rank)
    part = partition_for_comm(comm, ctx.topology)
    sched = compiled_hier_ialltoall(comm.size, rank, spec.nbytes, part)
    bufs = _as_buffers(buffers)
    if bufs is not None:
        for name, nbytes in hier_alltoall_scratch_bytes(
            comm.size, rank, spec.nbytes, part
        ).items():
            if name not in bufs:
                bufs[name] = np.empty(nbytes, dtype=np.uint8)
    return NBCRequest(sched, comm, rank, identity_peers(comm.size),
                      bufs).start(ctx)


def ialltoall_function_set(hierarchical: bool = False) -> FunctionSet:
    """The paper's 3-algorithm non-blocking all-to-all set.

    ``hierarchical=True`` adds the leader-based two-level candidate
    (gather / inter-leader pairwise exchange / scatter).
    """
    labels = list(_A2A_NAME.values()) + (["hier"] if hierarchical else [])
    attrs = AttributeSet([
        Attribute("algorithm", tuple(labels)),
    ])
    functions = []
    for algorithm, label in _A2A_NAME.items():
        def maker(ctx, spec, buffers, algorithm=algorithm):
            return _alltoall_maker(algorithm, ctx, spec, buffers)

        functions.append(CollFunction(
            name=label, maker=maker, attributes={"algorithm": label},
        ))
    if hierarchical:
        functions.append(CollFunction(
            name="hier", maker=_hier_alltoall_maker,
            attributes={"algorithm": "hier"},
        ))
    return FunctionSet("ialltoall", functions, attrs)


def ialltoall_extended_function_set() -> FunctionSet:
    """Non-blocking + blocking all-to-all in one set (§IV-B).

    Blocking functions set the *wait pointer to NULL*: the whole
    operation runs inside ``start``, so the selection logic effectively
    decides at run time whether the code section benefits from
    overlapping at all.
    """
    attrs = AttributeSet([
        Attribute("algorithm", tuple(_A2A_NAME.values())),
        Attribute("blocking", (False, True)),
    ])
    functions = []
    for blocking in (False, True):
        for algorithm, label in _A2A_NAME.items():
            def maker(ctx, spec, buffers, algorithm=algorithm):
                return _alltoall_maker(algorithm, ctx, spec, buffers)

            prefix = "blocking_" if blocking else ""
            functions.append(CollFunction(
                name=f"{prefix}{label}",
                maker=maker,
                attributes={"algorithm": label, "blocking": blocking},
                blocking=blocking,
            ))
    return FunctionSet("ialltoall_ext", functions, attrs)


def iallgather_function_set(size: Optional[int] = None) -> FunctionSet:
    """All-gather set: ring, linear, and (for power-of-two sizes)
    recursive doubling."""
    algos = ["ring", "linear"]
    if size is None or (size > 0 and size & (size - 1) == 0):
        algos.append("recursive_doubling")
    attrs = AttributeSet([Attribute("algorithm", tuple(algos))])
    functions = []
    for algorithm in algos:
        def maker(ctx, spec, buffers, algorithm=algorithm):
            comm = spec.comm
            rank = comm.local_rank(ctx.rank)
            sched = compiled_iallgather(comm.size, rank, spec.nbytes, algorithm)
            return NBCRequest(sched, comm, rank, identity_peers(comm.size),
                              _as_buffers(buffers)).start(ctx)

        functions.append(CollFunction(
            name=algorithm, maker=maker, attributes={"algorithm": algorithm},
        ))
    return FunctionSet("iallgather", functions, attrs)


def ireduce_function_set(segsizes=(0, 64 * KiB)) -> FunctionSet:
    """Reduce set: binomial tree plus (segmented) chain pipelines."""
    attrs = AttributeSet([
        Attribute("algorithm", ("binomial", "chain")),
        Attribute("segsize", tuple(segsizes)),
    ])
    functions = []
    for algorithm in ("binomial", "chain"):
        for segsize in segsizes:
            def maker(ctx, spec, buffers, algorithm=algorithm, segsize=segsize):
                comm = spec.comm
                rank = comm.local_rank(ctx.rank)
                sched = compiled_ireduce(comm.size, rank, spec.root, spec.nbytes,
                                         algorithm, segsize=segsize)
                bufs = _as_buffers(buffers)
                if bufs is not None:
                    bufs.setdefault("acc", np.empty(spec.nbytes, np.uint8))
                    bufs.setdefault("in", np.empty(spec.nbytes, np.uint8))
                return NBCRequest(sched, comm, rank, identity_peers(comm.size),
                                  bufs).start(ctx)

            seg_label = "noseg" if segsize == 0 else f"seg{segsize // KiB}KB"
            functions.append(CollFunction(
                name=f"{algorithm}_{seg_label}",
                maker=maker,
                attributes={"algorithm": algorithm, "segsize": segsize},
            ))
    return FunctionSet("ireduce", functions, attrs)


def iallgatherv_function_set() -> FunctionSet:
    """All-gather-v set: linear, ring, and the hierarchical two-level.

    ``spec.nbytes`` is the *total* gathered payload; the per-rank counts
    are the canonical :func:`~repro.nbc.iallgatherv.balanced_counts`
    split (uneven whenever P does not divide the total), so the
    variable-count paths are exercised on every run.
    """
    attrs = AttributeSet([Attribute("algorithm", ALLGATHERV_ALGORITHMS)])
    functions = []
    for algorithm in ALLGATHERV_ALGORITHMS:
        def maker(ctx, spec, buffers, algorithm=algorithm):
            comm = spec.comm
            rank = comm.local_rank(ctx.rank)
            counts = balanced_counts(spec.nbytes, comm.size)
            groups = (partition_for_comm(comm, ctx.topology)
                      if algorithm == "hier" else ())
            sched = compiled_iallgatherv(comm.size, rank, counts, algorithm,
                                         groups)
            return NBCRequest(sched, comm, rank, identity_peers(comm.size),
                              _as_buffers(buffers)).start(ctx)

        functions.append(CollFunction(
            name=algorithm, maker=maker, attributes={"algorithm": algorithm},
        ))
    return FunctionSet("iallgatherv", functions, attrs)


def ireduce_scatter_function_set() -> FunctionSet:
    """Reduce-scatter set: pairwise exchange + reduce-then-scatter.

    ``spec.nbytes`` is the per-rank *block* size (each rank contributes
    ``P * nbytes`` in ``"data"`` and receives its reduced block in
    ``"recv"``), mirroring the all-to-all's bytes-per-pair convention.
    """
    attrs = AttributeSet([Attribute("algorithm", REDUCE_SCATTER_ALGORITHMS)])
    functions = []
    for algorithm in REDUCE_SCATTER_ALGORITHMS:
        def maker(ctx, spec, buffers, algorithm=algorithm):
            comm = spec.comm
            rank = comm.local_rank(ctx.rank)
            sched = compiled_ireduce_scatter(comm.size, rank, spec.nbytes,
                                             algorithm)
            bufs = _as_buffers(buffers)
            if bufs is not None:
                full = comm.size * spec.nbytes
                bufs.setdefault("acc", np.empty(full, np.uint8))
                bufs.setdefault("in", np.empty(full, np.uint8))
            return NBCRequest(sched, comm, rank, identity_peers(comm.size),
                              bufs).start(ctx)

        functions.append(CollFunction(
            name=algorithm, maker=maker, attributes={"algorithm": algorithm},
        ))
    return FunctionSet("ireduce_scatter", functions, attrs)


def iallreduce_function_set() -> FunctionSet:
    """All-reduce set: binomial reduce+bcast, ring, and hierarchical.

    ``spec.nbytes`` is the full vector each rank contributes in
    ``"data"`` (also the in-place result buffer).
    """
    attrs = AttributeSet([Attribute("algorithm", ALLREDUCE_ALGORITHMS)])
    functions = []
    for algorithm in ALLREDUCE_ALGORITHMS:
        def maker(ctx, spec, buffers, algorithm=algorithm):
            comm = spec.comm
            rank = comm.local_rank(ctx.rank)
            groups = (partition_for_comm(comm, ctx.topology)
                      if algorithm == "hier" else ())
            sched = compiled_iallreduce(comm.size, rank, spec.nbytes,
                                        algorithm, groups=groups)
            bufs = _as_buffers(buffers)
            if bufs is not None:
                bufs.setdefault("acc", np.empty(spec.nbytes, np.uint8))
                bufs.setdefault("in", np.empty(spec.nbytes, np.uint8))
            return NBCRequest(sched, comm, rank, identity_peers(comm.size),
                              bufs).start(ctx)

        functions.append(CollFunction(
            name=algorithm, maker=maker, attributes={"algorithm": algorithm},
        ))
    return FunctionSet("iallreduce", functions, attrs)
