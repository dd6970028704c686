"""Predefined ADCL function-sets (§III-E).

An ADCL function is the library's own *init* function for one algorithm
(§III-C): every maker here is a thin call into :mod:`repro.nbc.coll`,
which owns the whole path from compiled plan to running
:class:`~repro.nbc.request.NBCRequest` (rank, node partition, plan
lookup, peer binding, scratch buffers).  A maker only maps the per-call
buffer dict (``"send"``/``"recv"``/``"data"``) onto that function's
buffer keywords.

* :func:`ibcast_function_set` — the paper's 21-function ``Ibcast`` set:
  fan-out ∈ {0 linear, 1 chain, 2..5, binomial} x segment size
  ∈ {32 KB, 64 KB, 128 KB};
* :func:`ialltoall_function_set` — the 3-function ``Ialltoall`` set:
  linear, dissemination (Bruck), pairwise exchange;
* :func:`ialltoall_extended_function_set` — the §IV-B extension that
  adds *blocking* variants of the same algorithms (wait pointer NULL),
  letting the selection logic decide blocking vs non-blocking at run
  time;
* :func:`ireduce_function_set`, :func:`iallgather_function_set`,
  :func:`iallgatherv_function_set`, :func:`ireduce_scatter_function_set`
  and :func:`iallreduce_function_set` — the further operations ADCL
  supports;
* :func:`ibcast_mockup_function_set` — the scatter+allgather broadcast
  mock-up of the guideline checker, posted through the same
  :func:`~repro.nbc.coll.start_plan` bind step as every ``start_*``.
"""

from __future__ import annotations


from typing import Optional

from ..nbc.coll import (
    start_iallgather,
    start_iallgatherv,
    start_iallreduce,
    start_ialltoall,
    start_ibcast,
    start_ireduce,
    start_ireduce_scatter,
    start_plan,
)
from ..nbc.compose import compiled_scatter_allgather
from ..nbc.iallgatherv import ALLGATHERV_ALGORITHMS, balanced_counts
from ..nbc.iallreduce import ALLREDUCE_ALGORITHMS
from ..nbc.ibcast import BINOMIAL, IBCAST_FANOUTS
from ..nbc.ireduce_scatter import REDUCE_SCATTER_ALGORITHMS
from ..nbc.request import NBCRequest
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
            def maker(ctx: MPIContext, spec: CollSpec, buffers,
                      fanout=fanout, segsize=segsize) -> NBCRequest:
                return start_ibcast(ctx, spec.nbytes, spec.root, fanout,
                                    segsize, comm=spec.comm,
                                    buf=(buffers or {}).get("data"))

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
    never slower than this composition.  It posts through the same
    :func:`~repro.nbc.coll.start_plan` bind step as the library's
    candidates, so a mock-up that wins can be adopted as one.
    """
    def maker(ctx: MPIContext, spec: CollSpec, buffers) -> NBCRequest:
        comm = spec.comm
        rank = comm.local_rank(ctx.rank)
        sched = compiled_scatter_allgather(comm.size, rank, spec.root,
                                           spec.nbytes)
        return start_plan(ctx, comm, rank, sched,
                          data=(buffers or {}).get("data"))

    return CollFunction(name="scatter_allgather", maker=maker)


def ibcast_mockup_function_set() -> FunctionSet:
    """Single-function set holding the scatter+allgather bcast mock-up."""
    return FunctionSet("ibcast_mockup", [scatter_allgather_function()])


def _alltoall_maker(algorithm: str):
    def maker(ctx: MPIContext, spec: CollSpec, buffers) -> NBCRequest:
        buffers = buffers or {}
        return start_ialltoall(ctx, spec.nbytes, algorithm, comm=spec.comm,
                               sendbuf=buffers.get("send"),
                               recvbuf=buffers.get("recv"))

    return maker


def ialltoall_function_set(hierarchical: bool = False) -> FunctionSet:
    """The paper's 3-algorithm non-blocking all-to-all set.

    ``hierarchical=True`` adds the leader-based two-level candidate
    (gather / inter-leader pairwise exchange / scatter).
    """
    names = {**_A2A_NAME, "hier": "hier"} if hierarchical else _A2A_NAME
    attrs = AttributeSet([
        Attribute("algorithm", tuple(names.values())),
    ])
    functions = [
        CollFunction(name=label, maker=_alltoall_maker(algorithm),
                     attributes={"algorithm": label})
        for algorithm, label in names.items()
    ]
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
            prefix = "blocking_" if blocking else ""
            functions.append(CollFunction(
                name=f"{prefix}{label}",
                maker=_alltoall_maker(algorithm),
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
            buffers = buffers or {}
            return start_iallgather(ctx, spec.nbytes, algorithm,
                                    comm=spec.comm,
                                    sendbuf=buffers.get("send"),
                                    recvbuf=buffers.get("recv"))

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
                return start_ireduce(ctx, spec.nbytes, spec.root, algorithm,
                                     comm=spec.comm,
                                     buf=(buffers or {}).get("data"),
                                     segsize=segsize)

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
            buffers = buffers or {}
            return start_iallgatherv(
                ctx, balanced_counts(spec.nbytes, spec.comm.size), algorithm,
                comm=spec.comm, sendbuf=buffers.get("send"),
                recvbuf=buffers.get("recv"))

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
            buffers = buffers or {}
            return start_ireduce_scatter(ctx, spec.nbytes, algorithm,
                                         comm=spec.comm,
                                         sendbuf=buffers.get("data"),
                                         recvbuf=buffers.get("recv"))

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
            return start_iallreduce(ctx, spec.nbytes, algorithm,
                                    comm=spec.comm,
                                    buf=(buffers or {}).get("data"))

        functions.append(CollFunction(
            name=algorithm, maker=maker, attributes={"algorithm": algorithm},
        ))
    return FunctionSet("iallreduce", functions, attrs)
