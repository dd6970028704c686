"""Predefined ADCL function-sets (§III-E).

An ADCL function is the library's own *init* function for one algorithm
(§III-C): every maker here is a thin call into :mod:`repro.nbc.coll`,
which owns the whole path from compiled plan to running
:class:`~repro.nbc.request.NBCRequest` (rank, node partition, plan
lookup, peer binding, scratch buffers).  A maker only maps the per-call
buffer dict (``"send"``/``"recv"``/``"data"``) onto that function's
buffer keywords.

Each family has one module-level maker; a candidate binds its
algorithm parameters to it with :func:`functools.partial` and states
its name, attribute values and blocking flag once, in one
:class:`~repro.adcl.function.CollFunction`.  The set's attribute
domains are derived from those values.

A candidate set is its family's algorithm table: every name and order
comes from the exported tuples of :mod:`repro.nbc` (``ALLTOALL_ALGORITHMS``,
``IBCAST_FANOUTS``, ...), so a new table row reaches its set without
an edit here.  The two-level row (:data:`~repro.nbc.hier.HIER`) joins
the all-to-all and broadcast sets only when asked for
(``hierarchical=True``), and the broadcast set is the paper's seven
fan-outs, without the table's scatter+allgather row (the mock-up set's
one candidate); the only other rules are the paper's "dissemination"
label for Bruck and that recursive doubling needs a power-of-two size.

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
  mock-up of the guideline checker: the broadcast table's
  ``"scatter_allgather"`` row, which the paper's set leaves out.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Sequence

from ..nbc.coll import (
    start_iallgather,
    start_iallgatherv,
    start_iallreduce,
    start_ialltoall,
    start_ibcast,
    start_ireduce,
    start_ireduce_scatter,
)
from ..nbc.hier import HIER
from ..nbc.iallgather import ALLGATHER_ALGORITHMS
from ..nbc.iallgatherv import ALLGATHERV_ALGORITHMS, balanced_counts
from ..nbc.iallreduce import ALLREDUCE_ALGORITHMS
from ..nbc.ialltoall import ALLTOALL_ALGORITHMS
from ..nbc.ibcast import IBCAST_FANOUTS, bcast_name
from ..nbc.ireduce import REDUCE_ALGORITHMS
from ..nbc.ireduce_scatter import REDUCE_SCATTER_ALGORITHMS
from ..nbc.request import NBCRequest
from ..sim.mpi import MPIContext
from ..units import KiB
from .function import CollFunction, CollSpec, FunctionSet

__all__ = [
    "IBCAST_SEGSIZES",
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

#: the paper's name for an algorithm, where it differs from the table's
_LABELS = {"bruck": "dissemination"}


def _rows(algorithms: Sequence, hierarchical: bool) -> tuple:
    """A family's table keys in order, the two-level row only if
    ``hierarchical``."""
    return tuple(a for a in algorithms if hierarchical or a != HIER)


def _seg_label(segsize: int) -> str:
    return "noseg" if segsize == 0 else f"seg{segsize // KiB}KB"


# -- makers: ``partial(maker, *params)(ctx, spec, buffers) -> NBCRequest`` --


def _ibcast(fanout, segsize: int, ctx: MPIContext, spec: CollSpec,
            buffers) -> NBCRequest:
    return start_ibcast(ctx, spec.nbytes, spec.root, fanout, segsize,
                        comm=spec.comm, buf=(buffers or {}).get("data"))


def _ireduce(algorithm: str, segsize: int, ctx: MPIContext, spec: CollSpec,
             buffers) -> NBCRequest:
    return start_ireduce(ctx, spec.nbytes, spec.root, algorithm,
                         comm=spec.comm, buf=(buffers or {}).get("data"),
                         segsize=segsize)


def _ialltoall(algorithm: str, ctx: MPIContext, spec: CollSpec,
               buffers) -> NBCRequest:
    buffers = buffers or {}
    return start_ialltoall(ctx, spec.nbytes, algorithm, comm=spec.comm,
                           sendbuf=buffers.get("send"),
                           recvbuf=buffers.get("recv"))


def _iallgather(algorithm: str, ctx: MPIContext, spec: CollSpec,
                buffers) -> NBCRequest:
    buffers = buffers or {}
    return start_iallgather(ctx, spec.nbytes, algorithm, comm=spec.comm,
                            sendbuf=buffers.get("send"),
                            recvbuf=buffers.get("recv"))


def _iallgatherv(algorithm: str, ctx: MPIContext, spec: CollSpec,
                 buffers) -> NBCRequest:
    buffers = buffers or {}
    return start_iallgatherv(
        ctx, balanced_counts(spec.nbytes, spec.comm.size), algorithm,
        comm=spec.comm, sendbuf=buffers.get("send"),
        recvbuf=buffers.get("recv"))


def _ireduce_scatter(algorithm: str, ctx: MPIContext, spec: CollSpec,
                     buffers) -> NBCRequest:
    buffers = buffers or {}
    return start_ireduce_scatter(ctx, spec.nbytes, algorithm, comm=spec.comm,
                                 sendbuf=buffers.get("data"),
                                 recvbuf=buffers.get("recv"))


def _iallreduce(algorithm: str, ctx: MPIContext, spec: CollSpec,
                buffers) -> NBCRequest:
    return start_iallreduce(ctx, spec.nbytes, algorithm, comm=spec.comm,
                            buf=(buffers or {}).get("data"))


def _algorithm_set(name: str, maker, algorithms: Sequence[str]) -> FunctionSet:
    """One candidate per algorithm, its one attribute the algorithm's
    label (its name in the paper)."""
    return FunctionSet(name, [
        CollFunction(name=_LABELS.get(a, a), maker=partial(maker, a),
                     attributes={"algorithm": _LABELS.get(a, a)})
        for a in algorithms
    ])


def ibcast_function_set(hierarchical: bool = False) -> FunctionSet:
    """The 21-function non-blocking broadcast set (7 fan-outs x 3 segments).

    ``hierarchical=True`` adds the three leader-based two-level variants
    (one per segment size, pseudo fan-out :data:`~repro.nbc.hier.HIER`)
    as first-class candidates the selection logic can pick.
    """
    # the hierarchical set is another tuning problem: its own name keeps
    # its history and checkpoint records apart from the flat set's
    return FunctionSet("ibcast_hier" if hierarchical else "ibcast", [
        CollFunction(
            # "2-ary" -> "2ary_seg32KB"
            name=f"{bcast_name(fanout).replace('-', '')}_"
                 f"{_seg_label(segsize)}",
            maker=partial(_ibcast, fanout, segsize),
            attributes={"fanout": fanout, "segsize": segsize})
        for fanout in IBCAST_FANOUTS + ((HIER,) if hierarchical else ())
        for segsize in IBCAST_SEGSIZES
    ])


def ibcast_mockup_function_set() -> FunctionSet:
    """Single-function set holding the scatter+allgather bcast mock-up.

    A performance-guideline *mock-up candidate* (Hunold): the guideline
    checker measures it stand-alone and asserts the tuned broadcast
    decision is never slower.  It is a row of the broadcast table, so a
    mock-up that wins is adopted by adding it to
    :func:`ibcast_function_set`.
    """
    return FunctionSet("ibcast_mockup", [
        CollFunction("scatter_allgather",
                     partial(_ibcast, "scatter_allgather", 0))])


def ialltoall_function_set(hierarchical: bool = False) -> FunctionSet:
    """The paper's 3-algorithm non-blocking all-to-all set.

    ``hierarchical=True`` adds the leader-based two-level candidate
    (gather / inter-leader pairwise exchange / scatter).
    """
    return _algorithm_set("ialltoall_hier" if hierarchical else "ialltoall",
                          _ialltoall, _rows(ALLTOALL_ALGORITHMS, hierarchical))


def ialltoall_extended_function_set() -> FunctionSet:
    """Non-blocking + blocking all-to-all in one set (§IV-B).

    Blocking functions set the *wait pointer to NULL*: the whole
    operation runs inside ``start``, so the selection logic effectively
    decides at run time whether the code section benefits from
    overlapping at all.
    """
    return FunctionSet("ialltoall_ext", [
        CollFunction(name=("blocking_" if blocking else "") + f.name,
                     maker=f.maker,
                     attributes={**f.attributes, "blocking": blocking},
                     blocking=blocking)
        for blocking in (False, True)
        for f in ialltoall_function_set()
    ])


def iallgather_function_set(size: Optional[int] = None) -> FunctionSet:
    """All-gather set: ring, linear, and (for power-of-two sizes)
    recursive doubling."""
    pow2 = size is None or (size > 0 and size & (size - 1) == 0)
    return _algorithm_set("iallgather", _iallgather, [
        a for a in ALLGATHER_ALGORITHMS
        if pow2 or a != "recursive_doubling"])


def ireduce_function_set() -> FunctionSet:
    """Reduce set: every algorithm unsegmented and in 64 KB segments."""
    return FunctionSet("ireduce", [
        CollFunction(name=f"{algorithm}_{_seg_label(segsize)}",
                     maker=partial(_ireduce, algorithm, segsize),
                     attributes={"algorithm": algorithm, "segsize": segsize})
        for algorithm in REDUCE_ALGORITHMS
        for segsize in (0, 64 * KiB)
    ])


def iallgatherv_function_set() -> FunctionSet:
    """All-gather-v set: linear, ring, and the hierarchical two-level.

    ``spec.nbytes`` is the *total* gathered payload; the per-rank counts
    are the canonical :func:`~repro.nbc.iallgatherv.balanced_counts`
    split (uneven whenever P does not divide the total), so the
    variable-count paths are exercised on every run.
    """
    return _algorithm_set("iallgatherv", _iallgatherv, ALLGATHERV_ALGORITHMS)


def ireduce_scatter_function_set() -> FunctionSet:
    """Reduce-scatter set: pairwise exchange + reduce-then-scatter.

    ``spec.nbytes`` is the per-rank *block* size (each rank contributes
    ``P * nbytes`` in ``"data"`` and receives its reduced block in
    ``"recv"``), mirroring the all-to-all's bytes-per-pair convention.
    """
    return _algorithm_set("ireduce_scatter", _ireduce_scatter,
                          REDUCE_SCATTER_ALGORITHMS)


def iallreduce_function_set() -> FunctionSet:
    """All-reduce set: binomial reduce+bcast, ring, and hierarchical.

    ``spec.nbytes`` is the full vector each rank contributes in
    ``"data"`` (also the in-place result buffer).
    """
    return _algorithm_set("iallreduce", _iallreduce, ALLREDUCE_ALGORITHMS)
