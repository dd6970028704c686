"""Non-blocking reduce schedules.

The paper converted Open MPI's ``MPI_Reduce`` implementations to LibNBC
schedules alongside Bcast/Allgather/Alltoall (§III-C); we provide the
two classic shapes:

* **binomial** — log2(P) combining tree rooted at ``root``;
* **chain** — a pipeline along the rank line, segmented like the
  broadcast (good for very large payloads).

Each is a broadcast tree of :mod:`repro.nbc.ibcast` — the binomial one
and the fan-out-1 chain — walked from the leaves up by one emitter,
:func:`emit_reduce`.  A rank's plan depends on it only through its
role (has a parent, number of children, and the step ``k`` it sends
up on), so :func:`compiled_ireduce` compiles one *role template* per
role and binds each rank's ``(parent, *children)``
(:func:`~repro.nbc.schedule.compiled_role`).

Buffers: ``"data"`` is this rank's contribution (also the result buffer
on the root), ``"acc"`` the local accumulator, and ``"in"`` the staging
area for incoming contributions.  All three are ``nbytes`` long.
"""

from __future__ import annotations

from functools import partial

from .ibcast import BINOMIAL, segment_bounds, tree_peers
from .schedule import Schedule, algorithm_row, check_geometry, compiled_role

__all__ = ["REDUCE_ALGORITHMS", "build_ireduce", "compiled_ireduce",
           "emit_reduce", "parent_step"]

#: algorithm -> the fan-out of the broadcast tree it reduces along,
#: every algorithm a role template emitted by :func:`emit_reduce`
_ALGORITHMS = {"binomial": BINOMIAL, "chain": 1}

REDUCE_ALGORITHMS = tuple(_ALGORITHMS)


def _peers(size: int, rank: int, root: int, nbytes: int,
           algorithm: str) -> tuple[int, ...]:
    """``(parent, *children)`` of ``rank`` in the algorithm's tree, once
    the geometry checked out."""
    fanout = algorithm_row(_ALGORITHMS, "reduce", algorithm)
    check_geometry("reduce", size, rank, nbytes, root)
    return tree_peers(size, root, fanout)[rank]


def parent_step(size: int, rank: int, parent: int) -> int:
    """``log2((rank - parent) mod size)``: the combining step on which
    ``rank`` hands its partial result up a binomial tree (0 in a chain
    and on the root)."""
    return 0 if parent == -1 else ((rank - parent) % size).bit_length() - 1


def emit_reduce(sched: Schedule, parent: int, children: list[int],
                seg_bounds: list[tuple[int, int]], k: int, dtype: str,
                op: str) -> Schedule:
    """Emit this rank's rounds of a segmented tree reduction.

    ``parent``/``children`` are the peers the ops name (``parent == -1``
    on the root): real ranks in a per-rank schedule, slots in a role
    template, as in :func:`~repro.nbc.ibcast.bcast_schedule`.
    Segment *s* of child *j* arrives on tag offset ``s + j`` and is
    combined in order; the partial result goes up on ``s + k``, where
    ``k`` is :func:`parent_step` (a child's index in its parent's
    binomial children).  A one-rank communicator posts nothing.
    """
    if parent == -1 and not children:
        return sched
    nbytes = seg_bounds[-1][0] + seg_bounds[-1][1]
    sched.round()
    sched.copy(nbytes, src=("data", 0, nbytes), dst=("acc", 0, nbytes))
    for s, (off, length) in enumerate(seg_bounds):
        for j, child in enumerate(children):
            sched.round()
            sched.recv(child, length, tagoff=s + j, dst=("in", off, length))
            sched.round()
            sched.combine(length, src=("in", off, length),
                          dst=("acc", off, length), dtype=dtype, op=op)
        if parent != -1:
            sched.round()
            sched.send(parent, length, tagoff=s + k, src=("acc", off, length))
    if parent == -1:
        sched.round()
        sched.copy(nbytes, src=("acc", 0, nbytes), dst=("data", 0, nbytes))
    return sched


def _reduce_schedule(algorithm: str, size: int, nbytes: int, segsize: int,
                     dtype: str, op: str, k: int, parent: int,
                     children: list[int]) -> Schedule:
    """One rank's or one tree role's reduction (see :func:`emit_reduce`)."""
    # binomial, and chain without segmentation, move one segment
    if algorithm == "chain" and segsize > 0:
        seg_bounds = segment_bounds(nbytes, segsize)
    else:
        seg_bounds = [(0, nbytes)]
    sched = Schedule(name=f"ireduce[{algorithm}]")
    if size > 1:
        # leaves use fewer tag offsets than interior nodes, so pin the
        # reservation to the rank-independent maximum
        sched.tag_span = ((size - 1).bit_length()
                          if algorithm == "binomial" else len(seg_bounds))
    return emit_reduce(sched, parent, children, seg_bounds, k, dtype, op)


def build_ireduce(
    size: int,
    rank: int,
    root: int,
    nbytes: int,
    algorithm: str,
    dtype: str = "float64",
    op: str = "sum",
    segsize: int = 0,
) -> Schedule:
    """Build this rank's schedule for a reduction to ``root``.

    ``segsize`` only affects the chain algorithm (0 = no segmentation).
    Peers are real ranks (run it bound to
    :func:`~repro.nbc.schedule.identity_peers`): this is the per-rank
    reference the role templates of :func:`compiled_ireduce` equal.
    """
    parent, *children = _peers(size, rank, root, nbytes, algorithm)
    return _reduce_schedule(algorithm, size, nbytes, segsize, dtype, op,
                            parent_step(size, rank, parent), parent, children)


def compiled_ireduce(
    size: int,
    rank: int,
    root: int,
    nbytes: int,
    algorithm: str,
    dtype: str = "float64",
    op: str = "sum",
    segsize: int = 0,
):
    """``(template, peers)`` for :func:`build_ireduce` (same arguments):
    the role template of ``rank`` in the tree, bound to its peers."""
    peers = _peers(size, rank, root, nbytes, algorithm)
    return compiled_role("reduce", algorithm, size, peers,
                         partial(_reduce_schedule, algorithm, size),
                         (nbytes, segsize, dtype, op,
                          parent_step(size, rank, peers[0])))
