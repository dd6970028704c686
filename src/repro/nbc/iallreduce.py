"""Non-blocking all-reduce schedules.

Every rank contributes an ``nbytes`` vector in ``"data"`` and ends with
the elementwise reduction of all contributions in the same buffer.
Three candidates spanning the latency/bandwidth/topology trade-offs:

* **reduce_bcast** — combine up a binomial tree to rank 0, broadcast
  the result back down the same tree; ``2*log2(P)`` latency terms but
  every hop carries the full vector;
* **ring** — ring reduce-scatter followed by ring all-gather over
  near-equal blocks, both the all-gather-v ring
  (:func:`~repro.nbc.iallgatherv.emit_ring`, the first pass combining
  each arriving block into place); bandwidth-optimal (each rank moves
  ``~2*nbytes`` regardless of P), latency ``2*(P-1)*alpha``;
* **hier** — the same up-then-down exchange over the leader-based
  two-level tree of :func:`repro.nbc.ibcast.two_level_tree` (the
  :data:`~repro.nbc.hier.HIER` row, on a node partition): members
  combine into their node leader, leaders combine binomially, and the
  result flows back down — the full vector crosses the network
  ``2*(nnodes-1)`` times total instead of ``2*(P-1)``.

The two tree candidates depend on the rank only through its tree role
(has a parent, number of children), so each compiles one *role
template* per role, bound per request to the rank's ``(parent,
*children)`` (:func:`~repro.nbc.schedule.compiled_role`); ring stays
one plan per rank, bound to :func:`~repro.nbc.schedule.identity_peers`.

Extra buffers: ``"acc"`` (``nbytes``) and, on every rank that combines
an incoming contribution, ``"in"`` (at most ``nbytes``); the compiled
plan derives both from its ops, so a tree leaf allocates no ``"in"``.
Combine order is deterministic per rank but differs between
candidates; exactness tests should use integer-valued payloads.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Union

from ..errors import ScheduleError
from .hier import HIER, Groups, Partition, as_partition
from .iallgatherv import balanced_counts, emit_ring, offsets
from .ibcast import BINOMIAL, tree_peers, two_level_tree
from .schedule import (
    Schedule,
    algorithm_row,
    check_geometry,
    compiled_per_rank,
    compiled_role,
)

__all__ = [
    "ALLREDUCE_ALGORITHMS",
    "build_iallreduce",
    "compiled_iallreduce",
]

#: element byte size of each numpy type name, so a size-only ring plan
#: compiles without loading numpy
_ITEMSIZE = {
    f"{kind}{bits}": bits // 8
    for kind, widths in (("int", (8, 16, 32, 64)), ("uint", (8, 16, 32, 64)),
                         ("float", (16, 32, 64)), ("complex", (64, 128)))
    for bits in widths
}


def itemsize(dtype) -> int:
    """Byte size of one ``dtype`` element: numpy's sized type names
    (``"float64"``, ``"int32"``, ...) resolve from a table, any other
    spelling through ``numpy.dtype``, which rejects an unknown one."""
    size = _ITEMSIZE.get(dtype) if isinstance(dtype, str) else None
    if size is None:
        import numpy as np

        size = np.dtype(dtype).itemsize
    return size


def _tree(algorithm: str, nbytes: int, dtype: str, op: str, parent: int,
          children: list[int]) -> Schedule:
    """Reduce up, then broadcast down, an arbitrary spanning tree.

    The tree shape is the only degree of freedom — a binomial tree gives
    the flat candidate, the two-level leader tree the hierarchical one.
    ``parent``/``children`` are real ranks or role-template slots, as in
    :func:`~repro.nbc.ireduce.emit_reduce`.  Children are combined in
    reverse declaration order so that (for the hierarchical tree) the
    cheap same-node members fold in while the deeper leader subtrees
    are still in flight.
    """
    sched = Schedule(name=f"iallreduce[{algorithm}]")
    sched.tag_span = 2  # tagoff 0 = reduce up, 1 = result down
    if parent == -1 and not children:
        return sched  # one rank: the data already is the result
    sched.round()
    sched.copy(nbytes, src=("data", 0, nbytes), dst=("acc", 0, nbytes))
    for c in reversed(children):
        sched.round()
        sched.recv(c, nbytes, tagoff=0, dst=("in", 0, nbytes))
        sched.round()
        sched.combine(nbytes, src=("in", 0, nbytes), dst=("acc", 0, nbytes),
                      dtype=dtype, op=op)
    if parent != -1:
        sched.round()
        sched.send(parent, nbytes, tagoff=0, src=("acc", 0, nbytes))
        sched.round()
        sched.recv(parent, nbytes, tagoff=1, dst=("acc", 0, nbytes))
    sched.round()
    for c in children:
        sched.send(c, nbytes, tagoff=1, src=("acc", 0, nbytes))
    sched.round()
    sched.copy(nbytes, src=("acc", 0, nbytes), dst=("data", 0, nbytes))
    return sched


def _ring(size: int, rank: int, nbytes: int, dtype: str, op: str) -> Schedule:
    # block boundaries must fall on element boundaries or the combines
    # would split a value in half
    item = itemsize(dtype)
    if nbytes % item:
        raise ScheduleError(
            f"allreduce payload {nbytes} not a multiple of {dtype} size")
    counts = tuple(c * item for c in balanced_counts(nbytes // item, size))
    offs = offsets(counts)
    sched = Schedule(name="iallreduce[ring]")
    sched.tag_span = max(1, 2 * (size - 1))
    if size == 1:
        return sched
    sched.round()
    sched.copy(nbytes, src=("data", 0, nbytes), dst=("acc", 0, nbytes))
    # reduce-scatter: after round r this rank holds the partial sum of
    # r+2 contributions for block (rank - r - 1), so it ends owning the
    # fully reduced block rank+1, which the all-gather then circulates
    emit_ring(sched, size, rank, rank, counts, offs, "acc", tag0=0,
              combine=(dtype, op))
    emit_ring(sched, size, rank, rank + 1, counts, offs, "acc",
              tag0=size - 1)
    sched.round()
    sched.copy(nbytes, src=("acc", 0, nbytes), dst=("data", 0, nbytes))
    return sched


def _binomial_tree(size: int, groups) -> tuple[tuple[int, ...], ...]:
    """Every rank's ``(parent, *children)`` in the binomial tree rooted
    at rank 0."""
    return tree_peers(size, 0, BINOMIAL)


def _two_level_tree(size: int, groups) -> tuple[tuple[int, ...], ...]:
    """Every rank's ``(parent, *children)`` in the two-level tree rooted
    at the first group's leader."""
    part = as_partition(groups, size)
    return two_level_tree(part, part.groups[0][0])


#: algorithm -> (binder, emitter ``(size, rank, nbytes, dtype, op)`` of
#: a per-rank plan, or the ``(size, groups)`` peer table of the tree a
#: role template reduces up and broadcasts down)
_ALGORITHMS = {
    "reduce_bcast": (compiled_role, _binomial_tree),
    "ring": (compiled_per_rank, _ring),
    HIER: (compiled_role, _two_level_tree),
}

ALLREDUCE_ALGORITHMS = tuple(_ALGORITHMS)


def _tree_peers(size: int, rank: int, nbytes: int, tree,
                groups) -> tuple[int, ...]:
    """``(parent, *children)`` of ``rank`` in ``tree``, once the
    geometry checked out."""
    check_geometry("allreduce", size, rank, nbytes)
    return tree(size, groups)[rank]


def build_iallreduce(
    size: int,
    rank: int,
    nbytes: int,
    algorithm: str,
    dtype: str = "float64",
    op: str = "sum",
    groups: Optional[Union[Groups, Partition]] = None,
) -> Schedule:
    """Build this rank's schedule for an all-reduce of ``nbytes``.

    Peers are real ranks (run it bound to
    :func:`~repro.nbc.schedule.identity_peers`): this is the per-rank
    reference the role templates of :func:`compiled_iallreduce` equal.
    """
    bind, fn = algorithm_row(_ALGORITHMS, "allreduce", algorithm)
    if bind is compiled_per_rank:
        check_geometry("allreduce", size, rank, nbytes)
        return fn(size, rank, nbytes, dtype, op)
    parent, *children = _tree_peers(size, rank, nbytes, fn, groups)
    return _tree(algorithm, nbytes, dtype, op, parent, children)


def compiled_iallreduce(size: int, rank: int, nbytes: int, algorithm: str,
                        dtype: str = "float64", op: str = "sum",
                        groups: Optional[Union[Groups, Partition]] = None):
    """``(plan, peers)`` for :func:`build_iallreduce` (same arguments):
    the tree algorithms' role template of ``rank`` bound to its tree
    peers, or ring's cached per-rank plan with the identity table."""
    bind, fn = algorithm_row(_ALGORITHMS, "allreduce", algorithm)
    if bind is compiled_per_rank:
        return bind("allreduce", algorithm, size, rank, nbytes, fn,
                    (nbytes, dtype, op))
    return bind("allreduce", algorithm, size,
                _tree_peers(size, rank, nbytes, fn, groups),
                partial(_tree, algorithm), (nbytes, dtype, op))
