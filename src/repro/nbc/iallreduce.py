"""Non-blocking all-reduce schedules.

Every rank contributes an ``nbytes`` vector in ``"data"`` and ends with
the elementwise reduction of all contributions in the same buffer.
Three candidates spanning the latency/bandwidth/topology trade-offs:

* **reduce_bcast** — combine up a binomial tree to rank 0, broadcast
  the result back down the same tree; ``2*log2(P)`` latency terms but
  every hop carries the full vector;
* **ring** — ring reduce-scatter followed by ring all-gather over
  near-equal blocks; bandwidth-optimal (each rank moves ``~2*nbytes``
  regardless of P), latency ``2*(P-1)*alpha``;
* **hier** — the same up-then-down exchange over the leader-based
  two-level tree of :func:`repro.nbc.hier.hier_bcast_tree`: members
  combine into their node leader, leaders combine binomially, and the
  result flows back down — the full vector crosses the network
  ``2*(nnodes-1)`` times total instead of ``2*(P-1)``.

Extra buffers: ``"acc"`` (``nbytes``) and, on every rank that combines
an incoming contribution, ``"in"`` (at most ``nbytes``); the compiled
plan derives both from its ops, so a tree leaf allocates no ``"in"``.
Combine order is deterministic per rank but differs between
candidates; exactness tests should use integer-valued payloads.
"""

from __future__ import annotations

import numpy as np

from ..errors import ScheduleError
from .hier import Groups, as_partition
from .iallgatherv import balanced_counts
from .ibcast import BINOMIAL, bcast_tree
from .schedule import SCHEDULE_CACHE, Schedule

__all__ = [
    "ALLREDUCE_ALGORITHMS",
    "build_iallreduce",
    "compiled_iallreduce",
]

ALLREDUCE_ALGORITHMS = ("reduce_bcast", "ring", "hier")


def build_iallreduce(
    size: int,
    rank: int,
    nbytes: int,
    algorithm: str,
    dtype: str = "float64",
    op: str = "sum",
    groups: Groups = (),
) -> Schedule:
    """Build this rank's schedule for an all-reduce of ``nbytes``."""
    if size <= 0 or not 0 <= rank < size:
        raise ScheduleError(f"bad allreduce geometry size={size} rank={rank}")
    if nbytes < 0:
        raise ScheduleError(f"negative payload {nbytes}")
    if algorithm == "reduce_bcast":
        parent, children_v = bcast_tree(size, rank, BINOMIAL)
        return _tree(size, rank, parent, list(children_v), nbytes, dtype, op,
                     name="iallreduce[reduce_bcast]")
    if algorithm == "ring":
        return _ring(size, rank, nbytes, dtype, op)
    if algorithm == "hier":
        part = as_partition(groups, size)
        peers = part.bcast_peers(part.groups[0][0])[rank]
        return _tree(size, rank, peers[0], list(peers[1:]), nbytes, dtype, op,
                     name="iallreduce[hier]")
    raise ScheduleError(
        f"unknown allreduce algorithm {algorithm!r}; "
        f"expected one of {ALLREDUCE_ALGORITHMS}")


def _tree(size: int, rank: int, parent: int, children: list[int],
          nbytes: int, dtype: str, op: str, name: str) -> Schedule:
    """Reduce up, then broadcast down, an arbitrary spanning tree.

    The tree shape is the only degree of freedom — a binomial tree gives
    the flat candidate, the two-level leader tree the hierarchical one.
    Children are combined in reverse declaration order so that (for the
    hierarchical tree) the cheap same-node members fold in while the
    deeper leader subtrees are still in flight.
    """
    sched = Schedule(name=name)
    sched.uniform_tag_span = 2  # tagoff 0 = reduce up, 1 = result down
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
    if children:
        sched.round()
        for c in children:
            sched.send(c, nbytes, tagoff=1, src=("acc", 0, nbytes))
    sched.round()
    sched.copy(nbytes, src=("acc", 0, nbytes), dst=("data", 0, nbytes))
    return sched


def _ring(size: int, rank: int, nbytes: int, dtype: str, op: str) -> Schedule:
    # block boundaries must fall on element boundaries or the combines
    # would split a value in half
    item = np.dtype(dtype).itemsize
    if nbytes % item:
        raise ScheduleError(
            f"allreduce payload {nbytes} not a multiple of {dtype} size")
    counts = tuple(c * item for c in balanced_counts(nbytes // item, size))
    offs = [0]
    for c in counts:
        offs.append(offs[-1] + c)
    sched = Schedule(name="iallreduce[ring]")
    sched.uniform_tag_span = max(1, 2 * (size - 1))
    sched.round()
    sched.copy(nbytes, src=("data", 0, nbytes), dst=("acc", 0, nbytes))
    right = (rank + 1) % size
    left = (rank - 1) % size

    # phase 1: ring reduce-scatter — after step s this rank holds the
    # partial sum of s+2 contributions for block (rank - s - 1)
    for s in range(size - 1):
        bout = (rank - s) % size
        bin_ = (rank - s - 1) % size
        sched.round()
        if counts[bin_]:
            sched.recv(left, counts[bin_], tagoff=s,
                       dst=("in", 0, counts[bin_]))
        if counts[bout]:
            sched.send(right, counts[bout], tagoff=s,
                       src=("acc", offs[bout], counts[bout]))
        if not counts[bin_] and not counts[bout]:
            sched.copy(0)
        sched.round()
        sched.combine(counts[bin_], src=("in", 0, counts[bin_]),
                      dst=("acc", offs[bin_], counts[bin_]),
                      dtype=dtype, op=op)

    # phase 2: ring all-gather of the fully reduced blocks (this rank
    # finished phase 1 owning block rank+1)
    for s in range(size - 1):
        bout = (rank + 1 - s) % size
        bin_ = (rank - s) % size
        sched.round()
        if counts[bin_]:
            sched.recv(left, counts[bin_], tagoff=(size - 1) + s,
                       dst=("acc", offs[bin_], counts[bin_]))
        if counts[bout]:
            sched.send(right, counts[bout], tagoff=(size - 1) + s,
                       src=("acc", offs[bout], counts[bout]))
        if not counts[bin_] and not counts[bout]:
            sched.copy(0)

    sched.round()
    sched.copy(nbytes, src=("acc", 0, nbytes), dst=("data", 0, nbytes))
    return sched


def compiled_iallreduce(size: int, rank: int, nbytes: int, algorithm: str,
                        dtype: str = "float64", op: str = "sum",
                        groups: Groups = ()):
    """Cached compiled plan for :func:`build_iallreduce`.

    ``groups`` enters the key as its interned partition (see
    :func:`~repro.nbc.hier.as_partition`).
    """
    if groups:
        groups = as_partition(groups, size)
    return SCHEDULE_CACHE.get(
        ("allreduce", algorithm, size, rank, nbytes, 0, groups, dtype, op),
        lambda: build_iallreduce(size, rank, nbytes, algorithm,
                                 dtype=dtype, op=op, groups=groups),
    )
