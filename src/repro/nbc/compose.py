"""Composed collective schedules (guideline mock-up candidates).

Performance-guideline verification (Hunold's PGMPITuneLib approach,
see ``repro.guidelines``) compares a tuned collective against a
*mock-up* implementation built from other collectives that subsume it —
the classic example being

    Bcast(n)  ≼  Scatter(n) + Allgather(n)

(van de Geijn's large-message broadcast).  If the composition beats the
tuned decision, the tuner's selection for that scenario violates the
guideline and a defect report is due.

:func:`compiled_scatter_allgather` looks up the composed schedule as one
ordinary :class:`~repro.nbc.schedule.Schedule` over the broadcast
buffer ``"data"``: a linear scatter of ``ceil(n/P)``-byte blocks from
the root followed by a ring all-gather of those blocks, all within the
LibNBC round semantics — so the mock-up runs on the exact same progress
engine, timer and network model as every real candidate, which is what
makes the comparison fair.
"""

from __future__ import annotations

from ..errors import ScheduleError
from .ibcast import check_bcast_geometry
from .schedule import Schedule, compiled_per_rank

__all__ = ["compiled_scatter_allgather"]


def _block_bounds(size: int, nbytes: int) -> list[tuple[int, int]]:
    """``(offset, length)`` of each rank's scatter block of ``nbytes``."""
    m = -(-nbytes // size)  # ceil division
    return [(i * m, min(m, nbytes - i * m)) for i in range(size)]


def _scatter_allgather(size: int, rank: int, nbytes: int,
                       root: int) -> Schedule:
    """This rank's schedule for the Bcast ≼ Scatter+Allgather mock-up.

    Phase 1 (one round): the root sends block ``i`` of ``"data"`` to
    rank ``i``; phase 2 (``P-1`` rounds): a ring all-gather circulates
    the blocks until every rank holds the full payload.  Requires
    ``nbytes >= size`` so every block is non-empty (a zero-byte block
    would leave some rank without a message to forward).
    """
    check_bcast_geometry(size, rank, root)
    if 1 < size > nbytes:
        raise ScheduleError(
            f"scatter+allgather mock-up needs nbytes >= nranks "
            f"(every block non-empty), got {nbytes} < {size}")
    sched = Schedule(name="ibcast[scatter+allgather]")
    if size == 1:
        return sched
    bounds = _block_bounds(size, nbytes)

    # phase 1: linear scatter from the root (virtual block i -> rank i;
    # the root keeps its own block, which is already in place)
    sched.round()
    if rank == root:
        for peer in range(size):
            if peer == root:
                continue
            off, length = bounds[peer]
            sched.send(peer, length, tagoff=0, src=("data", off, length))
    else:
        off, length = bounds[rank]
        sched.recv(root, length, tagoff=0, dst=("data", off, length))

    # phase 2: ring all-gather of the scattered blocks.  Round r
    # forwards the block received r rounds ago to the right neighbour.
    right = (rank + 1) % size
    left = (rank - 1) % size
    for r in range(size - 1):
        outgoing = (rank - r) % size
        incoming = (rank - r - 1) % size
        sched.round()
        off, length = bounds[incoming]
        sched.recv(left, length, tagoff=r + 1, dst=("data", off, length))
        off, length = bounds[outgoing]
        sched.send(right, length, tagoff=r + 1, src=("data", off, length))
    sched.tag_span = size
    return sched


def compiled_scatter_allgather(size: int, rank: int, root: int, nbytes: int):
    """``(plan, peers)`` of the mock-up (see :func:`_scatter_allgather`):
    the cached per-rank plan with the identity table."""
    return compiled_per_rank("bcast", "scatter+allgather", size, rank,
                             nbytes, _scatter_allgather, (nbytes, root))
