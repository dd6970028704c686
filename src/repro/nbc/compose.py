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
the root followed by the library's own all-gather-v ring
(:func:`~repro.nbc.iallgatherv.emit_ring`) over those blocks, all
within the LibNBC round semantics — so the mock-up runs on the exact
same progress engine, timer and network model as every real
candidate, which is what makes the comparison fair.  Any payload size
works: when ``n`` runs out before the ranks do, the trailing blocks
are empty (the empty-block rule of :mod:`repro.nbc.schedule`).
"""

from __future__ import annotations

from .iallgatherv import emit_ring, offsets
from .ibcast import check_bcast_geometry, segment_bounds
from .schedule import Schedule, compiled_per_rank

__all__ = ["compiled_scatter_allgather"]


def _scatter_allgather(size: int, rank: int, nbytes: int,
                       root: int) -> Schedule:
    """This rank's schedule for the Bcast ≼ Scatter+Allgather mock-up.

    Block *i* is the *i*-th ``ceil(n/P)``-byte segment of ``"data"``,
    or empty once ``n`` runs out.  Phase 1 (one round): the root sends
    block *i* to rank *i*; phase 2 (``P-1`` rounds): the all-gather-v
    ring circulates the blocks.
    """
    check_bcast_geometry(size, rank, root)
    sched = Schedule(name="ibcast[scatter+allgather]")
    counts = [length for _, length
              in segment_bounds(nbytes, -(-nbytes // size) or 1)]
    counts += [0] * (size - len(counts))
    offs = offsets(counts)

    # phase 1: linear scatter from the root (the root keeps its own
    # block, which is already in place)
    if rank == root:
        for peer in range(size):
            if peer != root:
                sched.send(peer, counts[peer], tagoff=0,
                           src=("data", offs[peer], counts[peer]))
    else:
        sched.recv(root, counts[rank], tagoff=0,
                   dst=("data", offs[rank], counts[rank]))

    # phase 2: ring all-gather of the scattered blocks on tags 1..P-1
    emit_ring(sched, size, rank, rank, counts, offs, "data", tag0=1)
    sched.tag_span = size
    return sched


def compiled_scatter_allgather(size: int, rank: int, root: int, nbytes: int):
    """``(plan, peers)`` of the mock-up (see :func:`_scatter_allgather`):
    the cached per-rank plan with the identity table."""
    return compiled_per_rank("bcast", "scatter+allgather", size, rank,
                             nbytes, _scatter_allgather, (nbytes, root))
