"""Non-blocking reduce-scatter schedules.

``Reduce_scatter`` with equal blocks: every rank contributes a ``P*m``
byte vector in ``"data"``; rank *i* ends with the fully reduced *i*-th
``m``-byte block in ``"recv"``.  Two candidates:

* **pairwise** — ``P-1`` balanced exchange rounds; round *r* sends the
  block owned by rank ``(rank+r)`` directly to it and combines the
  contribution arriving from ``(rank-r)`` — each rank only ever reduces
  its own block (Jocksch et al.'s pairwise reduce_scatter);
* **reduce_then_scatter** — the composition mock-up: a binomial reduce
  of the whole vector to rank 0 followed by a linear scatter of the
  blocks.  Moves ``log2(P)`` times the data but pipelines well on fat
  links; also the guideline bound the pairwise candidate must beat.

Extra buffers: ``"acc"`` and ``"in"`` staging, sized by the plan from
its own ops (``m`` bytes for pairwise, ``P*m`` for
reduce_then_scatter).  Like all reductions, the combine order is
deterministic per rank but differs between candidates, so exactness
tests should use integer-valued payloads.
"""

from __future__ import annotations

from ..errors import ScheduleError
from .ireduce import build_ireduce
from .schedule import SCHEDULE_CACHE, Schedule

__all__ = [
    "REDUCE_SCATTER_ALGORITHMS",
    "build_ireduce_scatter",
    "compiled_ireduce_scatter",
]

REDUCE_SCATTER_ALGORITHMS = ("pairwise", "reduce_then_scatter")


def build_ireduce_scatter(
    size: int,
    rank: int,
    m: int,
    algorithm: str,
    dtype: str = "float64",
    op: str = "sum",
) -> Schedule:
    """Build this rank's schedule for an equal-block reduce-scatter."""
    if size <= 0 or not 0 <= rank < size:
        raise ScheduleError(
            f"bad reduce_scatter geometry size={size} rank={rank}")
    if m < 0:
        raise ScheduleError(f"negative block size {m}")
    if algorithm == "pairwise":
        return _pairwise(size, rank, m, dtype, op)
    if algorithm == "reduce_then_scatter":
        return _reduce_then_scatter(size, rank, m, dtype, op)
    raise ScheduleError(
        f"unknown reduce_scatter algorithm {algorithm!r}; "
        f"expected one of {REDUCE_SCATTER_ALGORITHMS}")


def _pairwise(size: int, rank: int, m: int, dtype: str, op: str) -> Schedule:
    sched = Schedule(name="ireduce_scatter[pairwise]")
    sched.uniform_tag_span = max(1, size - 1)
    sched.round()
    sched.copy(m, src=("data", rank * m, m), dst=("acc", 0, m))
    for r in range(1, size):
        sendto = (rank + r) % size
        recvfrom = (rank - r) % size
        sched.round()
        sched.recv(recvfrom, m, tagoff=r - 1, dst=("in", 0, m))
        sched.send(sendto, m, tagoff=r - 1, src=("data", sendto * m, m))
        sched.round()
        sched.combine(m, src=("in", 0, m), dst=("acc", 0, m),
                      dtype=dtype, op=op)
    sched.round()
    sched.copy(m, src=("acc", 0, m), dst=("recv", 0, m))
    return sched


def _reduce_then_scatter(size: int, rank: int, m: int, dtype: str,
                         op: str) -> Schedule:
    # the binomial reduce leaves the fully reduced vector in rank 0's
    # "data"; one extra round scatters the blocks
    sched = build_ireduce(size, rank, 0, size * m, "binomial",
                          dtype=dtype, op=op)
    sched.name = "ireduce_scatter[reduce_then_scatter]"
    span = sched.tag_span
    sched.uniform_tag_span = span + 1
    sched.round()
    if rank == 0:
        for peer in range(1, size):
            sched.send(peer, m, tagoff=span, src=("data", peer * m, m))
        sched.copy(m, src=("data", 0, m), dst=("recv", 0, m))
    else:
        sched.recv(0, m, tagoff=span, dst=("recv", 0, m))
    return sched


def compiled_ireduce_scatter(size: int, rank: int, m: int, algorithm: str,
                             dtype: str = "float64", op: str = "sum"):
    """Cached compiled plan for :func:`build_ireduce_scatter`."""
    return SCHEDULE_CACHE.get(
        ("reduce_scatter", algorithm, size, rank, m, 0, 0, dtype, op),
        lambda: build_ireduce_scatter(size, rank, m, algorithm,
                                      dtype=dtype, op=op),
    )
