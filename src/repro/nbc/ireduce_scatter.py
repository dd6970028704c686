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

Pairwise names every peer, and every ``"data"`` block, by rank offset,
so it compiles one *rotation template* (rank 0's plan, slot *s* meaning
rank ``(rank + s) % P``) bound per request to
:func:`~repro.nbc.schedule.rotation_peers`.  Reduce_then_scatter runs
the binomial reduce's emitter (:func:`~repro.nbc.ireduce.emit_reduce`)
on real ranks and ends in a scatter that only rank 0 sends, so it
stays one plan per rank, bound to
:func:`~repro.nbc.schedule.identity_peers`.

Extra buffers: ``"acc"`` and ``"in"`` staging, sized by the plan from
its own ops (``m`` bytes for pairwise, ``P*m`` for
reduce_then_scatter).  Like all reductions, the combine order is
deterministic per rank but differs between candidates, so exactness
tests should use integer-valued payloads.
"""

from __future__ import annotations

from .ibcast import BINOMIAL, bcast_peers
from .ireduce import emit_reduce, parent_step
from .schedule import (
    Schedule,
    algorithm_row,
    compiled_per_rank,
    compiled_rotation,
    peer_block,
)

__all__ = ["REDUCE_SCATTER_ALGORITHMS", "compiled_ireduce_scatter"]


def _pairwise(size: int, m: int, dtype: str, op: str) -> Schedule:
    sched = Schedule(name="ireduce_scatter[pairwise]")
    sched.tag_span = max(1, size - 1)
    sched.round()
    if size == 1:
        # one rank: its own block is the result
        sched.copy(m, src=peer_block("data", 0, m, size), dst=("recv", 0, m))
        return sched
    sched.copy(m, src=peer_block("data", 0, m, size), dst=("acc", 0, m))
    for r in range(1, size):
        # send rank + r its block, combine the one from rank - r
        sched.round()
        sched.recv(size - r, m, tagoff=r - 1, dst=("in", 0, m))
        sched.send(r, m, tagoff=r - 1, src=peer_block("data", r, m, size))
        sched.round()
        sched.combine(m, src=("in", 0, m), dst=("acc", 0, m),
                      dtype=dtype, op=op)
    sched.round()
    sched.copy(m, src=("acc", 0, m), dst=("recv", 0, m))
    return sched


def _reduce_then_scatter(size: int, rank: int, m: int, dtype: str,
                         op: str) -> Schedule:
    # a binomial reduce of the whole vector to rank 0's "data", then one
    # extra round, on the tag after the reduce's, scatters the blocks
    sched = Schedule(name="ireduce_scatter[reduce_then_scatter]")
    span = max(1, (size - 1).bit_length())
    sched.tag_span = span + 1
    parent, *children = bcast_peers(size, rank, 0, BINOMIAL)
    emit_reduce(sched, parent, children, [(0, size * m)],
                parent_step(size, rank, parent), dtype, op)
    sched.round()
    if rank == 0:
        for peer in range(1, size):
            sched.send(peer, m, tagoff=span, src=("data", peer * m, m))
        sched.copy(m, src=("data", 0, m), dst=("recv", 0, m))
    else:
        sched.recv(0, m, tagoff=span, dst=("recv", 0, m))
    return sched


#: algorithm -> (binder, emitter ``(size, m, dtype, op)`` of a rotation
#: template or ``(size, rank, m, dtype, op)`` of a per-rank plan)
_ALGORITHMS = {
    "pairwise": (compiled_rotation, _pairwise),
    "reduce_then_scatter": (compiled_per_rank, _reduce_then_scatter),
}

REDUCE_SCATTER_ALGORITHMS = tuple(_ALGORITHMS)


def compiled_ireduce_scatter(size: int, rank: int, m: int, algorithm: str,
                             dtype: str = "float64", op: str = "sum"):
    """``(plan, peers)`` of an equal-block reduce-scatter of ``m`` bytes
    per rank: the cached rotation template with ``rank``'s rotation
    table, or the cached per-rank plan with the identity table."""
    bind, emit = algorithm_row(_ALGORITHMS, "reduce_scatter", algorithm)
    return bind("reduce_scatter", algorithm, size, rank, m, emit,
                (m, dtype, op))
