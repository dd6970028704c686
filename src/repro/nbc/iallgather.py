"""Non-blocking all-gather schedules.

ADCL supports All-gather as one of its function-sets (§III-A); we
provide the three classic algorithms so the library is complete:

* **ring** — ``P-1`` rounds, each forwarding one block to the right
  neighbour; bandwidth-optimal, latency ``(P-1) * alpha``;
* **linear** — everybody sends its block to everybody in one round
  (:func:`~repro.nbc.ialltoall.linear_exchange`, the all-to-all's
  emitter, with the whole send buffer going to every peer);
* **recursive doubling** — ``log2 P`` rounds doubling the gathered
  chunk each time (requires a power-of-two process count).

Ring and linear name every peer, and every ``"recv"`` block, by rank
offset, so each compiles one *rotation template* (rank 0's plan, slot
*s* meaning rank ``(rank + s) % P``) bound per request to
:func:`~repro.nbc.schedule.rotation_peers`.  Recursive doubling pairs
``rank XOR 2^k``, which is no rotation: it stays one plan per rank,
bound to :func:`~repro.nbc.schedule.identity_peers`.

Buffers: ``"send"`` is this rank's contribution (``m`` bytes), ``"recv"``
is the full ``P x m`` result.
"""

from __future__ import annotations

import math
from functools import partial

from ..errors import ScheduleError
from .ialltoall import linear_exchange
from .schedule import (
    Schedule,
    algorithm_row,
    compiled_per_rank,
    compiled_rotation,
    peer_block,
)

__all__ = ["ALLGATHER_ALGORITHMS", "compiled_iallgather"]


def _ring(size: int, m: int) -> Schedule:
    sched = Schedule(name="iallgather[ring]")
    sched.round()
    sched.copy(m, src=("send", 0, m), dst=peer_block("recv", 0, m, size))
    # round r forwards block rank - r to the right (rank + 1) and
    # receives block rank - r - 1 from the left (rank - 1)
    for r in range(size - 1):
        sched.round()
        sched.recv(size - 1, m, tagoff=r,
                   dst=peer_block("recv", (-r - 1) % size, m, size))
        sched.send(1, m, tagoff=r, src=peer_block("recv", -r % size, m, size))
    return sched


def _recursive_doubling(size: int, rank: int, m: int) -> Schedule:
    if size & (size - 1):
        raise ScheduleError(
            f"recursive doubling needs a power-of-two size, got {size}"
        )
    sched = Schedule(name="iallgather[rdbl]")
    sched.round()
    sched.copy(m, src=("send", 0, m), dst=("recv", rank * m, m))
    nrounds = int(math.log2(size)) if size > 1 else 0
    for k in range(nrounds):
        d = 1 << k
        peer = rank ^ d
        # after k rounds this rank holds the d-block chunk starting at
        # (rank rounded down to a multiple of d)
        my_base = (rank // d) * d
        peer_base = (peer // d) * d
        nbytes = d * m
        sched.round()
        sched.recv(peer, nbytes, tagoff=k + 1, dst=("recv", peer_base * m, nbytes))
        sched.send(peer, nbytes, tagoff=k + 1, src=("recv", my_base * m, nbytes))
    return sched


#: algorithm -> (binder, emitter ``(size, m)`` of a rotation template
#: or ``(size, rank, m)`` of a per-rank plan)
_ALGORITHMS = {
    "ring": (compiled_rotation, _ring),
    "linear": (compiled_rotation,
               partial(linear_exchange, "iallgather[linear]", personal=False)),
    "recursive_doubling": (compiled_per_rank, _recursive_doubling),
}

ALLGATHER_ALGORITHMS = tuple(_ALGORITHMS)


def compiled_iallgather(size: int, rank: int, m: int, algorithm: str):
    """``(plan, peers)`` of an all-gather of ``m`` bytes per rank: the
    cached rotation template with ``rank``'s rotation table, or the
    cached per-rank plan with the identity table."""
    bind, emit = algorithm_row(_ALGORITHMS, "allgather", algorithm)
    return bind("allgather", algorithm, size, rank, m, emit, (m,))
