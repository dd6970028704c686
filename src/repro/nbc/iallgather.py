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
``rank XOR 2^k``: its one template names the partners and the chunks
they trade by slot, bound to :func:`~repro.nbc.schedule.xor_peers`.

Buffers: ``"send"`` is this rank's contribution (``m`` bytes), ``"recv"``
is the full ``P x m`` result.
"""

from __future__ import annotations

from functools import partial

from ..errors import ScheduleError
from .ialltoall import linear_exchange
from .schedule import (
    Schedule,
    algorithm_row,
    compiled_rotation,
    peer_block,
    rotation_peers,
    xor_peers,
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


def _recursive_doubling(size: int, m: int) -> Schedule:
    if size & (size - 1):
        raise ScheduleError(
            f"recursive doubling needs a power-of-two size, got {size}"
        )
    sched = Schedule(name="iallgather[rdbl]")
    sched.round()
    sched.copy(m, src=("send", 0, m), dst=peer_block("recv", 0, m, size))
    # round k trades the 2^k-block chunk this rank holds for its
    # partner's (slots: see xor_peers)
    nrounds = size.bit_length() - 1
    for k in range(nrounds):
        nbytes = m << k
        chunks = size >> k
        sched.round()
        sched.recv(1 + k, nbytes, tagoff=k + 1,
                   dst=peer_block("recv", 1 + 2 * nrounds + k, nbytes, chunks))
        sched.send(1 + k, nbytes, tagoff=k + 1,
                   src=peer_block("recv", 1 + nrounds + k, nbytes, chunks))
    return sched


#: algorithm -> (peer table, emitter ``(size, m)`` of its template)
_ALGORITHMS = {
    "ring": (rotation_peers, _ring),
    "linear": (rotation_peers,
               partial(linear_exchange, "iallgather[linear]", personal=False)),
    "recursive_doubling": (xor_peers, _recursive_doubling),
}

ALLGATHER_ALGORITHMS = tuple(_ALGORITHMS)


def compiled_iallgather(size: int, rank: int, m: int, algorithm: str):
    """``(template, peers)`` of an all-gather of ``m`` bytes per rank:
    the algorithm's cached template with ``rank``'s peer table."""
    table, emit = algorithm_row(_ALGORITHMS, "allgather", algorithm)
    return compiled_rotation("allgather", algorithm, size, rank, m, emit,
                             (m,), table)
