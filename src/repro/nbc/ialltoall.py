"""Non-blocking all-to-all schedules.

The paper's ``Ialltoall`` function-set contains three algorithms
(§III-E):

* **linear** — a single round posting all ``2(P-1)`` requests at once
  (this is also the only algorithm stock LibNBC provides, which is what
  the ADCL-vs-LibNBC comparison in §IV-B exploits);
* **pairwise exchange** — ``P-1`` balanced rounds, round *r* exchanging
  with ranks ``(rank ± r) mod P``;
* **dissemination (Bruck)** — ``ceil(log2 P)`` rounds moving ``~P/2``
  blocks each, with pack/unpack copies; wins for small messages where
  latency dominates, loses for large ones because it moves
  ``log2(P)/2`` times the data.

Every algorithm names its peers by rank offset, so one *rotation
template* per algorithm serves all ranks: the plan rank 0 runs, with
peer slot *s* meaning rank ``(rank + s) % P``, bound per request to
:func:`~repro.nbc.schedule.rotation_peers` by
:func:`~repro.nbc.schedule.compiled_rotation`.

Buffers: ``"send"`` and ``"recv"`` are the user buffers (``P x m``
bytes), addressed by peer through slot-relative
:data:`~repro.nbc.schedule.SlotSpec` blocks; Bruck additionally uses
``"tmp"`` (``P x m``) and the staging areas ``"so"`` / ``"si"`` (the
largest round's block count ``x m``).  The compiled plan derives those
sizes from its own ops
(:attr:`~repro.nbc.schedule.Schedule.scratch`).
"""

from __future__ import annotations

import math

from .schedule import (
    Schedule,
    algorithm_row,
    compiled_rotation,
    peer_block,
)

__all__ = ["ALLTOALL_ALGORITHMS", "compiled_ialltoall"]


def _block(name: str, idx: int, m: int) -> tuple[str, int, int]:
    return (name, idx * m, m)


def _linear(size: int, m: int) -> Schedule:
    sched = Schedule(name="ialltoall[linear]")
    sched.round()
    sched.copy(m, src=peer_block("send", 0, m, size),
               dst=peer_block("recv", 0, m, size))
    # stagger peers so all ranks do not hammer rank 0 first
    for s in range(1, size):
        sched.recv(s, m, tagoff=0, dst=peer_block("recv", s, m, size))
    for s in range(1, size):
        sched.send(s, m, tagoff=0, src=peer_block("send", s, m, size))
    return sched


def _pairwise(size: int, m: int) -> Schedule:
    sched = Schedule(name="ialltoall[pairwise]")
    sched.round()
    sched.copy(m, src=peer_block("send", 0, m, size),
               dst=peer_block("recv", 0, m, size))
    for r in range(1, size):
        sched.round()
        # receive from rank - r, send to rank + r
        sched.recv(size - r, m, tagoff=r,
                   dst=peer_block("recv", size - r, m, size))
        sched.send(r, m, tagoff=r, src=peer_block("send", r, m, size))
    return sched


def _bruck(size: int, m: int) -> Schedule:
    sched = Schedule(name="ialltoall[bruck]")
    # phase 1: local rotation tmp[j] = send[(rank + j) % size]
    sched.round()
    for j in range(size):
        sched.copy(m, src=peer_block("send", j, m, size),
                   dst=_block("tmp", j, m))
    # phase 2: log2(P) exchange rounds with ranks rank + d and rank - d
    nrounds = math.ceil(math.log2(size)) if size > 1 else 0
    for k in range(nrounds):
        d = 1 << k
        blocks = [j for j in range(size) if j & d]
        total = len(blocks) * m
        sched.round()
        # pack the selected blocks into the staging-out buffer
        for i, j in enumerate(blocks):
            sched.copy(m, src=_block("tmp", j, m), dst=_block("so", i, m))
        sched.round()
        sched.recv(size - d, total, tagoff=k + 1, dst=("si", 0, total))
        sched.send(d, total, tagoff=k + 1, src=("so", 0, total))
        # unpack received blocks back into tmp at the same positions
        sched.round()
        for i, j in enumerate(blocks):
            sched.copy(m, src=_block("si", i, m), dst=_block("tmp", j, m))
    # phase 3: inverse rotation recv[(rank - j) % size] = tmp[j]
    sched.round()
    for j in range(size):
        sched.copy(m, src=_block("tmp", j, m),
                   dst=peer_block("recv", -j % size, m, size))
    return sched


#: algorithm -> (binder, emitter ``(size, m)``)
_ALGORITHMS = {
    "linear": (compiled_rotation, _linear),
    "pairwise": (compiled_rotation, _pairwise),
    "bruck": (compiled_rotation, _bruck),
}

ALLTOALL_ALGORITHMS = tuple(_ALGORITHMS)


def compiled_ialltoall(size: int, rank: int, m: int, algorithm: str):
    """``(template, peers)`` of an all-to-all of ``m`` bytes per pair:
    the algorithm's cached rotation template and ``rank``'s
    :func:`~repro.nbc.schedule.rotation_peers` table."""
    bind, emit = algorithm_row(_ALGORITHMS, "alltoall", algorithm)
    return bind("alltoall", algorithm, size, rank, m, emit, (m,))
