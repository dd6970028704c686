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

Buffers: ``"send"`` and ``"recv"`` are the user buffers (``P x m``
bytes); Bruck additionally uses ``"tmp"`` (``P x m``) and the staging
areas ``"so"`` / ``"si"`` (the largest round's block count ``x m``).
The compiled plan derives those sizes from its own ops
(:attr:`~repro.nbc.schedule.CompiledSchedule.scratch`).
"""

from __future__ import annotations

import math

from ..errors import ScheduleError
from .schedule import SCHEDULE_CACHE, Schedule

__all__ = [
    "ALLTOALL_ALGORITHMS",
    "build_ialltoall",
    "compiled_ialltoall",
    "bruck_final_source",
]

#: algorithm names accepted by :func:`build_ialltoall`
ALLTOALL_ALGORITHMS = ("linear", "pairwise", "bruck")


def bruck_final_source(size: int, rank: int, j: int) -> int:
    """After Bruck's exchange phase, ``tmp[j]`` holds data from this rank."""
    return (rank - j) % size


def build_ialltoall(size: int, rank: int, m: int, algorithm: str) -> Schedule:
    """Build this rank's schedule for an all-to-all of ``m`` bytes/pair."""
    if size <= 0 or not 0 <= rank < size:
        raise ScheduleError(f"bad alltoall geometry size={size} rank={rank}")
    if m < 0:
        raise ScheduleError(f"negative block size {m}")
    if algorithm == "linear":
        return _linear(size, rank, m)
    if algorithm == "pairwise":
        return _pairwise(size, rank, m)
    if algorithm == "bruck":
        return _bruck(size, rank, m)
    raise ScheduleError(
        f"unknown alltoall algorithm {algorithm!r}; "
        f"expected one of {ALLTOALL_ALGORITHMS}"
    )


def _block(name: str, idx: int, m: int) -> tuple[str, int, int]:
    return (name, idx * m, m)


def _linear(size: int, rank: int, m: int) -> Schedule:
    sched = Schedule(name="ialltoall[linear]")
    sched.round()
    sched.copy(m, src=_block("send", rank, m), dst=_block("recv", rank, m))
    # stagger peers so all ranks do not hammer rank 0 first
    for i in range(1, size):
        peer = (rank + i) % size
        sched.recv(peer, m, tagoff=0, dst=_block("recv", peer, m))
    for i in range(1, size):
        peer = (rank + i) % size
        sched.send(peer, m, tagoff=0, src=_block("send", peer, m))
    return sched


def _pairwise(size: int, rank: int, m: int) -> Schedule:
    sched = Schedule(name="ialltoall[pairwise]")
    sched.round()
    sched.copy(m, src=_block("send", rank, m), dst=_block("recv", rank, m))
    for r in range(1, size):
        sched.round()
        sendto = (rank + r) % size
        recvfrom = (rank - r) % size
        sched.recv(recvfrom, m, tagoff=r, dst=_block("recv", recvfrom, m))
        sched.send(sendto, m, tagoff=r, src=_block("send", sendto, m))
    return sched


def _bruck(size: int, rank: int, m: int) -> Schedule:
    sched = Schedule(name="ialltoall[bruck]")
    # phase 1: local rotation tmp[j] = send[(rank + j) % size]
    sched.round()
    for j in range(size):
        sched.copy(m, src=_block("send", (rank + j) % size, m),
                   dst=_block("tmp", j, m))
    # phase 2: log2(P) exchange rounds
    nrounds = math.ceil(math.log2(size)) if size > 1 else 0
    for k in range(nrounds):
        d = 1 << k
        blocks = [j for j in range(size) if j & d]
        sendto = (rank + d) % size
        recvfrom = (rank - d) % size
        total = len(blocks) * m
        sched.round()
        # pack the selected blocks into the staging-out buffer
        for i, j in enumerate(blocks):
            sched.copy(m, src=_block("tmp", j, m), dst=_block("so", i, m))
        sched.round()
        sched.recv(recvfrom, total, tagoff=k + 1, dst=("si", 0, total))
        sched.send(sendto, total, tagoff=k + 1, src=("so", 0, total))
        # unpack received blocks back into tmp at the same positions
        sched.round()
        for i, j in enumerate(blocks):
            sched.copy(m, src=_block("si", i, m), dst=_block("tmp", j, m))
    # phase 3: inverse rotation recv[(rank - j) % size] = tmp[j]
    sched.round()
    for j in range(size):
        sched.copy(m, src=_block("tmp", j, m),
                   dst=_block("recv", (rank - j) % size, m))
    return sched


def compiled_ialltoall(size: int, rank: int, m: int, algorithm: str):
    """Cached compiled plan for :func:`build_ialltoall` (same arguments)."""
    return SCHEDULE_CACHE.get(
        ("alltoall", algorithm, size, rank, m, 0, 0),
        lambda: build_ialltoall(size, rank, m, algorithm),
    )
