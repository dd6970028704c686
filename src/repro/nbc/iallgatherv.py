"""Non-blocking all-gather-v schedules (variable per-rank block sizes).

``Allgatherv`` generalizes the all-gather: rank *i* contributes
``counts[i]`` bytes, and every rank ends up with the concatenation of
all contributions in rank order.  Zero-length contributions are legal
(the empty-block rule of :mod:`repro.nbc.schedule`).  Three candidates:

* **linear** — everybody sends its block to everybody in one round;
* **ring** — ``P-1`` rounds forwarding one (variable-size) block to the
  right neighbour; bandwidth-optimal;
* **hier** — leader-based two-level over a node partition (the
  :data:`~repro.nbc.hier.HIER` row, see :mod:`repro.nbc.hier`):
  members hand their block to the node leader, leaders run the ring over
  nodes forwarding one node's blocks per round, then each leader
  replicates the assembled result to its members.

Buffers: ``"send"`` is this rank's contribution (``counts[rank]``
bytes), ``"recv"`` the concatenated result (``sum(counts)`` bytes).

The ring is :func:`emit_ring`, shared with the ring all-reduce and the
scatter+allgather mock-up.  Op sizes follow ``counts[rank]``, so every
row stays one plan per rank.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Optional, Union

from ..errors import ScheduleError
from .hier import HIER, Groups, Partition, as_partition
from .schedule import Schedule, algorithm_row, compiled_per_rank

__all__ = [
    "ALLGATHERV_ALGORITHMS",
    "balanced_counts",
    "compiled_iallgatherv",
    "emit_ring",
    "offsets",
]


def balanced_counts(total: int, size: int) -> tuple[int, ...]:
    """Split ``total`` bytes over ``size`` ranks as evenly as possible.

    The first ``total % size`` ranks get one extra byte — the canonical
    vector the ADCL function-set uses when only a total payload is
    specified (genuinely uneven whenever ``size`` does not divide
    ``total``, which keeps the v-paths exercised).
    """
    base, extra = divmod(total, size)
    return tuple(base + (1 if i < extra else 0) for i in range(size))


def offsets(counts) -> list[int]:
    """Prefix sums of ``counts``: each block's offset, then the total."""
    return list(accumulate(counts, initial=0))


def emit_ring(sched: Schedule, size: int, rank: int, first: int, counts,
              offs, buf: str, tag0: int, combine=None) -> None:
    """Append the ``size - 1`` rounds of a ring over the blocks of
    ``buf`` (block *i*: ``counts[i]`` bytes at ``offs[i]``).

    Round *r* sends block ``first - r`` right and receives block
    ``first - r - 1`` from the left on tag ``tag0 + r``.
    ``combine=(dtype, op)`` lands each block in ``"in"`` and reduces it
    into place in a second round.
    """
    right = (rank + 1) % size
    left = (rank - 1) % size
    for r in range(size - 1):
        out = (first - r) % size
        inc = (first - r - 1) % size
        block = (buf, offs[inc], counts[inc])
        sched.round()
        sched.recv(left, counts[inc], tagoff=tag0 + r,
                   dst=("in", 0, counts[inc]) if combine else block)
        sched.send(right, counts[out], tagoff=tag0 + r,
                   src=(buf, offs[out], counts[out]))
        if combine:
            sched.round()
            sched.combine(counts[inc], src=("in", 0, counts[inc]), dst=block,
                          dtype=combine[0], op=combine[1])


def _linear(size: int, rank: int, counts) -> Schedule:
    offs = offsets(counts)
    sched = Schedule(name="iallgatherv[linear]")
    sched.tag_span = 1
    sched.round()
    sched.copy(counts[rank], src=("send", 0, counts[rank]),
               dst=("recv", offs[rank], counts[rank]))
    for i in range(1, size):
        peer = (rank + i) % size
        sched.recv(peer, counts[peer], tagoff=0,
                   dst=("recv", offs[peer], counts[peer]))
    for i in range(1, size):
        sched.send((rank + i) % size, counts[rank], tagoff=0,
                   src=("send", 0, counts[rank]))
    return sched


def _ring(size: int, rank: int, counts) -> Schedule:
    offs = offsets(counts)
    sched = Schedule(name="iallgatherv[ring]")
    sched.tag_span = max(1, size - 1)
    sched.round()
    sched.copy(counts[rank], src=("send", 0, counts[rank]),
               dst=("recv", offs[rank], counts[rank]))
    emit_ring(sched, size, rank, rank, counts, offs, "recv", tag0=0)
    return sched


def _hier(size: int, rank: int, counts, part: Partition) -> Schedule:
    offs = offsets(counts)
    total = offs[-1]
    groups = part.groups
    ngroups = len(groups)
    maxg = part.max_group
    sched = Schedule(name="iallgatherv[hier]")
    # tagoffs: 0 = intra gather, 1 + r*maxg + k = ring round r block k,
    # last = intra replication of the assembled result
    span = 1 + max(0, ngroups - 1) * maxg + 1
    sched.tag_span = span
    gidx = part.group_of[rank]
    members = groups[gidx]
    leader = members[0]

    if rank != leader:
        sched.send(leader, counts[rank], tagoff=0,
                   src=("send", 0, counts[rank]))
        sched.round()
        sched.recv(leader, total, tagoff=span - 1, dst=("recv", 0, total))
        return sched

    # leader: collect the node's blocks straight into place
    sched.round()
    sched.copy(counts[rank], src=("send", 0, counts[rank]),
               dst=("recv", offs[rank], counts[rank]))
    for member in members[1:]:
        sched.recv(member, counts[member], tagoff=0,
                   dst=("recv", offs[member], counts[member]))

    # ring over node leaders: round r forwards the blocks of node
    # (gidx - r) to the right while receiving node (gidx - r - 1)'s
    right = groups[(gidx + 1) % ngroups][0]
    left = groups[(gidx - 1) % ngroups][0]
    for r in range(ngroups - 1):
        out_grp = groups[(gidx - r) % ngroups]
        in_grp = groups[(gidx - r - 1) % ngroups]
        sched.round()
        for k, member in enumerate(in_grp):
            sched.recv(left, counts[member], tagoff=1 + r * maxg + k,
                       dst=("recv", offs[member], counts[member]))
        for k, member in enumerate(out_grp):
            sched.send(right, counts[member], tagoff=1 + r * maxg + k,
                       src=("recv", offs[member], counts[member]))

    # replicate the assembled result to the node members
    sched.round()
    for member in members[1:]:
        sched.send(member, total, tagoff=span - 1, src=("recv", 0, total))
    return sched


#: algorithm -> (binder, emitter ``(size, rank, counts)``, or
#: ``(size, rank, counts, partition)`` for the two-level row)
_ALGORITHMS = {
    "linear": (compiled_per_rank, _linear),
    "ring": (compiled_per_rank, _ring),
    HIER: (compiled_per_rank, _hier),
}

ALLGATHERV_ALGORITHMS = tuple(_ALGORITHMS)


def compiled_iallgatherv(size: int, rank: int, counts, algorithm: str,
                         groups: Optional[Union[Groups, Partition]] = None):
    """``(plan, peers)`` of an all-gather-v in which rank *i*
    contributes ``counts[i]`` bytes: the cached per-rank plan with the
    identity table.

    ``groups`` is the node partition of the :data:`~repro.nbc.hier.HIER`
    row, which enters its key as the interned partition (see
    :func:`~repro.nbc.hier.as_partition`); the flat rows take none.
    """
    bind, emit = algorithm_row(_ALGORITHMS, "allgatherv", algorithm)
    counts = tuple(counts)
    if len(counts) != size:
        raise ScheduleError(
            f"need one count per rank: {len(counts)} counts for {size} ranks")
    params = ((counts, as_partition(groups, size)) if algorithm == HIER
              else (counts,))
    # the smallest count is the payload the binder checks non-negative
    return bind("allgatherv", algorithm, size, rank, min(counts, default=0),
                emit, params)
