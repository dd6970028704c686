"""Non-blocking all-to-all schedules.

The paper's ``Ialltoall`` function-set contains three algorithms
(§III-E):

* **linear** — a single round posting all ``2(P-1)`` requests at once
  (this is also the only algorithm stock LibNBC provides, which is what
  the ADCL-vs-LibNBC comparison in §IV-B exploits); its emitter,
  :func:`linear_exchange`, also builds the linear all-gather;
* **dissemination (Bruck)** — ``ceil(log2 P)`` rounds moving ``~P/2``
  blocks each, with pack/unpack copies; wins for small messages where
  latency dominates, loses for large ones because it moves
  ``log2(P)/2`` times the data;
* **pairwise exchange** — ``P-1`` balanced rounds, round *r* exchanging
  with ranks ``(rank ± r) mod P``.

The table's fourth row, :data:`~repro.nbc.hier.HIER`, is the
leader-based two-level all-to-all over a node partition (gather to the
node leader, pairwise exchange of node-aggregated blocks between
leaders, scatter back; :func:`_hier`).

The paper's three algorithms name their peers by rank offset, so one
*rotation template* per algorithm serves all ranks: the plan rank 0
runs, with peer slot *s* meaning rank ``(rank + s) % P``, bound per
request to :func:`~repro.nbc.schedule.rotation_peers` by
:func:`~repro.nbc.schedule.compiled_rotation`.  The two-level plan
depends on the rank's place in its node, so it stays one plan per rank
(:func:`~repro.nbc.schedule.compiled_per_rank`), keyed on the interned
partition.

Buffers: ``"send"`` and ``"recv"`` are the user buffers (``P x m``
bytes), addressed by peer through slot-relative
:data:`~repro.nbc.schedule.SlotSpec` blocks; Bruck additionally uses
``"tmp"`` (``P x m``) and the staging areas ``"so"`` / ``"si"`` (the
largest round's block count ``x m``), the two-level plan ``"gather"``
and ``"scatter"`` on the leaders.  The compiled plan derives those
sizes from its own ops
(:attr:`~repro.nbc.schedule.Schedule.scratch`).
"""

from __future__ import annotations

import math
from functools import partial
from typing import Optional, Union

from .hier import HIER, Groups, Partition, as_partition
from .schedule import (
    Schedule,
    algorithm_row,
    compiled_per_rank,
    compiled_rotation,
    peer_block,
)

__all__ = ["ALLTOALL_ALGORITHMS", "compiled_ialltoall", "linear_exchange"]


def _block(name: str, idx: int, m: int) -> tuple[str, int, int]:
    return (name, idx * m, m)


def linear_exchange(name: str, size: int, m: int, *,
                    personal: bool) -> Schedule:
    """One round: every receive, then every send, by rank offset.

    Slot *s* gets this rank's ``"send"`` block *s* if ``personal`` (the
    all-to-all), else the whole ``"send"`` buffer (the all-gather).
    """
    def outgoing(s):
        return peer_block("send", s, m, size) if personal else ("send", 0, m)

    sched = Schedule(name=name)
    sched.round()
    sched.copy(m, src=outgoing(0), dst=peer_block("recv", 0, m, size))
    # stagger peers so all ranks do not hammer rank 0 first
    for s in range(1, size):
        sched.recv(s, m, tagoff=0, dst=peer_block("recv", s, m, size))
    for s in range(1, size):
        sched.send(s, m, tagoff=0, src=outgoing(s))
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


def _hier(size: int, rank: int, m: int, part: Partition) -> Schedule:
    """This rank's plan of the leader-based all-to-all over ``part``.

    Three phases, all within LibNBC round semantics:

    1. **gather** — every member ships its full ``"send"`` buffer
       (``P*m`` bytes) to the node leader;
    2. **exchange** — leaders run a pairwise exchange over the node
       count: round *r* packs the blocks destined for node ``g+r`` and
       trades one aggregated ``|g|*|h|*m``-byte message with that node's
       leader (round 0 is the node-local rearrangement, pure copies);
    3. **scatter** — the leader returns each member's assembled ``P*m``
       result, landing in ``"recv"``.

    Only leaders stage data: ``"gather"`` holds every member's send
    buffer, ``"scatter"`` every member's assembled result, and
    ``"so"``/``"si"`` one inter-leader exchange; the plan's
    :attr:`~repro.nbc.schedule.Schedule.scratch` sizes them from these
    ops.

    Each payload block crosses the network once per *node pair* instead
    of once per rank pair — the win (and the candidate the tuner should
    pick) when many ranks share a node and per-message latency
    dominates, e.g. small blocks at high core counts.
    """
    groups = part.groups
    ngroups = len(groups)
    sched = Schedule(name="ialltoall[hier]")
    # tagoffs: 0 = gather, 1 = scatter, 2+r = inter-leader round r; the
    # span must match on every rank, leader or not
    sched.tag_span = 2 + ngroups
    if size == 1:
        sched.round()
        sched.copy(m, src=("send", 0, m), dst=("recv", 0, m))
        return sched
    gidx = part.group_of[rank]
    members = groups[gidx]
    leader = members[0]
    gsz = len(members)
    full = size * m

    if rank != leader:
        sched.round()
        sched.send(leader, full, tagoff=0, src=("send", 0, full))
        sched.round()
        sched.recv(leader, full, tagoff=1, dst=("recv", 0, full))
        return sched

    # -- phase 1: gather every member's send buffer -----------------------
    sched.round()
    sched.copy(full, src=("send", 0, full), dst=("gather", 0, full))
    for k in range(1, gsz):
        sched.recv(members[k], full, tagoff=0,
                   dst=("gather", k * full, full))

    # -- phase 2: pairwise exchange of node-aggregated blocks -------------
    # gather layout: slot k = member k's send buffer; scatter layout:
    # slot q = member q's assembled recv buffer
    for r in range(ngroups):
        if r == 0:
            # node-local traffic: rearrange gather -> scatter directly
            sched.round()
            for k in range(gsz):
                for q in range(gsz):
                    sched.copy(m,
                               src=("gather", k * full + members[q] * m, m),
                               dst=("scatter", q * full + members[k] * m, m))
            continue
        to_grp = groups[(gidx + r) % ngroups]
        from_grp = groups[(gidx - r) % ngroups]
        # pack the blocks every local member addresses to the target node
        sched.round()
        for k in range(gsz):
            for q, j in enumerate(to_grp):
                sched.copy(m, src=("gather", k * full + j * m, m),
                           dst=("so", (k * len(to_grp) + q) * m, m))
        sched.round()
        sched.recv(from_grp[0], len(from_grp) * gsz * m, tagoff=2 + r,
                   dst=("si", 0, len(from_grp) * gsz * m))
        sched.send(to_grp[0], gsz * len(to_grp) * m, tagoff=2 + r,
                   src=("so", 0, gsz * len(to_grp) * m))
        # unpack: sender member k2 (rank i) -> local member q
        sched.round()
        for k2, i in enumerate(from_grp):
            for q in range(gsz):
                sched.copy(m, src=("si", (k2 * gsz + q) * m, m),
                           dst=("scatter", q * full + i * m, m))

    # -- phase 3: scatter each member's assembled result ------------------
    sched.round()
    for q in range(1, gsz):
        sched.send(members[q], full, tagoff=1,
                   src=("scatter", q * full, full))
    sched.copy(full, src=("scatter", 0, full), dst=("recv", 0, full))
    return sched


#: algorithm -> (binder, emitter ``(size, m)`` of a rotation template,
#: or ``(size, rank, m, partition)`` of the two-level per-rank plan)
_ALGORITHMS = {
    "linear": (compiled_rotation,
               partial(linear_exchange, "ialltoall[linear]", personal=True)),
    "bruck": (compiled_rotation, _bruck),
    "pairwise": (compiled_rotation, _pairwise),
    HIER: (compiled_per_rank, _hier),
}

ALLTOALL_ALGORITHMS = tuple(_ALGORITHMS)


def compiled_ialltoall(size: int, rank: int, m: int, algorithm: str,
                       groups: Optional[Union[Groups, Partition]] = None):
    """``(plan, peers)`` of an all-to-all of ``m`` bytes per pair: the
    algorithm's cached rotation template and ``rank``'s
    :func:`~repro.nbc.schedule.rotation_peers` table, or for the
    :data:`~repro.nbc.hier.HIER` row the cached per-rank plan over the
    node partition ``groups`` with the identity table."""
    bind, emit = algorithm_row(_ALGORITHMS, "alltoall", algorithm)
    params = (m, as_partition(groups, size)) if algorithm == HIER else (m,)
    return bind("alltoall", algorithm, size, rank, m, emit, params)
