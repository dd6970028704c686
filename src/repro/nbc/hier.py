"""Hierarchical (leader-based two-level) collective schedules.

On SMP clusters the network is two-tier: ranks on one node talk through
shared memory, ranks on different nodes through the interconnect.  The
flat trees of :mod:`repro.nbc.ibcast` ignore this; the hierarchical
variants here route all inter-node traffic through one *leader* rank per
node (Jocksch et al.; the Wickramasinghe & Lumsdaine survey), so each
payload crosses the network once per node instead of once per rank:

* :func:`build_hier_ibcast` — segmented broadcast down a two-level
  tree: binomial over the node leaders, then leader → node members;
* :func:`build_hier_ialltoall` — gather to the leader, pairwise
  exchange of node-aggregated blocks between leaders, scatter to the
  members.

Groups
------
Every builder takes ``groups``: a partition of the communicator's local
ranks into per-node tuples, ordered by each group's smallest member.
:func:`partition_for_comm` derives it from the simulated topology; tests
pass hand-made partitions (uneven leaders, non-power-of-two counts)
directly.

A :class:`Partition` wraps a validated ``groups`` tuple with the tables
derived from it (rank → group, per-root broadcast peers).  Partitions
are interned, so equal partitions are one object: the object itself is
the partition's token in schedule-cache keys, hashed in O(1) instead of
rehashing the O(P) nested tuple on every lookup.  Builders accept a
plain ``groups`` tuple or a :class:`Partition`.
"""

from __future__ import annotations

import weakref
from typing import Union

from ..errors import ScheduleError
from .ibcast import (
    BINOMIAL,
    bcast_tree,
    check_bcast_geometry,
    compiled_bcast_role,
    emit_pipelined_bcast,
    segment_bounds,
)
from .schedule import SCHEDULE_CACHE, Schedule

__all__ = [
    "Partition",
    "as_partition",
    "partition_for_comm",
    "validate_groups",
    "hier_bcast_tree",
    "build_hier_ibcast",
    "compiled_hier_ibcast",
    "build_hier_ialltoall",
    "compiled_hier_ialltoall",
]

Groups = tuple[tuple[int, ...], ...]


def validate_groups(size: int, groups: Groups) -> None:
    """Check that ``groups`` is a partition of ``range(size)``."""
    seen: list[int] = []
    for g in groups:
        if not g:
            raise ScheduleError("empty group in hierarchical partition")
        seen.extend(g)
    if sorted(seen) != list(range(size)):
        raise ScheduleError(
            f"groups {groups!r} are not a partition of {size} ranks")


class Partition:
    """A validated node partition and the lookup tables derived from it.

    Build one through :func:`as_partition` (which interns it); compare
    and hash by identity.
    """

    __slots__ = ("groups", "size", "group_of", "max_group", "_bcast",
                 "__weakref__")

    def __init__(self, groups: Groups):
        self.size = sum(len(g) for g in groups)
        validate_groups(self.size, groups)
        self.groups = groups
        group_of = [0] * self.size
        for gi, g in enumerate(groups):
            for r in g:
                group_of[r] = gi
        #: rank -> index of its group
        self.group_of = tuple(group_of)
        self.max_group = max((len(g) for g in groups), default=0)
        self._bcast: dict[int, tuple] = {}

    def bcast_peers(self, root: int) -> tuple[tuple[int, ...], ...]:
        """Every rank's ``(parent, *children)`` in the two-level tree.

        Indexed by rank; see :func:`hier_bcast_tree` for the shape.
        Memoized per root.
        """
        table = self._bcast.get(root)
        if table is None:
            table = self._bcast[root] = self._bcast_table(root)
        return table

    def _bcast_table(self, root: int) -> tuple[tuple[int, ...], ...]:
        if not 0 <= root < self.size:
            raise ScheduleError(f"root {root} out of range for {self.size} ranks")
        groups = self.groups
        ridx = self.group_of[root]
        leaders = [root if gi == ridx else g[0] for gi, g in enumerate(groups)]
        nl = len(groups)
        table: list = [None] * self.size
        for gi, members in enumerate(groups):
            leader = leaders[gi]
            parent_v, children_v = bcast_tree(nl, (gi - ridx) % nl, BINOMIAL)
            parent = -1 if parent_v == -1 else leaders[(parent_v + ridx) % nl]
            table[leader] = (
                parent,
                *[leaders[(cv + ridx) % nl] for cv in children_v],
                *[r for r in members if r != leader],
            )
            below_leader = (leader,)
            for r in members:
                if r != leader:
                    table[r] = below_leader
        return tuple(table)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Partition {len(self.groups)} groups of {self.size} ranks>"


_PARTITIONS: "weakref.WeakValueDictionary[Groups, Partition]" = (
    weakref.WeakValueDictionary())


def as_partition(groups: Union[Groups, Partition],
                 size: int = -1) -> Partition:
    """The interned :class:`Partition` of ``groups``.

    A :class:`Partition` passes through; a ``groups`` tuple is validated
    the first time it is seen.  With ``size`` given, the partition must
    cover exactly ``range(size)``.
    """
    if isinstance(groups, Partition):
        part = groups
    else:
        part = _PARTITIONS.get(groups)
        if part is None:
            part = _PARTITIONS[groups] = Partition(groups)
    if size >= 0 and part.size != size:
        raise ScheduleError(
            f"groups {part.groups!r} are not a partition of {size} ranks")
    return part


def partition_for_comm(comm, topology) -> Partition:
    """The :class:`Partition` of ``comm``'s local ranks by hosting node.

    Groups appear in order of their smallest local rank and each group
    lists its members ascending, so the result is canonical for a given
    placement.

    Memoized on the communicator: both inputs are immutable (a revoked
    communicator is replaced by :meth:`~repro.sim.mpi.SimComm.shrink`,
    never mutated), and every candidate maker recomputing the O(P) scan
    per invocation dominates large-P runs otherwise.
    """
    cached = getattr(comm, "_node_groups", None)
    if cached is not None and cached[0] is topology:
        return cached[1]
    by_node: dict[int, list[int]] = {}
    for local in range(comm.size):
        node = topology.node_of(comm.world_rank(local))
        by_node.setdefault(node, []).append(local)
    part = as_partition(tuple(tuple(members) for members in by_node.values()))
    comm._node_groups = (topology, part)
    return part


def hier_bcast_tree(groups: Union[Groups, Partition], rank: int,
                    root: int) -> tuple[int, list[int]]:
    """Parent and children of ``rank`` in the two-level broadcast tree.

    The leader of each group is its first member, except the root's
    group whose leader is the root itself (the data starts there, so
    promoting it saves one hop).  Leaders form a binomial tree rooted at
    the root's leader; every other member hangs directly off its
    leader — within a node the "tree" is flat, shared memory makes a
    deeper shape pointless.  Leader-children precede member-children so
    inter-node forwarding (the long pole) is initiated first.
    """
    peers = as_partition(groups).bcast_peers(root)[rank]
    return peers[0], list(peers[1:])


def build_hier_ibcast(
    size: int,
    rank: int,
    root: int,
    nbytes: int,
    segsize: int,
    groups: Union[Groups, Partition],
) -> Schedule:
    """Build this rank's schedule for a hierarchical segmented broadcast.

    Buffer contract is identical to :func:`~repro.nbc.ibcast.build_ibcast`
    (payload in ``"data"`` on every rank); only the tree shape differs,
    so the flat and hierarchical variants are drop-in interchangeable
    tuning candidates.
    """
    check_bcast_geometry(size, rank, root)
    part = as_partition(groups, size)
    seg_bounds = segment_bounds(nbytes, segsize)
    sched = Schedule(name=f"ibcast[hier,seg={segsize}]")
    if size == 1:
        return sched
    peers = part.bcast_peers(root)[rank]
    return emit_pipelined_bcast(sched, peers[0], list(peers[1:]), seg_bounds)


def compiled_hier_ibcast(size: int, rank: int, root: int, nbytes: int,
                         segsize: int, groups: Union[Groups, Partition]):
    """``(template, peers)`` for :func:`build_hier_ibcast`: the role
    template of ``rank`` in the two-level tree, bound to its peers."""
    check_bcast_geometry(size, rank, root)
    peers = as_partition(groups, size).bcast_peers(root)[rank]
    return compiled_bcast_role("hier", size, nbytes, segsize, peers)


# ---------------------------------------------------------------------------
# hierarchical all-to-all
# ---------------------------------------------------------------------------

def build_hier_ialltoall(size: int, rank: int, m: int,
                         groups: Union[Groups, Partition]) -> Schedule:
    """Build this rank's schedule for a leader-based all-to-all.

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
    :attr:`~repro.nbc.schedule.CompiledSchedule.scratch` sizes them
    from these ops.

    Each payload block crosses the network once per *node pair* instead
    of once per rank pair — the win (and the candidate the tuner should
    pick) when many ranks share a node and per-message latency
    dominates, e.g. small blocks at high core counts.
    """
    if size <= 0 or not 0 <= rank < size:
        raise ScheduleError(f"bad alltoall geometry size={size} rank={rank}")
    if m < 0:
        raise ScheduleError(f"negative block size {m}")
    part = as_partition(groups, size)
    groups = part.groups
    ngroups = len(groups)
    sched = Schedule(name="ialltoall[hier]")
    # tagoffs: 0 = gather, 1 = scatter, 2+r = inter-leader round r; the
    # span must match on every rank, leader or not
    sched.uniform_tag_span = 2 + ngroups
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


def compiled_hier_ialltoall(size: int, rank: int, m: int,
                            groups: Union[Groups, Partition]):
    """Cached compiled plan for :func:`build_hier_ialltoall`."""
    part = as_partition(groups, size)
    return SCHEDULE_CACHE.get(
        ("alltoall", "hier", size, rank, m, 0, part),
        lambda: build_hier_ialltoall(size, rank, m, part),
    )
