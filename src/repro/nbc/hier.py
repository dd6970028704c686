"""Node partitions for the hierarchical (leader-based two-level) algorithms.

On SMP clusters the network is two-tier: ranks on one node talk through
shared memory, ranks on different nodes through the interconnect.  A
two-level algorithm routes all inter-node traffic through one *leader*
rank per node (Jocksch et al.; the Wickramasinghe & Lumsdaine survey),
so each payload crosses the network once per node instead of once per
rank.  Every family that has one declares it as an ordinary row of its
algorithm table, keyed :data:`HIER` — the all-to-all
(:mod:`repro.nbc.ialltoall`), broadcast (:mod:`repro.nbc.ibcast`),
all-gather-v and all-reduce — and that row is the only one that runs
on a node partition, passed as ``groups=``.

Groups
------
``groups`` is a partition of the communicator's local ranks into
per-node tuples, ordered by each group's smallest member.
:func:`partition_for_comm` derives it from the simulated topology; tests
pass hand-made partitions (uneven leaders, non-power-of-two counts)
directly.

A :class:`Partition` wraps a validated ``groups`` tuple with the tables
derived from it (rank → group, and the per-root broadcast trees that
:func:`repro.nbc.ibcast.two_level_tree` memoizes on it).  Partitions
are interned, so equal partitions are one object: the object itself is
the partition's token in schedule-cache keys, hashed in O(1) instead of
rehashing the O(P) nested tuple on every lookup.  The entry points
accept a plain ``groups`` tuple or a :class:`Partition`.
"""

from __future__ import annotations

import weakref
from typing import Union

from ..errors import ScheduleError

__all__ = [
    "HIER",
    "Partition",
    "as_partition",
    "partition_for_comm",
    "validate_groups",
]

Groups = tuple[tuple[int, ...], ...]

#: the key of every family's two-level row in its algorithm table (the
#: broadcast's pseudo fan-out): the only rows that run on a node partition
HIER = "hier"


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

    __slots__ = ("groups", "size", "group_of", "max_group", "trees",
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
        #: root -> every rank's ``(parent, *children)`` in the two-level
        #: broadcast tree (filled by :func:`repro.nbc.ibcast.two_level_tree`)
        self.trees: dict[int, tuple] = {}

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Partition {len(self.groups)} groups of {self.size} ranks>"


_PARTITIONS: "weakref.WeakValueDictionary[Groups, Partition]" = (
    weakref.WeakValueDictionary())


def as_partition(groups: Union[Groups, Partition],
                 size: int = -1) -> Partition:
    """The interned :class:`Partition` of ``groups``.

    A :class:`Partition` passes through; a ``groups`` tuple is validated
    the first time it is seen (lists, which cannot key the intern
    table, are rejected).  With ``size`` given, the partition must
    cover exactly ``range(size)``.  No ``groups`` at all (``None`` or
    ``()``) is the error of a two-level row called without its node
    partition.
    """
    if isinstance(groups, Partition):
        part = groups
    elif not groups:
        raise ScheduleError(
            f"the {HIER!r} algorithm needs the node partition: pass groups=")
    else:
        try:
            part = _PARTITIONS.get(groups)
        except TypeError:  # lists: the partition must be hashable
            raise ScheduleError(
                f"groups must be a tuple of per-node rank tuples, "
                f"e.g. ((0, 1), (2, 3)); got {groups!r}") from None
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
