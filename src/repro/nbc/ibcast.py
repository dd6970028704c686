"""Non-blocking broadcast schedules.

The paper's ``Ibcast`` function-set is parameterized by two attributes
(§III-E):

* **fan-out** of the broadcast tree —

  - ``0``  : linear (the root sends directly to everyone; an "infinite"
    number of children),
  - ``1``  : chain (each process forwards to the next),
  - ``2``–``5`` : k-ary tree with k children per parent,
  - ``BINOMIAL`` : binomial tree,

* **segment size** — the message is split into pipeline segments of
  32 KB / 64 KB / 128 KB; segment *s* travels down the tree one round
  behind segment *s−1*.

``7 fan-out values x 3 segment sizes = 21`` implementations, matching
the paper.  The table's eighth row, pseudo fan-out
:data:`~repro.nbc.hier.HIER`, is the two-level tree of a node partition
(:func:`two_level_tree`): a binomial tree over the node leaders, then
leader → node members.  Every tree row's tree depends on a rank only
through its role, so each compiles one role template per role
(:func:`~repro.nbc.schedule.compiled_role`), and all of them run the
same pipelined rounds (:func:`bcast_schedule`).

The last row, ``"scatter_allgather"``, is the guideline checker's
mock-up ``Bcast ≼ Scatter + Allgather`` (:func:`_scatter_allgather`),
not in the paper's set: its root scatters, so it compiles one plan per
rank (:func:`~repro.nbc.schedule.compiled_per_rank`) and ignores
``segsize`` and ``groups``.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from typing import Optional, Union

from ..errors import ScheduleError
from .hier import HIER, Groups, Partition, as_partition
from .iallgatherv import emit_ring, offsets
from .schedule import (
    Schedule,
    algorithm_row,
    check_geometry,
    compiled_per_rank,
    compiled_role,
)

__all__ = ["BINOMIAL", "BCAST_ALGORITHMS", "build_ibcast", "compiled_ibcast",
           "bcast_name", "bcast_tree", "bcast_peers", "bcast_schedule",
           "check_bcast_geometry", "segment_bounds", "tree_peers",
           "two_level_tree", "IBCAST_FANOUTS"]

#: sentinel fan-out value selecting the binomial tree (the paper's "N")
BINOMIAL = -1

#: fan-out -> algorithm name: the paper's seven fan-outs and the
#: two-level tree of a node partition, each a role template emitted by
#: :func:`bcast_schedule`, then the scatter+allgather row, a per-rank
#: plan emitted by :func:`_scatter_allgather`
_ALGORITHMS = {0: "linear", 1: "chain", 2: "2-ary", 3: "3-ary", 4: "4-ary",
               5: "5-ary", BINOMIAL: "binomial", HIER: "hier",
               "scatter_allgather": "scatter+allgather"}

BCAST_ALGORITHMS = tuple(_ALGORITHMS)

#: the fan-out values of the paper's function-set (the integer keys)
IBCAST_FANOUTS = tuple(f for f in BCAST_ALGORITHMS if isinstance(f, int))


def bcast_tree(size: int, vrank: int, fanout: int) -> tuple[int, list[int]]:
    """Parent and children of ``vrank`` in a broadcast tree of ``size``.

    Operates on *virtual* ranks (root is virtual rank 0).  Returns
    ``(parent, children)`` with ``parent == -1`` for the root.
    """
    if not 0 <= vrank < size:
        raise ScheduleError(f"vrank {vrank} out of range for size {size}")
    if fanout == 0:  # linear: root parents everyone
        if vrank == 0:
            return -1, list(range(1, size))
        return 0, []
    if fanout == BINOMIAL:
        # children of v are v + 2^j for the zero bits above v's highest
        # set bit; standard binomial broadcast ordering
        if vrank == 0:
            parent = -1
            low = size  # loop below emits all powers of two < size
        else:
            low = vrank & (-vrank)  # lowest set bit
            parent = vrank - low
        children = []
        mask = 1
        while mask < (low if vrank else size):
            child = vrank + mask
            if child < size:
                children.append(child)
            mask <<= 1
        return parent, children
    if fanout == 1:  # chain
        parent = vrank - 1 if vrank > 0 else -1
        children = [vrank + 1] if vrank + 1 < size else []
        return parent, children
    if fanout < 0:
        raise ScheduleError(f"invalid fan-out {fanout}")
    parent = (vrank - 1) // fanout if vrank > 0 else -1
    children = [
        c for c in range(vrank * fanout + 1, vrank * fanout + fanout + 1)
        if c < size
    ]
    return parent, children


def segment_bounds(nbytes: int, segsize: int) -> list[tuple[int, int]]:
    """``(offset, length)`` of each pipeline segment of a payload."""
    if segsize <= 0:
        raise ScheduleError(f"segment size must be positive, got {segsize}")
    nseg = max(1, math.ceil(nbytes / segsize))
    return [
        (s * segsize, min(segsize, nbytes - s * segsize)) for s in range(nseg)
    ]


def bcast_schedule(label: str, nbytes: int, segsize: int, parent: int,
                   children: list[int]) -> Schedule:
    """One rank's or one tree role's segmented tree broadcast.

    ``label`` names the tree shape (``"binomial"``, ``"hier"``, ...).
    ``parent``/``children`` are the peers the ops name (``parent == -1``
    on the root): real ranks in a per-rank schedule, slots in a role
    template (:func:`~repro.nbc.schedule.compiled_role`).  The tree
    shape is entirely the caller's — the fan-out trees and the
    two-level tree (:func:`two_level_tree`) share these exact rounds.
    Segment *s* uses tag offset *s*; round *k* receives segment *k* from
    the parent while forwarding segment *k−1* to the children, so a
    depth-*d* tree with *S* segments completes in ``d + S - 1``
    forwarding steps.
    """
    sched = Schedule(name=f"ibcast[{label},seg={segsize}]")
    seg_bounds = segment_bounds(nbytes, segsize)
    if parent == -1:
        # root: one round per segment, sending to all children
        for s, (off, length) in enumerate(seg_bounds):
            sched.round()
            for c in children:
                sched.send(c, length, tagoff=s, src=("data", off, length))
    elif not children:
        # leaf: one receive per segment
        for s, (off, length) in enumerate(seg_bounds):
            sched.round()
            sched.recv(parent, length, tagoff=s, dst=("data", off, length))
    else:
        # interior node: recv segment k while forwarding segment k-1
        nseg = len(seg_bounds)
        for k in range(nseg + 1):
            sched.round()
            if k < nseg:
                off, length = seg_bounds[k]
                sched.recv(parent, length, tagoff=k, dst=("data", off, length))
            if k > 0:
                off, length = seg_bounds[k - 1]
                for c in children:
                    sched.send(c, length, tagoff=k - 1,
                               src=("data", off, length))
    return sched


def check_bcast_geometry(size: int, rank: Optional[int], root: int) -> None:
    """Raise :class:`ScheduleError` unless ``rank`` and ``root`` lie in
    a communicator of ``size`` ranks (``rank=None``: the root alone)."""
    if size <= 0 or not 0 <= root < size or not 0 <= (rank or 0) < size:
        who = "" if rank is None else f" rank={rank}"
        raise ScheduleError(f"bad rooted geometry size={size}{who} root={root}")


def bcast_peers(size: int, rank: int, root: int,
                fanout: int) -> tuple[int, ...]:
    """``(parent, *children)`` of ``rank`` as real communicator ranks.

    The parent is ``-1`` on the root.  This is the peer table a tree
    template is bound to.
    """
    check_bcast_geometry(size, rank, root)
    parent_v, children_v = bcast_tree(size, (rank - root) % size, fanout)
    parent = -1 if parent_v == -1 else (parent_v + root) % size
    return (parent, *[(c + root) % size for c in children_v])


@lru_cache(maxsize=16)
def tree_peers(size: int, root: int, fanout: int) -> tuple[tuple[int, ...], ...]:
    """Every rank's :func:`bcast_peers`, indexed by rank.

    A tuning run starts the same few trees (one per fan-out) thousands
    of times; the table makes binding a template one index.
    """
    check_bcast_geometry(size, None, root)
    return tuple(bcast_peers(size, rank, root, fanout) for rank in range(size))


def two_level_tree(part: Partition, root: int) -> tuple[tuple[int, ...], ...]:
    """Every rank's ``(parent, *children)`` in the two-level broadcast
    tree of ``part`` rooted at ``root``, indexed by rank.

    The leader of each group is its first member, except the root's
    group whose leader is the root itself (the data starts there, so
    promoting it saves one hop).  Leaders form a binomial tree rooted at
    the root's leader; every other member hangs directly off its
    leader — within a node the "tree" is flat, shared memory makes a
    deeper shape pointless.  Leader-children precede member-children so
    inter-node forwarding (the long pole) is initiated first.  Memoized
    per root on the interned partition.
    """
    table = part.trees.get(root)
    if table is not None:
        return table
    check_bcast_geometry(part.size, None, root)
    groups = part.groups
    ridx = part.group_of[root]
    leaders = [root if gi == ridx else g[0] for gi, g in enumerate(groups)]
    nl = len(groups)
    rows: list = [None] * part.size
    for gi, members in enumerate(groups):
        leader = leaders[gi]
        parent_v, children_v = bcast_tree(nl, (gi - ridx) % nl, BINOMIAL)
        parent = -1 if parent_v == -1 else leaders[(parent_v + ridx) % nl]
        rows[leader] = (
            parent,
            *[leaders[(cv + ridx) % nl] for cv in children_v],
            *[r for r in members if r != leader],
        )
        below_leader = (leader,)
        for r in members:
            if r != leader:
                rows[r] = below_leader
    table = part.trees[root] = tuple(rows)
    return table


def bcast_name(fanout) -> str:
    """The algorithm name of a fan-out (``"binomial"``, ``"2-ary"``, ...)."""
    return algorithm_row(_ALGORITHMS, "bcast", fanout)


def _scatter_allgather(size: int, rank: int, nbytes: int,
                       root: int) -> Schedule:
    """This rank's scatter+allgather broadcast.

    Block *i* is the *i*-th ``ceil(n/P)``-byte segment of ``"data"``,
    or empty once ``n`` runs out (the empty-block rule of
    :mod:`repro.nbc.schedule`).  Phase 1 (one round): the root sends
    block *i* to rank *i*; phase 2 (``P-1`` rounds): the all-gather-v
    ring circulates the blocks.
    """
    sched = Schedule(name="ibcast[scatter+allgather]")
    counts = [length for _, length
              in segment_bounds(nbytes, -(-nbytes // size) or 1)]
    counts += [0] * (size - len(counts))
    offs = offsets(counts)

    # phase 1: linear scatter from the root (the root keeps its own
    # block, which is already in place)
    if rank == root:
        for peer in range(size):
            if peer != root:
                sched.send(peer, counts[peer], tagoff=0,
                           src=("data", offs[peer], counts[peer]))
    else:
        sched.recv(root, counts[rank], tagoff=0,
                   dst=("data", offs[rank], counts[rank]))

    # phase 2: ring all-gather of the scattered blocks on tags 1..P-1
    emit_ring(sched, size, rank, rank, counts, offs, "data", tag0=1)
    sched.tag_span = size
    return sched


def _tree_role(size: int, rank: int, root: int, nbytes: int, fanout,
               groups) -> tuple[str, Optional[tuple[int, ...]]]:
    """The algorithm name of ``fanout`` and ``rank``'s ``(parent,
    *children)`` in its tree (``None`` for the per-rank
    scatter+allgather row), once the geometry checked out."""
    label = algorithm_row(_ALGORITHMS, "bcast", fanout)
    check_geometry("bcast", size, rank, nbytes, root)
    if fanout == HIER:
        return label, two_level_tree(as_partition(groups, size), root)[rank]
    if fanout == "scatter_allgather":
        return label, None
    return label, tree_peers(size, root, fanout)[rank]


def build_ibcast(
    size: int,
    rank: int,
    root: int,
    nbytes: int,
    fanout,
    segsize: int,
    groups: Optional[Union[Groups, Partition]] = None,
) -> Schedule:
    """Build this rank's schedule for a broadcast.

    The broadcast buffer is the schedule buffer named ``"data"`` (on
    every rank; the root's content is distributed into everyone else's).
    ``groups`` is the node partition the :data:`~repro.nbc.hier.HIER`
    row's tree runs on; the other rows take none.  Peers are real
    ranks (run it bound to :func:`~repro.nbc.schedule.identity_peers`):
    this is the per-rank reference the role templates of
    :func:`compiled_ibcast` equal.  See :func:`bcast_schedule` for the
    trees' pipelined rounds.
    """
    label, peers = _tree_role(size, rank, root, nbytes, fanout, groups)
    if peers is None:
        return _scatter_allgather(size, rank, nbytes, root)
    parent, *children = peers
    return bcast_schedule(label, nbytes, segsize, parent, children)


def compiled_ibcast(
    size: int,
    rank: int,
    root: int,
    nbytes: int,
    fanout,
    segsize: int,
    groups: Optional[Union[Groups, Partition]] = None,
):
    """``(plan, peers)`` for :func:`build_ibcast` (same arguments): the
    role template of ``rank`` in the tree, bound to its peers, or the
    scatter+allgather row's cached per-rank plan with the identity
    table."""
    label, peers = _tree_role(size, rank, root, nbytes, fanout, groups)
    if peers is None:
        return compiled_per_rank("bcast", label, size, rank, nbytes,
                                 _scatter_allgather, (nbytes, root))
    return compiled_role("bcast", label, size, peers,
                         partial(bcast_schedule, label), (nbytes, segsize))
