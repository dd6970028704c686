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
the paper.
"""

from __future__ import annotations

import math
from functools import lru_cache

from ..errors import ScheduleError
from .schedule import SCHEDULE_CACHE, Schedule

__all__ = ["BINOMIAL", "build_ibcast", "compiled_ibcast", "bcast_tree",
           "bcast_peers", "check_bcast_geometry", "compiled_bcast_role",
           "emit_pipelined_bcast", "segment_bounds", "IBCAST_FANOUTS"]

#: sentinel fan-out value selecting the binomial tree (the paper's "N")
BINOMIAL = -1

#: all fan-out values of the paper's function-set
IBCAST_FANOUTS = (0, 1, 2, 3, 4, 5, BINOMIAL)


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


def emit_pipelined_bcast(
    sched: Schedule,
    parent: int,
    children: list[int],
    seg_bounds: list[tuple[int, int]],
    tag0: int = 0,
) -> Schedule:
    """Emit this rank's rounds of a segmented tree broadcast.

    ``parent``/``children`` are the peers the ops name (``parent == -1``
    on the root): real ranks in a per-rank schedule, slots in a role
    template (:func:`compiled_bcast_role`).  The tree shape is entirely
    the caller's — flat k-ary/binomial trees (:func:`build_ibcast`) and the
    two-level hierarchical tree (:mod:`repro.nbc.hier`) share these
    exact rounds.  Segment *s* uses tag offset ``tag0 + s``; round *k*
    receives segment *k* from the parent while forwarding segment *k−1*
    to the children, so a depth-*d* tree with *S* segments completes in
    ``d + S - 1`` forwarding steps.
    """
    if parent == -1:
        # root: one round per segment, sending to all children
        for s, (off, length) in enumerate(seg_bounds):
            sched.round()
            for c in children:
                sched.send(c, length, tagoff=tag0 + s, src=("data", off, length))
    elif not children:
        # leaf: one receive per segment
        for s, (off, length) in enumerate(seg_bounds):
            sched.round()
            sched.recv(parent, length, tagoff=tag0 + s, dst=("data", off, length))
    else:
        # interior node: recv segment k while forwarding segment k-1
        nseg = len(seg_bounds)
        for k in range(nseg + 1):
            sched.round()
            if k < nseg:
                off, length = seg_bounds[k]
                sched.recv(parent, length, tagoff=tag0 + k,
                           dst=("data", off, length))
            if k > 0:
                off, length = seg_bounds[k - 1]
                for c in children:
                    sched.send(c, length, tagoff=tag0 + k - 1,
                               src=("data", off, length))
    return sched


def check_bcast_geometry(size: int, rank: int, root: int) -> None:
    """Raise :class:`ScheduleError` unless ``rank`` and ``root`` lie in
    a communicator of ``size`` ranks."""
    if size <= 0 or not 0 <= rank < size or not 0 <= root < size:
        raise ScheduleError(f"bad bcast geometry size={size} rank={rank} root={root}")


def bcast_peers(size: int, rank: int, root: int,
                fanout: int) -> tuple[int, ...]:
    """``(parent, *children)`` of ``rank`` as real communicator ranks.

    The parent is ``-1`` on the root.  This is the peer table a tree
    template (:func:`compiled_bcast_role`) is bound to.
    """
    check_bcast_geometry(size, rank, root)
    parent_v, children_v = bcast_tree(size, (rank - root) % size, fanout)
    parent = -1 if parent_v == -1 else (parent_v + root) % size
    return (parent, *[(c + root) % size for c in children_v])


@lru_cache(maxsize=16)
def _tree_peers(size: int, root: int, fanout: int) -> tuple[tuple[int, ...], ...]:
    """Every rank's :func:`bcast_peers`, indexed by rank.

    A tuning run starts the same few trees (one per fan-out) thousands
    of times; the table makes binding a template one index.
    """
    return tuple(bcast_peers(size, rank, root, fanout) for rank in range(size))


_FANOUT_NAMES = {0: "linear", 1: "chain", BINOMIAL: "binomial"}


def _fanout_name(fanout) -> str:
    return _FANOUT_NAMES.get(fanout) or f"{fanout}-ary"


def build_ibcast(
    size: int,
    rank: int,
    root: int,
    nbytes: int,
    fanout: int,
    segsize: int,
) -> Schedule:
    """Build this rank's schedule for a segmented tree broadcast.

    The broadcast buffer is the schedule buffer named ``"data"`` (on
    every rank; the root's content is distributed into everyone else's).
    Peers are real ranks (run it bound to
    :func:`~repro.nbc.schedule.identity_peers`).

    The schedule pipelines segments: round *k* receives segment *k* from
    the parent and simultaneously forwards segment *k−1* to the
    children, so a depth-*d* tree with *S* segments completes in
    ``d + S - 1`` forwarding steps.
    """
    seg_bounds = segment_bounds(nbytes, segsize)
    peers = bcast_peers(size, rank, root, fanout)
    sched = Schedule(name=f"ibcast[{_fanout_name(fanout)},seg={segsize}]")
    if size == 1:
        return sched
    return emit_pipelined_bcast(sched, peers[0], list(peers[1:]), seg_bounds)


def compiled_bcast_role(label: str, size: int, nbytes: int, segsize: int,
                        peers: tuple[int, ...]):
    """The cached role template for a tree-broadcast rank, with its peers.

    The template depends on the rank only through its role — whether it
    has a parent, and how many children — so all ranks of one role share
    it: slot 0 is the parent, slots ``1..nchildren`` the children, in
    the order of ``peers = (parent, *children)``.  ``label`` names the
    tree shape (``"binomial"``, ``"hier"``, ...) in the cache key and the
    schedule name.  Returns ``(template, peers)``, ready for
    :class:`~repro.nbc.request.NBCRequest`.
    """
    has_parent = peers[0] != -1
    nchildren = len(peers) - 1

    def build() -> Schedule:
        seg_bounds = segment_bounds(nbytes, segsize)
        sched = Schedule(name=f"ibcast[{label},seg={segsize}]")
        if not has_parent and not nchildren:  # a single-rank communicator
            return sched
        return emit_pipelined_bcast(sched, 0 if has_parent else -1,
                                    list(range(1, nchildren + 1)), seg_bounds)

    plan = SCHEDULE_CACHE.get(
        ("bcast", label, size, nbytes, segsize, has_parent, nchildren), build)
    return plan, peers


def compiled_ibcast(
    size: int,
    rank: int,
    root: int,
    nbytes: int,
    fanout: int,
    segsize: int,
):
    """``(template, peers)`` for :func:`build_ibcast` (same arguments)."""
    check_bcast_geometry(size, rank, root)
    return compiled_bcast_role(_fanout_name(fanout), size, nbytes, segsize,
                               _tree_peers(size, root, fanout)[rank])
