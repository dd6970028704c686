"""Collective operation schedules (the LibNBC design, §III-B of the paper).

A :class:`Schedule` is the per-rank recipe for one collective operation:
a list of **rounds**, each holding point-to-point and local operations.
A round only starts once every operation of the previous round has
completed locally — the LibNBC *barrier* semantics.  Execution of a
schedule is non-blocking and driven incrementally by the progress engine
in :mod:`repro.nbc.request`.

Buffer handling
---------------
Schedules may run *size-only* (no payload; used by large performance
sweeps) or *with data* (used by correctness tests and the FFT kernel).
Operations reference buffers symbolically through ``(name, offset,
nbytes)`` byte-range specs resolved against a ``buffers`` dict of 1-D
``uint8`` arrays at execution time, so the same schedule object serves
both modes.  The caller supplies the :data:`USER_BUFFERS`; every other
name an op references is *scratch*, and the plan itself owns its
layout: :attr:`Schedule.scratch` maps each scratch name to the largest
end offset any op reaches in it.  :func:`repro.nbc.coll.start_plan`
allocates exactly that when the collective moves data, and checks the
caller's arrays against :attr:`Schedule.user_extents` (the same map for
the user buffers) before anything is posted.

Empty blocks and rounds
-----------------------
:class:`Schedule` alone decides what an empty block means, so no emitter
tests a size: an op that names a 0-byte buffer block (a send, receive,
copy or combine with a ``src``/``dst`` spec) is not recorded, though
its tag offset still counts toward :attr:`Schedule.tag_span`.
:meth:`Schedule.round` only closes the current round and the next
recorded op opens one, so a round no op lands in never exists.  An
empty collective therefore posts no message, and its plan has no
rounds.  A 0-byte message that names no block is a signal (the
dissemination barrier's) and is kept.

Compiled plans & the schedule cache
-----------------------------------
Building a schedule is pure: the op list depends only on the problem
geometry, never on run-time state.  All per-run mutable state (request
handles, the round cursor, pending-op counts) lives in
:class:`~repro.nbc.request.NBCRequest`, so one plan can back any number
of concurrent or successive requests.  A tuning run replays the same
handful of plans for hundreds of iterations; :meth:`Schedule.compile`
validates a built schedule and freezes it in place into an immutable,
shareable plan (rounds as tuples), and :class:`ScheduleCache` memoizes
plans under their geometry key with hit/miss statistics.

Peers are named by **slot**: a send or receive targets
``peers[op.peer]``, where ``peers`` is the table the request is bound
to.  Each collective family declares its algorithms once, in one table
(algorithm name -> plan shape + emitter), and hands each lookup to the
binder of that shape.  A binder is the only code that builds a plan
key or picks a peer table; it returns the pair ``(plan, peers)``,
which :func:`repro.nbc.coll.start_plan` binds.

=================  ==============================  ===================
binder             key                             peer table
=================  ==============================  ===================
compiled_role      family, algorithm, P, *params,  (parent, *children)
                   has_parent, nchildren
compiled_rotation  family, algorithm, P, *params   rotation_peers or
                                                  xor_peers
compiled_per_rank  family, algorithm, P, rank,     identity_peers
                   *params
=================  ==============================  ===================

* **Role templates** (:func:`compiled_role`): the tree broadcasts (flat
  and hierarchical), the binomial and chain reduces (the broadcast trees
  run from the leaves up) and the tree all-reduces (``reduce_bcast`` and
  ``hier``).  Slot 0 is the parent, slots 1.. the children, as LibNBC
  builds its trees on root-relative virtual ranks: a P=1024
  hierarchical broadcast or all-reduce needs about ten plans instead of
  1,024.  The family's tree function checks the rooted geometry.
* **Rotation templates** (:func:`compiled_rotation`): linear, pairwise
  and Bruck all-to-all, ring and linear all-gather, pairwise
  reduce-scatter and the dissemination barrier name every peer, and
  every buffer block chosen by peer, by a rank offset.  The template is
  rank 0's plan; slot *s* is rank ``(rank + s) % P``.  A peer-indexed
  block is a slot-relative :data:`SlotSpec` resolved against the same
  table.
  Recursive doubling binds the same way to :func:`xor_peers`, whose
  slots are its partners and the chunk indices they trade.
* **Per-rank plans** (:func:`compiled_per_rank`): ring all-reduce,
  all-gather-v, the hierarchical all-to-all, reduce-then-scatter and
  the scatter+allgather mock-up; slots are ranks.

The rotation and per-rank binders check the geometry themselves
(:func:`check_geometry`); :func:`algorithm_row` rejects an unknown
algorithm before any lookup.  A plan whose emitter raises is never
cached, so every lookup of a bad geometry raises the same error.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Optional

from ..errors import ScheduleError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "BufSpec",
    "SlotSpec",
    "SendOp",
    "RecvOp",
    "CopyOp",
    "CombineOp",
    "Schedule",
    "ScheduleCache",
    "SCHEDULE_CACHE",
    "schedule_cache_stats",
    "identity_peers",
    "rotation_peers",
    "xor_peers",
    "peer_block",
    "algorithm_row",
    "check_geometry",
    "compiled_role",
    "compiled_rotation",
    "compiled_per_rank",
    "USER_BUFFERS",
]

#: symbolic byte-range into a named buffer: ``(buffer_name, offset, nbytes)``
BufSpec = tuple[str, int, int]

#: slot-relative block of a rotation template: ``(buffer_name, slot,
#: nbytes, size)`` names block ``peers[slot]`` of a buffer of ``size``
#: blocks of ``nbytes`` each, i.e. byte offset ``peers[slot] * nbytes``
SlotSpec = tuple[str, int, int, int]

#: buffer names the caller supplies; every other referenced name is scratch
USER_BUFFERS = ("send", "recv", "data")


def peer_block(name: str, slot: int, nbytes: int, size: int) -> SlotSpec:
    """The :data:`SlotSpec` of the ``nbytes`` block that belongs to the
    rank in peer slot ``slot``, in a buffer of ``size`` such blocks."""
    return (name, slot, nbytes, size)


@lru_cache(maxsize=64)
def identity_peers(size: int) -> tuple[int, ...]:
    """The peer table of a per-rank plan: slot *i* is rank *i*.

    One shared tuple per communicator size.
    """
    return tuple(range(size))


@lru_cache(maxsize=4096)
def rotation_peers(size: int, rank: int) -> tuple[int, ...]:
    """The peer table of a rotation template bound on ``rank``: slot *s*
    is rank ``(rank + s) % size``.

    One shared tuple per (size, rank), built from the
    :func:`identity_peers` tuple so every table of a size shares its
    int objects.
    """
    ranks = identity_peers(size)
    return ranks[rank:] + ranks[:rank]


@lru_cache(maxsize=4096)
def xor_peers(size: int, rank: int) -> tuple[int, ...]:
    """The peer table of a recursive-doubling template bound on
    ``rank`` (``size`` a power of two, ``L = log2(size)``): slot 0 is
    ``rank``, slot ``1 + k`` its round-*k* partner ``rank XOR 2^k``, and
    slots ``1 + L + k`` and ``1 + 2L + k`` the indices of the two
    ``2^k``-block chunks the pair trades in round *k* (the rank's own
    and its partner's), so a :data:`SlotSpec` of ``2^k`` blocks names
    each chunk.
    """
    steps = range(size.bit_length() - 1)
    return (rank, *(rank ^ (1 << k) for k in steps),
            *(rank >> k for k in steps), *((rank >> k) ^ 1 for k in steps))


def algorithm_row(table: dict, family: str, algorithm):
    """``table[algorithm]``: the row a family's algorithm table declares
    for ``algorithm``, or :class:`ScheduleError` naming the family's
    algorithms."""
    try:
        return table[algorithm]
    except KeyError:
        raise ScheduleError(
            f"unknown {family} algorithm {algorithm!r}; "
            f"expected one of {tuple(table)}") from None


def check_geometry(family: str, size: int, rank: int, nbytes: int,
                   root: int = 0) -> None:
    """Raise :class:`ScheduleError` unless ``rank`` and ``root`` lie in a
    communicator of ``size`` ranks and the payload ``nbytes`` is not
    negative, checked in that order: rank, payload, root."""
    if size <= 0 or not 0 <= rank < size:
        raise ScheduleError(f"bad {family} geometry size={size} rank={rank}")
    if nbytes < 0:
        raise ScheduleError(f"negative {family} size {nbytes}")
    if not 0 <= root < size:
        raise ScheduleError(
            f"bad rooted geometry size={size} rank={rank} root={root}")


def compiled_role(family: str, algorithm, size: int, peers: tuple[int, ...],
                  emit: Callable[..., "Schedule"], params: tuple):
    """``(template, peers)``: the cached role template of a tree rank.

    ``peers = (parent, *children)`` are the rank's tree neighbours as
    communicator ranks, the parent ``-1`` on the root; the family's tree
    function computed them and checked the rooted geometry.  A tree
    plan depends on the rank only through its role — whether it has a
    parent, and how many children — so the ranks of one role share the
    template cached under ``(family, algorithm, size, *params,
    has_parent, nchildren)``.  ``emit(*params, parent, children)``
    builds it on slots: slot 0 is the parent (``-1`` on the root), slots
    ``1..nchildren`` the children, in the order of ``peers``.
    """
    has_parent = peers[0] != -1
    nchildren = len(peers) - 1
    plan = SCHEDULE_CACHE.get(
        (family, algorithm, size, *params, has_parent, nchildren),
        lambda: emit(*params, 0 if has_parent else -1,
                     list(range(1, nchildren + 1))))
    return plan, peers


def compiled_rotation(family: str, algorithm, size: int, rank: int,
                      nbytes: int, emit: Callable[..., "Schedule"],
                      params: tuple, table=rotation_peers):
    """``(template, table(size, rank))``: the cached rotation template
    of an algorithm, by default bound to :func:`rotation_peers`.

    Checks the geometry (``nbytes`` is the payload), then looks the
    template up under ``(family, algorithm, size, *params)``;
    ``emit(size, *params)`` builds it as rank 0's plan.
    """
    check_geometry(family, size, rank, nbytes)
    plan = SCHEDULE_CACHE.get((family, algorithm, size, *params),
                              lambda: emit(size, *params))
    return plan, table(size, rank)


def compiled_per_rank(family: str, algorithm, size: int, rank: int,
                      nbytes: int, emit: Callable[..., "Schedule"],
                      params: tuple):
    """``(plan, identity_peers(size))``: the cached plan of one rank.

    Checks the geometry (``nbytes`` is the payload), then looks the plan
    up under ``(family, algorithm, size, rank, *params)``;
    ``emit(size, rank, *params)`` builds it on real ranks.
    """
    check_geometry(family, size, rank, nbytes)
    plan = SCHEDULE_CACHE.get((family, algorithm, size, rank, *params),
                              lambda: emit(size, rank, *params))
    return plan, identity_peers(size)


class SendOp:
    """Send ``nbytes`` to peer slot ``peer`` (tag offset ``tagoff``).

    The executing request maps the slot to a communicator-local rank
    through its peer table.
    """

    __slots__ = ("peer", "nbytes", "tagoff", "src")
    kind = "send"

    def __init__(self, peer: int, nbytes: int, tagoff: int,
                 src: Optional[BufSpec] = None):
        self.peer = peer
        self.nbytes = nbytes
        self.tagoff = tagoff
        self.src = src

    def __repr__(self) -> str:  # pragma: no cover
        return f"Send(->{self.peer}, {self.nbytes}B, tag+{self.tagoff})"


class RecvOp:
    """Receive ``nbytes`` from peer slot ``peer``."""

    __slots__ = ("peer", "nbytes", "tagoff", "dst")
    kind = "recv"

    def __init__(self, peer: int, nbytes: int, tagoff: int,
                 dst: Optional[BufSpec] = None):
        self.peer = peer
        self.nbytes = nbytes
        self.tagoff = tagoff
        self.dst = dst

    def __repr__(self) -> str:  # pragma: no cover
        return f"Recv(<-{self.peer}, {self.nbytes}B, tag+{self.tagoff})"


class CopyOp:
    """Local memcpy of ``nbytes`` (pack/unpack); costs CPU time."""

    __slots__ = ("nbytes", "src", "dst")
    kind = "copy"

    def __init__(self, nbytes: int, src: Optional[BufSpec] = None,
                 dst: Optional[BufSpec] = None):
        self.nbytes = nbytes
        self.src = src
        self.dst = dst

    def __repr__(self) -> str:  # pragma: no cover
        return f"Copy({self.nbytes}B)"


class CombineOp:
    """Local reduction: ``dst = dst (op) src`` elementwise.

    ``dtype`` names the element type the byte ranges are reinterpreted
    as; ``op`` is one of ``"sum"``, ``"prod"``, ``"max"``, ``"min"``.
    """

    __slots__ = ("nbytes", "src", "dst", "dtype", "op")
    kind = "combine"

    #: op name -> name of the numpy ufunc that applies it
    _OPS = {
        "sum": "add",
        "prod": "multiply",
        "max": "maximum",
        "min": "minimum",
    }

    def __init__(self, nbytes: int, src: Optional[BufSpec], dst: Optional[BufSpec],
                 dtype: str = "float64", op: str = "sum"):
        if op not in self._OPS:
            raise ScheduleError(f"unknown reduction op {op!r}")
        self.nbytes = nbytes
        self.src = src
        self.dst = dst
        self.dtype = dtype
        self.op = op

    def apply(self, src_view: np.ndarray, dst_view: np.ndarray) -> None:
        """Perform the combine on resolved uint8 views."""
        import numpy as np

        a = dst_view.view(self.dtype)
        b = src_view.view(self.dtype)
        getattr(np, self._OPS[self.op])(a, b, out=a)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Combine({self.op}, {self.nbytes}B, {self.dtype})"


class Schedule:
    """The plan of one collective operation: one rank's, one tree role's
    or one rotation template (see the module docstring).

    Build one with :meth:`round` + the add methods, or through the
    algorithm tables in :mod:`repro.nbc`, then :meth:`compile` it.
    The add methods apply the empty-block rule of the module docstring
    and keep three derived fields current:

    * ``tag_span`` — the number of distinct tag offsets the plan uses
      (the largest tag offset + 1); the executing request reserves that
      many tags on the communicator.  A builder whose per-rank plans
      use different numbers of offsets (e.g. reduce trees: leaves only
      send once) raises it to the rank-independent span, since all
      ranks must reserve the *same* span per collective or their tag
      counters diverge;
    * ``scratch`` and ``user_extents`` — the scratch and the user
      buffers the ops name, each mapped to the largest end offset any
      op reaches in it (a slot-relative spec reaches its buffer's end).
    """

    __slots__ = ("name", "rounds", "tag_span", "scratch", "user_extents",
                 "key", "_open")

    def __init__(self, name: str = "coll"):
        self.name = name
        self.rounds: list[list] = []
        self._open = False
        self.tag_span = 1
        self.scratch: dict[str, int] = {}
        self.user_extents: dict[str, int] = {}
        #: the cache key this plan was compiled under (None if uncached)
        self.key: Optional[tuple] = None

    # -- construction ---------------------------------------------------

    def round(self) -> "Schedule":
        """Close the current round: the next recorded op opens a new one
        (implicit local barrier before it).  A round no op lands in is
        never built."""
        if type(self.rounds) is tuple:
            raise ScheduleError(f"{self.name}: a compiled plan is frozen")
        self._open = False
        return self

    def _append(self, op) -> None:
        if not self._open:
            self.round()  # raises once the plan is compiled
        if op.kind in ("send", "recv") and op.tagoff >= self.tag_span:
            self.tag_span = op.tagoff + 1
        specs = [spec for spec in (getattr(op, "src", None),
                                   getattr(op, "dst", None))
                 if spec is not None]
        if specs and not op.nbytes:
            return  # an empty block moves nothing: the op is not recorded
        if not self._open:
            self.rounds.append([])
            self._open = True
        self.rounds[-1].append(op)
        for spec in specs:
            if len(spec) == 4:
                name, _, nbytes, size = spec
                end = size * nbytes
            else:
                name, offset, nbytes = spec
                end = offset + nbytes
            extents = (self.user_extents if name in USER_BUFFERS
                       else self.scratch)
            extents[name] = max(extents.get(name, 0), end)

    def send(self, peer: int, nbytes: int, tagoff: int = 0,
             src: Optional[BufSpec] = None) -> "Schedule":
        self._append(SendOp(peer, nbytes, tagoff, src))
        return self

    def recv(self, peer: int, nbytes: int, tagoff: int = 0,
             dst: Optional[BufSpec] = None) -> "Schedule":
        self._append(RecvOp(peer, nbytes, tagoff, dst))
        return self

    def copy(self, nbytes: int, src: Optional[BufSpec] = None,
             dst: Optional[BufSpec] = None) -> "Schedule":
        self._append(CopyOp(nbytes, src, dst))
        return self

    def combine(self, nbytes: int, src: Optional[BufSpec] = None,
                dst: Optional[BufSpec] = None, dtype: str = "float64",
                op: str = "sum") -> "Schedule":
        self._append(CombineOp(nbytes, src, dst, dtype, op))
        return self

    # -- introspection ----------------------------------------------------

    @property
    def nrounds(self) -> int:
        return len(self.rounds)

    def count_ops(self, kind: Optional[str] = None) -> int:
        """Total operations (optionally of one kind) across all rounds."""
        return sum(
            1
            for rnd in self.rounds
            for op in rnd
            if kind is None or op.kind == kind
        )

    def total_send_bytes(self) -> int:
        """Bytes this rank injects into the network over the whole schedule."""
        return sum(
            op.nbytes for rnd in self.rounds for op in rnd if op.kind == "send"
        )

    def validate(self) -> None:
        """Sanity-check the schedule structure.

        Raises :class:`ScheduleError` on negative sizes or peers.
        """
        for rnd in self.rounds:
            for op in rnd:
                if op.nbytes < 0:
                    raise ScheduleError(f"{self.name}: negative size in {op!r}")
                if op.kind in ("send", "recv") and op.peer < 0:
                    raise ScheduleError(f"{self.name}: negative peer in {op!r}")

    def compile(self, key: Optional[tuple] = None) -> "Schedule":
        """Validate this plan, then freeze it in place and return it.

        A cached plan is instantiated many times, so a malformed one
        must fail here, not mid-run.  Freezing turns the rounds into
        tuples of the same op objects, after which :meth:`round` and
        the add methods raise.  Nothing in the plan mutates at run time,
        so one compiled plan backs any number of requests across ranks,
        iterations and simulations.
        """
        self.validate()
        self.rounds = tuple(tuple(rnd) for rnd in self.rounds)
        self._open = False
        self.key = key
        return self

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Schedule {self.name!r}: {self.nrounds} rounds, "
            f"{self.count_ops()} ops>"
        )


class ScheduleCache:
    """Memoizes compiled plans under their geometry key.

    ``get(key, builder)`` returns the compiled :class:`Schedule` cached
    for ``key`` or builds, compiles and stores one.

    The store is a plain dict (the lookup is on a tuning hot path); when
    it would exceed ``maxsize`` distinct keys it is flushed wholesale.
    Tree plans are per role, not per rank, so the 21-candidate Ibcast
    brute force holds 84 of them at P=256 and 93 at P=1024 (a binomial
    tree has ``log2(P) + 1`` roles, the others at most four), the
    4-candidate Ireduce set 28 at P=1024 (11 per binomial candidate, 3
    per chain) and the two tree Iallreduce candidates 21 on a
    4-core-per-node P=1024 partition.
    Rotation templates are one per algorithm and geometry, so the
    3-candidate Ialltoall brute force holds 3 plans at any P; the
    per-rank families hold one plan per rank and candidate.  The
    default bound holds those working sets with room to spare, so a
    flush signals key churn, not a working set worth LRU bookkeeping.
    """

    def __init__(self, maxsize: int = 8192):
        if maxsize <= 0:
            raise ScheduleError(f"cache maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self._store: dict[tuple, Schedule] = {}
        self.hits = 0
        self.misses = 0
        self.flushes = 0

    def get(self, key: tuple, builder: Callable[[], Schedule]):
        """The compiled plan for ``key``, building it on a miss."""
        plan = self._store.get(key)
        if plan is not None:
            self.hits += 1
            return plan
        self.misses += 1
        plan = builder().compile(key)
        store = self._store
        if len(store) >= self.maxsize:
            store.clear()
            self.flushes += 1
        store[key] = plan
        return plan

    def clear(self) -> None:
        """Drop all cached plans (statistics are kept)."""
        self._store.clear()

    def reset_stats(self) -> None:
        """Zero the hit/miss/flush counters (cached plans are kept)."""
        self.hits = 0
        self.misses = 0
        self.flushes = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._store)

    def families(self) -> dict[str, int]:
        """Cached plans per family: the operation, prefixed ``hier-``
        for the hierarchical algorithms (``bcast``, ``hier-bcast``, ...)."""
        out: dict[str, int] = {}
        for key in self._store:
            family = f"hier-{key[0]}" if key[1:2] == ("hier",) else key[0]
            out[family] = out.get(family, 0) + 1
        return dict(sorted(out.items()))

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._store),
            "families": self.families(),
            "flushes": self.flushes,
            "hit_rate": self.hit_rate,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<ScheduleCache {len(self._store)} plans, "
            f"{self.hits} hits / {self.misses} misses>"
        )


#: process-global plan cache the binders look plans up in
SCHEDULE_CACHE = ScheduleCache()


def schedule_cache_stats() -> dict:
    """Statistics of the process-global schedule cache."""
    return SCHEDULE_CACHE.stats()
