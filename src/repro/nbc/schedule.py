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

Compiled schedules & the schedule cache
---------------------------------------
Building a schedule is pure: the op list depends only on the problem
geometry, never on run-time state.  All per-run mutable state (request
handles, the round cursor, pending-op counts) lives in
:class:`~repro.nbc.request.NBCRequest`, so one plan can back any number
of concurrent or successive requests.  A tuning run replays the same
handful of plans for hundreds of iterations; :class:`CompiledSchedule`
freezes a built schedule into an immutable, shareable plan (rounds as
tuples, ``tag_span`` precomputed) and :class:`ScheduleCache` memoizes
plans under their geometry key with hit/miss statistics.  The builders
expose ``compiled_*`` entry points that go through the process-global
:data:`SCHEDULE_CACHE`.

Peers are named by **slot**: a send or receive targets
``peers[op.peer]``, where ``peers`` is the table the request is bound
to.  That makes a plan rank-independent wherever the op list is.  The
tree broadcasts (flat and hierarchical) compile one *template* per tree
role — ``(has_parent, nchildren)``, with slot 0 the parent and slots
1.. the children, as LibNBC builds its trees on root-relative virtual
ranks — and bind each rank's ``(parent, *children)`` when the request is
made: a P=1024 hierarchical broadcast needs about ten plans instead of
1,024.  Every other family still compiles one plan per rank whose slots
are ranks, bound to the shared :func:`identity_peers` table.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from ..errors import ScheduleError

__all__ = [
    "BufSpec",
    "SendOp",
    "RecvOp",
    "CopyOp",
    "CombineOp",
    "Schedule",
    "CompiledSchedule",
    "ScheduleCache",
    "SCHEDULE_CACHE",
    "schedule_cache_stats",
    "identity_peers",
    "resolve",
    "USER_BUFFERS",
]

#: symbolic byte-range into a named buffer: ``(buffer_name, offset, nbytes)``
BufSpec = tuple[str, int, int]

#: buffer names the caller supplies; every other referenced name is scratch
USER_BUFFERS = ("send", "recv", "data")


def _extents(rounds, user: bool) -> dict[str, int]:
    """Buffer name -> largest end offset any op reaches in it, over the
    user buffers (``user=True``) or the scratch ones."""
    out: dict[str, int] = {}
    for rnd in rounds:
        for op in rnd:
            for spec in (getattr(op, "src", None), getattr(op, "dst", None)):
                if spec is not None and (spec[0] in USER_BUFFERS) == user:
                    name, offset, nbytes = spec
                    out[name] = max(out.get(name, 0), offset + nbytes)
    return out


@lru_cache(maxsize=64)
def identity_peers(size: int) -> tuple[int, ...]:
    """The peer table of a per-rank plan: slot *i* is rank *i*.

    One shared tuple per communicator size.
    """
    return tuple(range(size))


def resolve(buffers: Optional[dict], spec: Optional[BufSpec]) -> Optional[np.ndarray]:
    """Resolve a :data:`BufSpec` to a ``uint8`` view, or None in size-only mode."""
    if buffers is None or spec is None:
        return None
    name, offset, nbytes = spec
    try:
        buf = buffers[name]
    except KeyError:
        raise ScheduleError(f"schedule references unknown buffer {name!r}") from None
    if buf is None:
        return None
    view = buf[offset : offset + nbytes]
    if view.nbytes != nbytes:
        raise ScheduleError(
            f"buffer {name!r} too small: need [{offset}:{offset + nbytes}), "
            f"have {buf.nbytes} bytes"
        )
    return view


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

    _OPS = {
        "sum": np.add,
        "prod": np.multiply,
        "max": np.maximum,
        "min": np.minimum,
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
        a = dst_view.view(self.dtype)
        b = src_view.view(self.dtype)
        self._OPS[self.op](a, b, out=a)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Combine({self.op}, {self.nbytes}B, {self.dtype})"


class Schedule:
    """The per-rank plan of one collective operation.

    Build one with :meth:`round` + the add methods, or via the algorithm
    builders in :mod:`repro.nbc`.  ``tag_span`` is the number of distinct
    tag offsets the schedule uses; the executing request reserves that
    many tags on the communicator.
    """

    __slots__ = ("rounds", "name", "_open", "uniform_tag_span")

    def __init__(self, name: str = "coll"):
        self.name = name
        self.rounds: list[list] = []
        self._open = False
        #: rank-independent tag span, set by algorithm builders whose
        #: per-rank schedules use different numbers of tag offsets
        #: (e.g. reduce trees: leaves only send once).  All ranks must
        #: reserve the *same* span per collective or their tag counters
        #: diverge and later collectives mismatch.
        self.uniform_tag_span: Optional[int] = None

    # -- construction ---------------------------------------------------

    def round(self) -> "Schedule":
        """Start a new round (implicit local barrier before it)."""
        self.rounds.append([])
        self._open = True
        return self

    def _append(self, op) -> None:
        if not self._open:
            self.round()
        self.rounds[-1].append(op)

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

    @property
    def scratch(self) -> dict[str, int]:
        """Scratch buffer name -> bytes the ops reach in it (see
        :attr:`CompiledSchedule.scratch`)."""
        return _extents(self.rounds, user=False)

    @property
    def user_extents(self) -> dict[str, int]:
        """User buffer name -> bytes the ops reach in it (see
        :attr:`CompiledSchedule.user_extents`)."""
        return _extents(self.rounds, user=True)

    @property
    def tag_span(self) -> int:
        """Tag offsets to reserve on the communicator.

        Uses :attr:`uniform_tag_span` when the builder provided one;
        otherwise the local maximum tagoff + 1 (correct whenever the
        algorithm uses the same offsets on every rank).
        """
        if self.uniform_tag_span is not None:
            return self.uniform_tag_span
        span = 1
        for rnd in self.rounds:
            for op in rnd:
                if op.kind in ("send", "recv") and op.tagoff + 1 > span:
                    span = op.tagoff + 1
        return span

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

        Raises :class:`ScheduleError` on empty rounds or negative sizes.
        """
        for i, rnd in enumerate(self.rounds):
            if not rnd:
                raise ScheduleError(f"{self.name}: round {i} is empty")
            for op in rnd:
                if op.nbytes < 0:
                    raise ScheduleError(f"{self.name}: negative size in {op!r}")
                if op.kind in ("send", "recv") and op.peer < 0:
                    raise ScheduleError(f"{self.name}: negative peer in {op!r}")

    def compile(self, key: Optional[tuple] = None) -> "CompiledSchedule":
        """Freeze this schedule into an immutable :class:`CompiledSchedule`.

        Validates first — a cached plan is instantiated many times, so a
        malformed schedule must fail at compile time, not mid-run.
        """
        self.validate()
        return CompiledSchedule(self, key=key)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Schedule {self.name!r}: {self.nrounds} rounds, "
            f"{self.count_ops()} ops>"
        )


class CompiledSchedule:
    """An immutable, shareable execution plan for one collective.

    Structurally a frozen :class:`Schedule`: the rounds are tuples of
    the same op objects and ``tag_span``, ``scratch`` (every buffer
    name outside :data:`USER_BUFFERS` the ops reference, with the
    largest end offset they reach in it) and ``user_extents`` (the same
    for the user buffers) are precomputed, so
    :class:`~repro.nbc.request.NBCRequest` executes either
    interchangeably (and bit-identically — the ops themselves are
    read-only during execution).  Because nothing in the plan mutates at
    run time, a single instance can back any number of requests across
    ranks, iterations and simulations of the same geometry.
    """

    __slots__ = ("name", "rounds", "tag_span", "scratch", "user_extents", "key")

    def __init__(self, schedule: Schedule, key: Optional[tuple] = None):
        self.name = schedule.name
        self.rounds: tuple[tuple, ...] = tuple(tuple(rnd) for rnd in schedule.rounds)
        self.tag_span: int = schedule.tag_span
        self.scratch: dict[str, int] = schedule.scratch
        self.user_extents: dict[str, int] = schedule.user_extents
        #: the cache key this plan was compiled under (None if uncached)
        self.key = key

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
        """No-op: the plan was validated when compiled."""

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<CompiledSchedule {self.name!r}: {self.nrounds} rounds, "
            f"{self.count_ops()} ops>"
        )


class ScheduleCache:
    """Memoizes compiled plans under their geometry key.

    ``get(key, builder)`` returns the cached :class:`CompiledSchedule`
    for ``key`` or builds, compiles and stores one.

    The store is a plain dict (the lookup is on a tuning hot path); when
    it would exceed ``maxsize`` distinct keys it is flushed wholesale.
    Tree-broadcast plans are per role, not per rank, so the 21-candidate
    Ibcast brute force holds 84 of them at P=256 and 93 at P=1024 (a
    binomial tree has ``log2(P) + 1`` roles, the others at most four);
    the other families still hold one plan per rank and candidate.  The
    default bound holds those working sets with room to spare, so a
    flush signals key churn, not a working set worth LRU bookkeeping.
    """

    def __init__(self, maxsize: int = 8192):
        if maxsize <= 0:
            raise ScheduleError(f"cache maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self._store: dict[tuple, CompiledSchedule] = {}
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


#: process-global plan cache used by the ``compiled_*`` builder entry points
SCHEDULE_CACHE = ScheduleCache()


def schedule_cache_stats() -> dict:
    """Statistics of the process-global schedule cache."""
    return SCHEDULE_CACHE.stats()
