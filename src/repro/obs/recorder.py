"""Event-trace recorder with a process-wide no-op default.

``get_recorder()`` returns the installed ``TraceRecorder`` or the
``NULL_RECORDER`` singleton.  Instrumented code follows one pattern::

    K_COMPUTE = declare("X", "compute", "compute")   # once, at import
    ...
    rec = get_recorder()
    self._obs = rec if rec.enabled else None         # cached at __init__
    ...
    if self._obs is not None:                        # hot path
        self._obs.emit(K_COMPUTE, rank, t0, dur)

so the disabled path is a single attribute load + identity test and the
inline-post fast paths stay hot (see DESIGN.md §11 for the measured
cost).  Recording is *passive*: no recorder call ever draws from an RNG
or changes ``busy_until``, so traced and untraced runs produce
bit-identical results.

Events are stored in virtual time as typed rows.  An *event kind* is
declared once per process by :func:`declare` and maps
``(ph, cat, name, args)`` to a small integer code:

- ``ph``    ``"X"`` (complete span) or ``"i"`` (instant)
- ``cat``   taxonomy category (see ``schema.CATEGORIES``)
- ``args``  the argument spec, e.g. ``"dst:i nbytes:q eager:?"``

Each row is packed as ``rank, ts, [dur,] args...`` (virtual seconds;
``dur`` for ``X`` kinds only) into its kind's ``bytearray`` table, and
its code into a one-byte-per-row order column, so a ``msg.post`` row
costs 34 bytes instead of a tuple plus an args dict (about 317 bytes
per event).  Rare sites call the generic :meth:`TraceRecorder.instant`
/ :meth:`TraceRecorder.complete`, whose kinds keep the ``args`` object
as given.

``rec.events`` is a read-only sequence view: ``len()`` is O(1), and
indexing or iteration builds the tuples
``(ph, world, rank, cat, name, ts, dur, args)`` on read, where
``world`` is the index from ``begin_world()`` — a fresh simulation
(e.g. a resilient restart) gets its own index so its timeline, which
restarts at virtual t=0, is not overlaid on the previous one — and
``rank`` is the MPI world rank, or ``-1`` for engine/fault-injector
events.

A kind may name a counter and a histogram its rows feed.  They are not
updated per row: reading ``rec.metrics`` folds the rows recorded since
the last read into the registry, in append order, so histogram sums are
bit-identical to per-row updates.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from contextlib import contextmanager
from itertools import islice
from struct import Struct
from typing import Iterator, List, Optional, Tuple

from .audit import AuditLog
from .metrics import MetricsRegistry

__all__ = [
    "EventView",
    "NULL_RECORDER",
    "NullRecorder",
    "TraceRecorder",
    "declare",
    "get_recorder",
    "install",
    "recording",
    "uninstall",
]

Event = Tuple[str, int, int, str, str, float, float, Optional[dict]]

#: argument types (``struct`` codes); an ``O`` argument is packed as an
#: index into the recorder's object list
_ARG_TYPES = frozenset("iqd?O")

#: kind codes are stored one byte per row
_MAX_KINDS = 256


class _Kind:
    """One declared event shape and the metrics its rows feed.

    A row is packed as ``rank, ts, [dur,] args...`` (little-endian, no
    padding) into the recording's table for this kind.
    """

    __slots__ = ("ph", "cat", "name", "generic", "pack", "unpack_from",
                 "iter_unpack", "size", "exported", "counter", "histogram")

    def __init__(self, ph: str, cat: str, name: str, args: Optional[str],
                 counter: Optional[str], histogram: Optional[tuple]):
        self.ph = ph
        self.cat = cat
        self.name = name
        #: generic kinds keep the caller's ``args`` object as-is
        self.generic = args is None
        fields = [f.partition(":") for f in
                  (args.split() if args is not None else ["args:O"])]
        first = 3 if ph == "X" else 2
        fmt = "<idd" if ph == "X" else "<id"
        #: position of every argument in the unpacked row; the one ``O``
        #: argument's object reference is packed last
        where, ref = {}, None
        for key, _, code in fields:
            if code not in _ARG_TYPES:
                raise ValueError(f"event arg {key!r}: unknown type {code!r}")
            if code != "O":
                where[key] = first + len(where)
                fmt += code
            elif ref is None:
                ref = key
            else:
                raise ValueError(f"event kind {name!r}: more than one O arg")
        if ref is not None:
            where[ref] = first + len(where)
            fmt += "I"
        packer = Struct(fmt)
        self.pack = packer.pack
        self.unpack_from = packer.unpack_from
        self.iter_unpack = packer.iter_unpack
        self.size = packer.size
        #: (key, position, is the object reference) for every exported
        #: argument in declared order; a leading underscore keeps an
        #: argument out of the event's args
        self.exported = tuple((key, where[key], key == ref)
                              for key, _, _ in fields
                              if not key.startswith("_"))
        self.counter = counter
        #: (metric name, position in the unpacked row, bounds)
        self.histogram = None
        if histogram is not None:
            hname, key, bounds = histogram
            self.histogram = (hname, where[key], bounds)

    def row(self, table: bytearray, j: int, objs: list, world: int) -> Event:
        vals = self.unpack_from(table, j * self.size)
        if self.generic:
            args = objs[vals[-1]]
        elif self.exported:
            args = {key: (objs[vals[n]] if ref else vals[n])
                    for key, n, ref in self.exported}
        else:
            args = None
        return (self.ph, world, vals[0], self.cat, self.name, vals[1],
                vals[2] if self.ph == "X" else 0.0, args)


_KINDS: List[_Kind] = []
_CODES: dict = {}
_DECLARE_LOCK = threading.Lock()


def declare(ph: str, cat: str, name: str, args: Optional[str] = "", *,
            counter: Optional[str] = None,
            histogram: Optional[tuple] = None) -> int:
    """The code of the event kind ``(ph, cat, name, args)``.

    ``args`` is a space-separated list of ``key:type`` fields (types
    ``i``/``q`` 32/64-bit int, ``d`` float, ``?`` bool, ``O`` any
    object, at most one per kind); keys with a leading underscore are
    stored but not exported.  ``None`` declares a generic kind whose
    ``args`` is whatever object the caller passes.  ``counter`` names a
    counter incremented once per row, ``histogram`` a
    ``(name, key, bounds)`` histogram observing one argument per row.
    Declaring the same kind again returns the same code.
    """
    key = (ph, cat, name, args, counter, histogram)
    code = _CODES.get(key)
    if code is None:
        with _DECLARE_LOCK:
            code = _CODES.get(key)
            if code is None:
                if len(_KINDS) == _MAX_KINDS:
                    raise ValueError(f"more than {_MAX_KINDS} event kinds")
                _KINDS.append(_Kind(ph, cat, name, args, counter, histogram))
                code = _CODES[key] = len(_KINDS) - 1
    return code


class NullRecorder:
    """Disabled recorder: every call is a no-op.

    Instrumentation never actually calls these methods (it guards on
    ``enabled`` at construction time); they exist so accidental calls
    are harmless rather than crashes.
    """

    enabled = False
    metrics: Optional[MetricsRegistry] = None
    audit: Optional[AuditLog] = None

    def begin_world(self, nprocs: int, label: str = "") -> int:
        return -1

    def prepare(self, *codes: int) -> None:
        pass

    def emit(self, code: int, *row) -> None:
        pass

    def emit_obj(self, obj, code: int, *row) -> None:
        pass

    def instant(self, cat: str, name: str, rank: int, ts: float,
                args: Optional[dict] = None) -> None:
        pass

    def complete(self, cat: str, name: str, rank: int, ts: float,
                 dur: float, args: Optional[dict] = None) -> None:
        pass


class EventView(Sequence):
    """Read-only sequence of a recorder's events, built on read."""

    __slots__ = ("_rec",)

    def __init__(self, rec: "TraceRecorder"):
        self._rec = rec

    def __len__(self) -> int:
        return len(self._rec._order)

    def __iter__(self) -> Iterator[Event]:
        return self._rec._rows()

    def __getitem__(self, i):
        # O(i): rows are read in order, which is how every reader walks
        # them; random access exists for inspection and tests
        if isinstance(i, slice):
            return list(self)[i]
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("event index out of range")
        return next(islice(self._rec._rows(), i, None))

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, tuple, EventView)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other))
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<EventView of {len(self)} events>"


class TraceRecorder:
    """Collects typed trace events, metrics and the tuning audit log."""

    enabled = True

    def __init__(self):
        self.audit = AuditLog()
        self.worlds: List[dict] = []
        self._metrics = MetricsRegistry()
        self.events = EventView(self)
        self._reset_rows()

    def _reset_rows(self) -> None:
        #: kind code of every row, in append order
        self._order = bytearray()
        self._order_append = self._order.append
        #: per kind code: its packed rows, and how many of them are
        #: folded into the metrics registry
        self._tables: List[bytearray] = []
        self._folded: List[int] = []
        #: objects referenced by ``O`` arguments
        self._objs: list = []
        #: row index at which each world began
        self._world_rows: List[int] = []
        self._grow()

    def _grow(self) -> None:
        """Create the tables of every kind declared so far."""
        for _ in _KINDS[len(self._tables):]:
            self._tables.append(bytearray())
            self._folded.append(0)

    # -- world bookkeeping ---------------------------------------------------

    def begin_world(self, nprocs: int, label: str = "") -> int:
        """Register a new simulation; subsequent events belong to it."""
        self._world_rows.append(len(self._order))
        self.worlds.append({"nprocs": nprocs, "label": label})
        return len(self.worlds) - 1

    # -- event emission ------------------------------------------------------

    def emit(self, code: int, *row) -> None:
        """Append one row of kind ``code``: ``rank, ts, [dur,] args...``
        in the order the kind declared them (without its ``O`` one)."""
        try:
            self._tables[code] += _KINDS[code].pack(*row)
        except IndexError:  # declared after this recorder was built
            self._grow()
            self._tables[code] += _KINDS[code].pack(*row)
        self._order_append(code)

    def emit_obj(self, obj, code: int, *row) -> None:
        """``emit`` for a kind with an ``O`` argument, whose value is
        ``obj``."""
        objs = self._objs
        self.emit(code, *row, len(objs))
        objs.append(obj)

    def instant(self, cat: str, name: str, rank: int, ts: float,
                args: Optional[dict] = None) -> None:
        self.emit_obj(args, declare("i", cat, name, None), rank, ts)

    def complete(self, cat: str, name: str, rank: int, ts: float,
                 dur: float, args: Optional[dict] = None) -> None:
        self.emit_obj(args, declare("X", cat, name, None), rank, ts, dur)

    # -- metrics -------------------------------------------------------------

    def prepare(self, *codes: int) -> None:
        """Create the instruments the rows of ``codes`` feed, so a
        snapshot lists them (zero-valued) before the first row."""
        m = self._metrics
        for code in codes:
            kind = _KINDS[code]
            if kind.counter is not None:
                m.counter(kind.counter)
            if kind.histogram is not None:
                m.histogram(kind.histogram[0], kind.histogram[2])

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry, with every row recorded so far folded in."""
        m = self._metrics
        folded = self._folded
        for code, table in enumerate(self._tables):
            kind = _KINDS[code]
            if kind.counter is None and kind.histogram is None:
                continue
            n, done = len(table) // kind.size, folded[code]
            if n == done:
                continue
            folded[code] = n
            if kind.counter is not None:
                m.counter(kind.counter).inc(n - done)
            if kind.histogram is not None:
                name, pos, bounds = kind.histogram
                rows = kind.iter_unpack(table[done * kind.size:])
                m.histogram(name, bounds).observe_many(
                    [vals[pos] for vals in rows])
        return m

    # -- reading -------------------------------------------------------------

    def _rows(self) -> Iterator[Event]:
        tables, objs = self._tables, self._objs
        pos = [0] * len(tables)
        world_rows = self._world_rows
        nworlds = len(world_rows)
        world, nxt = -1, 0
        order = self._order
        for i in range(len(order)):
            while nxt < nworlds and world_rows[nxt] <= i:
                world, nxt = nxt, nxt + 1
            code = order[i]
            j = pos[code]
            pos[code] = j + 1
            yield _KINDS[code].row(tables[code], j, objs, world)

    # -- export --------------------------------------------------------------

    def export_events(self) -> List[list]:
        """Events as JSON-able lists (the on-disk / cross-process form)."""
        return [list(e) for e in self._rows()]

    def clear(self) -> None:
        self._reset_rows()
        self.worlds.clear()
        self._metrics = MetricsRegistry()
        self.audit = AuditLog()


NULL_RECORDER = NullRecorder()
_current: NullRecorder = NULL_RECORDER


def get_recorder():
    """The process-wide recorder (``NULL_RECORDER`` when disabled)."""
    return _current


def install(recorder: TraceRecorder):
    """Install ``recorder`` as the process-wide recorder.

    Returns the previously installed recorder so nested scopes (e.g. a
    per-task recorder inside an in-process sweep worker) can restore it.
    """
    global _current
    prev = _current
    _current = recorder
    return prev


def uninstall() -> None:
    """Reset to the disabled ``NULL_RECORDER``."""
    global _current
    _current = NULL_RECORDER


@contextmanager
def recording(recorder: Optional[TraceRecorder] = None) -> Iterator[TraceRecorder]:
    """Context manager: install a recorder, restore the previous on exit."""
    rec = recorder if recorder is not None else TraceRecorder()
    prev = install(rec)
    try:
        yield rec
    finally:
        install(prev)
