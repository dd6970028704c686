"""Per-layer tracing from outside the program.

:class:`LayerTracer` replaces the public functions each layer exposes
with wrappers that bracket every call with ``time.perf_counter`` and
track nesting, so a call's *self time* is its duration minus the part
covered by wrapped calls it made.  Nothing under ``src/`` changes: the
wrappers are installed on the classes and modules at run time and
:meth:`LayerTracer.uninstall` puts the original objects back.

Per op, the self times of all spans add up to the op's duration (the
op itself is the root span and belongs to the ``bench`` layer).  Spans
of the op, of ``Simulator.run`` and of world construction are kept with
their op id and parent; the hot per-call functions are only aggregated
per op.
"""

from __future__ import annotations

import time

import numpy

from repro.adcl.request import ADCLRequest
from repro.adcl.selection.base import Selector
from repro.adcl.timer import ADCLTimer
from repro.nbc.request import NBCRequest
from repro.nbc.schedule import ScheduleCache
from repro.sim.engine import Simulator
from repro.sim.mpi import MPIContext, SimWorld

__all__ = ["LAYERS", "LayerTracer", "TARGETS"]

LAYERS = ("bench", "sim.engine", "sim.mpi", "nbc", "adcl", "apps.fft")

_ENGINE_COUNTERS = ("events_dispatched", "batched_syscalls", "compactions")


def _engine_probe(args):
    stats = args[0].stats()
    return [stats[k] for k in _ENGINE_COUNTERS]


def _engine_settle(counts, before, args, out, dur):
    stats = args[0].stats()
    for key, b in zip(_ENGINE_COUNTERS, before):
        counts["engine." + key] += stats[key] - b


def _isend_settle(counts, before, args, out, dur):
    counts["mpi.bytes_posted"] += out.nbytes


def _progress_probe(args):
    return args[0].current_round


def _progress_settle(counts, before, args, out, dur):
    if args[0].current_round != before:
        counts["nbc.progress_advanced"] += 1


def _cache_probe(args):
    return args[0].misses


def _cache_settle(counts, before, args, out, dur):
    if args[0].misses != before:
        counts["nbc.cache.misses"] += 1
        counts["nbc.cache.build_s"] += dur


def _fft_settle(counts, before, args, out, dur):
    counts["fft.bytes_computed"] += numpy.asarray(args[0]).nbytes + out.nbytes


#: (owner, attribute, layer, kind, probe, settle); kind is "call",
#: "span" (a call whose span is kept) or "gen" (a generator function,
#: timed per resumption)
TARGETS = (
    (Simulator, "run", "sim.engine", "span", _engine_probe, _engine_settle),
    (SimWorld, "__init__", "sim.mpi", "span", None, None),
    (SimWorld, "launch", "sim.mpi", "span", None, None),
    (MPIContext, "isend", "sim.mpi", "call", None, _isend_settle),
    (MPIContext, "irecv", "sim.mpi", "call", None, None),
    (NBCRequest, "start", "nbc", "call", None, None),
    (NBCRequest, "progress", "nbc", "call", _progress_probe, _progress_settle),
    (ScheduleCache, "get", "nbc", "call", _cache_probe, _cache_settle),
    (ADCLTimer, "start", "adcl", "call", None, None),
    (ADCLTimer, "stop", "adcl", "call", None, None),
    (ADCLRequest, "start_now", "adcl", "call", None, None),
    (ADCLRequest, "start", "adcl", "gen", None, None),
    (ADCLRequest, "wait", "adcl", "gen", None, None),
    (Selector, "feed", "adcl", "call", None, None),
    (numpy.fft, "fft2", "apps.fft", "call", None, _fft_settle),
    (numpy.fft, "fft", "apps.fft", "call", None, _fft_settle),
    (numpy.fft, "fftn", "apps.fft", "call", None, _fft_settle),
)


def _key(owner, attr: str) -> str:
    return f"{owner.__name__}.{attr}"


class _Counts(dict):
    def __missing__(self, key):
        return 0


class LayerTracer:
    """Wraps the layers' public functions and accounts every call to an op.

    ``targets`` defaults to :data:`TARGETS`; tests pass a synthetic table.
    """

    def __init__(self, targets: tuple = TARGETS) -> None:
        self._targets = targets
        #: one frame per open span: [covered child seconds, kept span id]
        self._stack: list[list] = [[0.0, None]]
        self._agg: dict[str, list] = {}
        self._counts = _Counts()
        self._op_id = -1
        #: (owner, attribute, original object); ``vars(owner)`` rather than
        #: ``getattr`` so an attribute is restored on the class defining it
        self._originals: list[tuple] = []
        self._installed = False
        #: kept spans: dicts with id, parent, op, name, layer, start, end
        self.spans: list[dict] = []
        #: one record per op (see :meth:`run_op`)
        self.ops: list[dict] = []
        self._layer_of = {"op": "bench"}
        for owner, attr, layer, *_ in targets:
            self._layer_of[_key(owner, attr)] = layer

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("LayerTracer is already installed")
        self._originals = []
        for owner, attr, _layer, kind, probe, settle in self._targets:
            orig = vars(owner)[attr]
            key = _key(owner, attr)
            if kind == "gen":
                wrapper = self._wrap_gen(key, orig)
            else:
                wrapper = self._wrap(key, orig, kind == "span", probe, settle)
            self._originals.append((owner, attr, orig))
            setattr(owner, attr, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        for owner, attr, orig in self._originals:
            setattr(owner, attr, orig)
        self._installed = False

    def restored(self) -> bool:
        """Whether every wrapped attribute holds its original object again."""
        return all(vars(owner)[attr] is orig
                   for owner, attr, orig in self._originals)

    # -- spans ----------------------------------------------------------

    def _open(self, key: str, keep: bool) -> tuple[list, float]:
        stack = self._stack
        if keep:
            span_id = len(self.spans)
            self.spans.append({"id": span_id, "parent": stack[-1][1],
                               "op": self._op_id, "name": key,
                               "layer": self._layer_of[key]})
        else:
            span_id = stack[-1][1]
        frame = [0.0, span_id]
        stack.append(frame)
        return frame, time.perf_counter()

    def _close(self, key: str, frame: list, t0: float, keep: bool,
               calls: int = 1) -> float:
        t1 = time.perf_counter()
        stack = self._stack
        stack.pop()
        dur = t1 - t0
        stack[-1][0] += dur
        acc = self._agg.get(key)
        if acc is None:
            acc = self._agg[key] = [0, 0.0, 0.0]
        acc[0] += calls
        acc[1] += dur
        acc[2] += dur - frame[0]
        if keep:
            span = self.spans[frame[1]]
            span["start"] = t0
            span["end"] = t1
        return dur

    def _wrap(self, key, fn, keep, probe, settle):
        tracer = self

        def wrapper(*args, **kwargs):
            before = probe(args) if probe is not None else None
            frame, t0 = tracer._open(key, keep)
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = tracer._close(key, frame, t0, keep)
            if settle is not None:
                settle(tracer._counts, before, args, out, dur)
            return out

        return wrapper

    def _wrap_gen(self, key, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer._drive(key, fn(*args, **kwargs))

        return wrapper

    def _drive(self, key, gen):
        """Delegate to ``gen``, timing each resumption as one span."""
        value = exc = None
        calls = 1  # one call, however many resumptions
        while True:
            frame, t0 = self._open(key, False)
            try:
                item = gen.send(value) if exc is None else gen.throw(exc)
            except StopIteration as stop:
                self._close(key, frame, t0, False, calls)
                return stop.value
            except BaseException:
                self._close(key, frame, t0, False, calls)
                raise
            self._close(key, frame, t0, False, calls)
            calls = 0
            value = exc = None
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as e:  # thrown into us: forward
                exc = e

    # -- ops ------------------------------------------------------------

    def run_op(self, fn):
        """Run ``fn()`` as the root span of a new op and record the op.

        The record holds the op's duration, per-function ``[calls,
        seconds, self seconds]``, the per-layer self times (which add up
        to the duration) and the work counters the wrappers collected.
        """
        self._op_id = len(self.ops)
        self._agg = {}
        self._counts = _Counts()
        frame, t0 = self._open("op", True)
        try:
            return fn()
        finally:
            dur = self._close("op", frame, t0, True)
            layer_self = dict.fromkeys(LAYERS, 0.0)
            for key, (_calls, _total, self_s) in self._agg.items():
                layer_self[self._layer_of[key]] += self_s
            self.ops.append({
                "op": self._op_id,
                "op_s": dur,
                "calls": self._agg,
                "layer_self_s": layer_self,
                "counts": dict(self._counts),
            })
            self._op_id = -1
