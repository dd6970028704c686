"""Metric definitions, host calibration, the percentile rule and the
comparison verdict.

Importing this module does not import ``repro``, so the parent process,
``--compare`` and the tests can use it without running a workload.

Host calibration
----------------
The ops are identical, deterministic computations, so every difference
between their wall-clock times comes from the host.  On a shared host
that difference is large: the same op ran 0.25 s in one minute and
0.37 s a few minutes later.  Each op is therefore bracketed by a fixed
pure-Python loop (:func:`calibration_loop`), and the end-to-end timings
are reported in *reference seconds*: wall-clock scaled by
``REF_CALIB_S / loop time``, the seconds the op would take on the host
where the loop takes ``REF_CALIB_S``.  Raw wall-clock is reported too
(``wall_s_*``).
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "E2E",
    "EXTRA",
    "PER_LAYER",
    "REF_CALIB_S",
    "Metric",
    "TAIL_PERCENTILE",
    "calibration_loop",
    "e2e_metrics",
    "layer_metrics",
    "quartiles",
    "reference_seconds",
    "summarize",
    "verdict",
]

#: :func:`calibration_loop` on the host the benchmark was defined on, a
#: 2-vCPU Intel Xeon at 2.1 GHz with Python 3.11
REF_CALIB_S = 0.0138


def calibration_loop() -> float:
    """Seconds a fixed pure-Python loop takes now: the host's speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def reference_seconds(seconds: float, calib_s: float) -> float:
    """``seconds`` measured while the calibration loop took ``calib_s``,
    in seconds of the reference host."""
    return seconds * REF_CALIB_S / calib_s


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str = "lower"
    #: share of the base value by which the metric may worsen before a
    #: change counts as a regression
    bound: Optional[float] = None


#: end-to-end timings (in reference seconds) and sizes, from the
#: untraced phase: the metrics BENCHMARK.json gates.  The op time is
#: gated at its first quartile: interference only ever adds time to
#: these identical ops, and over ten runs on a shared host the first
#: quartile spread 1.5-6.4% where the median spread up to 9%; the bound
#: is about three times that worst spread (see README.md)
E2E = (
    Metric("op_s_p25", "s", "lower", 0.20),
    Metric("sim_events_per_s", "events/s", "higher", 0.20),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.10),
)

#: reported next to E2E but not gated: the median and tail follow the
#: host's interference, raw wall-clock also its speed, and
#: ``failed_frac`` is 0 on a correct run (any rise is a regression; the
#: result line carries it as the ``attempted``/``failed`` counts)
EXTRA = (
    Metric("op_s_p50", "s", "lower", 0.25),
    Metric("op_s_p75", "s", "lower", 0.25),
    Metric("wall_s_p50", "s", "lower", None),
    Metric("wall_s_p75", "s", "lower", None),
    Metric("failed_frac", "ratio", "lower", 0.0),
)

#: per-layer metrics, from the traced phase (no bounds).  The FFT's numpy
#: time and the recorder's cost are shares, not seconds: those layers run
#: on one workload only and read 0 elsewhere
PER_LAYER = tuple(Metric(name, unit, *better) for name, unit, *better in (
    ("sim.engine.events", "count"),
    ("sim.engine.batched_frac", "ratio", "higher"),
    ("sim.engine.compactions", "count"),
    ("sim.engine.run_s", "s"),
    ("sim.engine.self_s", "s"),
    ("sim.mpi.world_build_s", "s"),
    ("sim.mpi.self_s", "s"),
    ("sim.mpi.isend_calls", "count"),
    ("sim.mpi.irecv_calls", "count"),
    ("sim.mpi.bytes_posted", "bytes"),
    ("sim.mpi.post_s", "s"),
    ("sim.mpi.retransmits", "count"),
    ("sim.mpi.messages_dropped", "count"),
    ("nbc.start_calls", "count"),
    ("nbc.progress_calls", "count"),
    ("nbc.progress_advance_frac", "ratio", "higher"),
    ("nbc.self_s", "s"),
    ("nbc.cache.lookups", "count"),
    ("nbc.cache.hit_rate", "ratio", "higher"),
    ("nbc.cache.build_s", "s"),
    ("adcl.timer_stops", "count"),
    ("adcl.feeds", "count"),
    ("adcl.learning_iters", "count"),
    ("adcl.self_s", "s"),
    ("apps.fft.numpy_calls", "count"),
    ("apps.fft.numpy_frac", "ratio"),
    ("apps.fft.bytes_computed", "bytes"),
    ("obs.recorder_events", "count"),
    ("obs.recorder_overhead_frac", "ratio"),
    ("bench.self_s", "s"),
    ("trace_overhead", "ratio"),
))

#: the tail percentile reported next to the median
TAIL_PERCENTILE = 75
#: samples that must lie beyond a reported percentile
_MIN_BEYOND = 10


def _nearest_rank(ordered: list[float], percentile: int) -> float:
    return ordered[max(math.ceil(percentile / 100 * len(ordered)), 1) - 1]


def summarize(samples: list[float]) -> dict:
    """Sample count, first quartile, median and, when at least ten
    samples lie beyond it, the tail percentile (percentiles by nearest
    rank; a failed op is ``inf``)."""
    n = len(samples)
    ordered = sorted(samples)
    out = {"n": n, "p25": _nearest_rank(ordered, 25),
           "p50": statistics.median(samples)}
    if n - math.ceil(TAIL_PERCENTILE / 100 * n) >= _MIN_BEYOND:
        out[f"p{TAIL_PERCENTILE}"] = _nearest_rank(ordered, TAIL_PERCENTILE)
    return out


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


def e2e_metrics(op_s: list[float], wall_s: list[float],
                setup_s: list[float], peak_rss_mb: float, events: int,
                attempted: int, failed: int) -> dict:
    """End-to-end and extra values of one workload.

    ``op_s`` and ``setup_s`` are in reference seconds, ``wall_s`` is the
    ops' raw wall-clock; the tail percentiles appear only when the
    percentile rule allows them.
    """
    s, w = summarize(op_s), summarize(wall_s)
    out = {"op_s_p25": s["p25"], "op_s_p50": s["p50"], "wall_s_p50": w["p50"]}
    if "p75" in s:
        out["op_s_p75"] = s["p75"]
        out["wall_s_p75"] = w["p75"]
    out["sim_events_per_s"] = events / out["op_s_p25"]
    out["setup_s"] = statistics.median(setup_s)
    out["peak_rss_mb"] = peak_rss_mb
    out["failed_frac"] = failed / attempted
    return out


def _calls(op: dict, key: str) -> int:
    return op["calls"].get(key, (0, 0.0, 0.0))[0]


def _seconds(op: dict, key: str) -> float:
    return op["calls"].get(key, (0, 0.0, 0.0))[1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _per_op(op: dict) -> dict:
    counts = op["counts"]
    fft = ("numpy.fft.fft2", "numpy.fft.fft", "numpy.fft.fftn")
    return {
        "sim.engine.events": counts.get("engine.events_dispatched", 0),
        "sim.engine.batched_frac": _ratio(
            counts.get("engine.batched_syscalls", 0),
            counts.get("engine.events_dispatched", 0)),
        "sim.engine.compactions": counts.get("engine.compactions", 0),
        "sim.engine.run_s": _seconds(op, "Simulator.run"),
        "sim.engine.self_s": op["layer_self_s"]["sim.engine"],
        "sim.mpi.world_build_s": (_seconds(op, "SimWorld.__init__")
                                  + _seconds(op, "SimWorld.launch")),
        "sim.mpi.self_s": op["layer_self_s"]["sim.mpi"],
        "sim.mpi.isend_calls": _calls(op, "MPIContext.isend"),
        "sim.mpi.irecv_calls": _calls(op, "MPIContext.irecv"),
        "sim.mpi.bytes_posted": counts.get("mpi.bytes_posted", 0),
        "sim.mpi.post_s": (_seconds(op, "MPIContext.isend")
                           + _seconds(op, "MPIContext.irecv")),
        "sim.mpi.retransmits": counts.get("mpi.retransmits", 0),
        "sim.mpi.messages_dropped": counts.get("mpi.messages_dropped", 0),
        "nbc.start_calls": _calls(op, "NBCRequest.start"),
        "nbc.progress_calls": _calls(op, "NBCRequest.progress"),
        "nbc.progress_advance_frac": _ratio(
            counts.get("nbc.progress_advanced", 0),
            _calls(op, "NBCRequest.progress")),
        "nbc.self_s": op["layer_self_s"]["nbc"],
        "adcl.timer_stops": _calls(op, "ADCLTimer.stop"),
        "adcl.feeds": _calls(op, "Selector.feed"),
        "adcl.learning_iters": counts.get("adcl.learning_iters", 0),
        "adcl.self_s": op["layer_self_s"]["adcl"],
        "apps.fft.numpy_calls": sum(_calls(op, k) for k in fft),
        "apps.fft.numpy_frac": _ratio(op["layer_self_s"]["apps.fft"],
                                      op["op_s"]),
        "apps.fft.bytes_computed": counts.get("fft.bytes_computed", 0),
        "bench.self_s": op["layer_self_s"]["bench"],
    }


def layer_metrics(cold: dict, ops: list[dict], untraced: list[dict],
                  recorder: bool) -> dict:
    """Per-layer values of one workload's traced phase.

    ``ops`` are the steady traced op records (medians are taken over
    them); ``cold`` is the traced first op of a fresh process, which
    alone shows schedule-cache misses.  ``untraced`` are the untraced
    ops interleaved with them; those run as the workload defines
    (``recorder``) are the reference for ``trace_overhead``, and on a
    workload with the product recorder the others ran without it.
    """
    per_op = [_per_op(op) for op in ops]
    # median_low: a value some op really had (counts stay integers)
    out = {name: statistics.median_low(row[name] for row in per_op)
           for name in per_op[0]}
    lookups = _calls(cold, "ScheduleCache.get")
    misses = cold["counts"].get("nbc.cache.misses", 0)
    out["nbc.cache.lookups"] = lookups
    out["nbc.cache.hit_rate"] = _ratio(lookups - misses, lookups)
    out["nbc.cache.build_s"] = cold["counts"].get("nbc.cache.build_s", 0.0)
    default = [u for u in untraced if u["recorder"] == recorder]
    default_s = statistics.median(u["s"] for u in default)
    out["trace_overhead"] = (statistics.median(op["op_s"] for op in ops)
                             / default_s)
    out["obs.recorder_events"] = statistics.median_low(
        u["recorder_events"] for u in default)
    out["obs.recorder_overhead_frac"] = 0.0
    if recorder:
        off_s = statistics.median(u["s"] for u in untraced if not u["recorder"])
        out["obs.recorder_overhead_frac"] = default_s / off_s - 1
    return {m.name: out[m.name] for m in PER_LAYER}


def verdict(metric: Metric, base: float, base_samples: list[float],
            new: float, new_samples: list[float]) -> tuple[float, float, str]:
    """Compare one end-to-end metric between two runs.

    Returns the relative change of the value (positive = worse), the
    wider of the two runs' interquartile spreads relative to their
    medians, and the verdict: ``unresolved`` when that spread is wider
    than the bound, else ``worse`` / ``better`` when the value moved by
    more than the bound, else ``within``.
    """
    if base == 0:
        # only failed_frac sits at 0: any rise is worse
        delta = math.inf if new > 0 else 0.0
    else:
        delta = (new - base) / abs(base)
    if metric.better == "higher":
        delta = -delta
    b1, bm, b3 = quartiles(base_samples)
    n1, nm, n3 = quartiles(new_samples)
    spread = max(_ratio(b3 - b1, abs(bm)), _ratio(n3 - n1, abs(nm)))
    bound = metric.bound or 0.0
    if spread > bound and bound > 0:
        word = "unresolved"
    elif delta > bound:
        word = "worse"
    elif -delta > bound and bound > 0:
        word = "better"
    else:
        word = "within"
    return delta, spread, word
