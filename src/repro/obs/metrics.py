"""Metrics registry: counters, gauges and fixed-bucket histograms.

All metrics are plain Python objects with deterministic JSON snapshots
(sorted keys, no timestamps) so that traces containing them stay
byte-identical across serial and parallel runs of the same scenario.

Metrics measure *virtual* quantities (simulated seconds, message bytes,
event counts) — never wall-clock — which is what makes them
reproducible.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "SERVICE_BUCKETS",
    "SIZE_BUCKETS",
    "merge_snapshots",
]

#: default bucket upper bounds (seconds) for latency-style histograms;
#: roughly logarithmic from 1 microsecond to 1 second
LATENCY_BUCKETS = (
    1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0,
)

#: default bucket upper bounds for message-size histograms (bytes)
SIZE_BUCKETS = (64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304)

#: bucket upper bounds (seconds) for the tuning *service*'s request
#: latencies — the one sanctioned wall-clock exception to the
#: virtual-time rule above: service telemetry describes the daemon
#: process, never a simulation trace, and is kept out of trace docs
SERVICE_BUCKETS = (
    1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0, 10.0, 30.0,
)


class Counter:
    """Monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-write-wins scalar."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0

    def set(self, v: float) -> None:
        self.value = float(v)

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed-bucket histogram.

    ``bounds`` are inclusive upper bucket edges; one extra overflow
    bucket catches everything above the last edge.  Fixed (rather than
    adaptive) buckets keep snapshots mergeable across processes: two
    histograms with the same bounds merge by vector-adding counts.
    """

    __slots__ = ("name", "bounds", "counts", "total", "sum")

    def __init__(self, name: str, bounds: Sequence[float] = LATENCY_BUCKETS):
        self.name = name
        self.bounds: List[float] = [float(b) for b in bounds]
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, v: float) -> None:
        # bisect_left makes the edges inclusive upper bounds: an
        # observation exactly on an edge lands in that edge's bucket
        self.counts[bisect_left(self.bounds, v)] += 1
        self.total += 1
        self.sum += v

    def observe_many(self, values) -> None:
        """``observe`` each value in order (the sum is accumulated one
        value at a time, so it is bit-identical to per-value calls)."""
        bounds, counts, total = self.bounds, self.counts, self.sum
        for v in values:
            counts[bisect_left(bounds, v)] += 1
            total += v
        self.sum = total
        self.total += len(values)

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def snapshot(self) -> dict:
        return {
            "type": "histogram",
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "total": self.total,
            "sum": self.sum,
        }


class MetricsRegistry:
    """Name-keyed collection of metrics with a JSON-able snapshot.

    ``counter()`` / ``gauge()`` / ``histogram()`` create on first use
    and return the existing instrument afterwards, so instrumentation
    sites never need to coordinate registration.
    """

    def __init__(self):
        self._metrics: Dict[str, object] = {}

    def counter(self, name: str) -> Counter:
        m = self._metrics.get(name)
        if m is None:
            m = self._metrics[name] = Counter(name)
        return m  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        m = self._metrics.get(name)
        if m is None:
            m = self._metrics[name] = Gauge(name)
        return m  # type: ignore[return-value]

    def histogram(self, name: str,
                  bounds: Sequence[float] = LATENCY_BUCKETS) -> Histogram:
        m = self._metrics.get(name)
        if m is None:
            m = self._metrics[name] = Histogram(name, bounds)
        return m  # type: ignore[return-value]

    def get(self, name: str) -> Optional[object]:
        return self._metrics.get(name)

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> dict:
        """Deterministic JSON-able snapshot, sorted by metric name."""
        return {name: self._metrics[name].snapshot()  # type: ignore[attr-defined]
                for name in sorted(self._metrics)}

    def dump(self, path: str, scope: str = "") -> None:
        """Write the snapshot as a JSON document (sorted, trailing
        newline) — the on-disk form CI archives as an artifact, e.g.
        the sweep fabric's telemetry after a chaos run."""
        import json

        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"scope": scope, "metrics": self.snapshot()}, fh,
                      sort_keys=True, indent=2)
            fh.write("\n")


def merge_snapshots(snapshots: Sequence[dict]) -> dict:
    """Merge metric snapshots from several runs/workers into one.

    Counters and histogram vectors add; gauges are last-write-wins (in
    the order given, which callers keep deterministic — task order).
    Histograms with mismatched bounds or a counts vector that does not
    match its bounds raise ``ValueError`` rather than silently
    producing garbage (``zip`` would truncate a short vector).
    """

    def check_histogram(name: str, m: dict) -> None:
        if len(m.get("counts", ())) != len(m.get("bounds", ())) + 1:
            raise ValueError(
                f"histogram {name!r}: counts length "
                f"{len(m.get('counts', ()))} != bounds length "
                f"{len(m.get('bounds', ()))} + 1")

    out: dict = {}
    for snap in snapshots:
        for name, m in snap.items():
            prev = out.get(name)
            if prev is None:
                if m.get("type") == "histogram":
                    check_histogram(name, m)
                out[name] = {k: (list(v) if isinstance(v, list) else v)
                             for k, v in m.items()}
                continue
            if prev["type"] != m["type"]:
                raise ValueError(f"metric {name!r}: type mismatch "
                                 f"{prev['type']} vs {m['type']}")
            if m["type"] == "counter":
                prev["value"] += m["value"]
            elif m["type"] == "gauge":
                prev["value"] = m["value"]
            else:  # histogram
                if prev["bounds"] != m["bounds"]:
                    raise ValueError(f"histogram {name!r}: bounds mismatch")
                check_histogram(name, m)
                prev["counts"] = [a + b for a, b in zip(prev["counts"], m["counts"])]
                prev["total"] += m["total"]
                prev["sum"] += m["sum"]
    return {name: out[name] for name in sorted(out)}
