"""Statistical filtering of runtime measurements.

ADCL's selection logic must not be fooled by the occasional measurement
where the operating system or another job stole the core (§IV-A notes
that the few wrong decisions ADCL made "typically involved having a
larger number of data outliers during the evaluation phase").  Following
Benkert/Gabriel/Roller ("Timing Collective Communications in an
Empirical Optimization Framework"), measurements are filtered before
averaging.

Three estimators are provided:

* ``"mean"``    — plain arithmetic mean (no filtering; ablation baseline),
* ``"iqr"``     — drop samples outside ``[Q1 - 1.5 IQR, Q3 + 1.5 IQR]``,
* ``"cluster"`` — keep the samples within ``rtol`` of the minimum (the
  ADCL heuristic: the cluster of unperturbed runs sits just above the
  true cost; everything else is interference).
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence

from ..errors import AdclError

__all__ = ["robust_mean", "filter_outliers", "DriftDetector", "FILTER_METHODS"]

FILTER_METHODS = ("mean", "iqr", "cluster")


def filter_outliers(samples: Sequence[float], method: str = "cluster",
                    rtol: float = 0.25) -> list[float]:
    """Return the subset of ``samples`` the estimator considers clean,
    as floats in their original order."""
    vals = [float(v) for v in samples]
    if not vals:
        raise AdclError("cannot filter an empty sample set")
    if method == "mean":
        return vals
    if method == "iqr":
        if len(vals) < 4:
            return vals
        import numpy as np

        arr = np.asarray(vals)
        q1, q3 = np.percentile(arr, [25, 75])
        iqr = q3 - q1
        mask = (arr >= q1 - 1.5 * iqr) & (arr <= q3 + 1.5 * iqr)
        return arr[mask].tolist() if mask.any() else vals
    if method == "cluster":
        cut = min(vals) * (1.0 + rtol)
        kept = [v for v in vals if v <= cut]
        # a NaN sample makes numpy's minimum NaN, which keeps nothing
        if not kept or any(v != v for v in vals):
            return vals
        return kept
    raise AdclError(f"unknown filter method {method!r}; expected {FILTER_METHODS}")


def _pairwise_sum(vals: list[float], lo: int, n: int) -> float:
    """Sum of ``vals[lo:lo + n]`` in the order numpy's pairwise summation
    adds float64 values: a plain loop below 8 values, 8 interleaved
    partial sums up to 128, and above that the two halves, split at a
    multiple of 8."""
    if n < 8:
        res = 0.0
        for i in range(lo, lo + n):
            res += vals[i]
        return res
    if n <= 128:
        end = lo + n - n % 8
        r = []
        for j in range(lo, lo + 8):
            acc = vals[j]
            for v in vals[j + 8:end:8]:
                acc += v
            r.append(acc)
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for i in range(end, lo + n):
            res += vals[i]
        return res
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise_sum(vals, lo, n2) + _pairwise_sum(vals, lo + n2, n - n2)


def robust_mean(samples: Sequence[float], method: str = "cluster",
                rtol: float = 0.25) -> float:
    """Outlier-filtered mean of a measurement series.

    Bit for bit the ``ndarray.mean()`` of the kept samples: numpy adds
    their pairwise sum to its identity ``0.0`` and divides by the count.
    Neither builtin ``sum`` (compensated from Python 3.12 on) nor
    ``math.fsum`` adds in that order.
    """
    kept = filter_outliers(samples, method=method, rtol=rtol)
    return (0.0 + _pairwise_sum(kept, 0, len(kept))) / len(kept)


class DriftDetector:
    """Sliding-window detector for post-decision performance drift.

    A tuning decision is only valid under the conditions it was measured
    in (Hunold's performance-guideline argument).  The detector compares
    the robust mean of the last ``window`` post-decision measurements
    against the decision-time ``baseline``; when the level moves by more
    than ``threshold`` in *either* direction — the platform got slower
    (congestion, degraded link) or much faster (a transient that
    poisoned the learning phase ended) — the decision is stale and
    :meth:`update` reports drift so the owner can re-open tuning.

    ``baseline=None`` (a winner loaded from historic learning, which has
    no decision-time samples) uses the first full window as baseline and
    monitors from there.
    """

    def __init__(self, baseline: Optional[float] = None, window: int = 8,
                 threshold: float = 1.75, method: str = "cluster"):
        if window < 1:
            raise AdclError(f"drift window must be >= 1, got {window}")
        if threshold <= 1.0:
            raise AdclError(f"drift threshold must be > 1, got {threshold}")
        if baseline is not None and baseline <= 0.0:
            raise AdclError(f"drift baseline must be positive, got {baseline}")
        self.baseline = baseline
        self.window = window
        self.threshold = threshold
        self.method = method
        self._samples: deque[float] = deque(maxlen=window)
        #: latched once drift has been reported
        self.drifted = False

    @property
    def level(self) -> Optional[float]:
        """Robust mean of the current window (None until it is full)."""
        if len(self._samples) < self.window:
            return None
        return robust_mean(list(self._samples), method=self.method)

    def update(self, seconds: float) -> bool:
        """Feed one post-decision measurement; True when drift detected."""
        if self.drifted:
            return True
        self._samples.append(seconds)
        level = self.level
        if level is None:
            return False
        if self.baseline is None:
            self.baseline = level
            return False
        if level > self.threshold * self.baseline or (
            level * self.threshold < self.baseline
        ):
            self.drifted = True
            return True
        return False
