"""Unit + property tests for measurement filtering."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.adcl import filter_outliers, robust_mean
from repro.errors import AdclError


def test_mean_method_keeps_everything():
    assert robust_mean([1.0, 2.0, 3.0], method="mean") == pytest.approx(2.0)


def test_cluster_drops_heavy_outlier():
    samples = [1.0, 1.05, 1.1, 9.0]
    assert robust_mean(samples, method="cluster") == pytest.approx(
        np.mean([1.0, 1.05, 1.1])
    )


def test_cluster_rtol_controls_window():
    samples = [1.0, 1.2, 1.4]
    kept = filter_outliers(samples, method="cluster", rtol=0.25)
    np.testing.assert_allclose(kept, [1.0, 1.2])
    kept = filter_outliers(samples, method="cluster", rtol=0.5)
    np.testing.assert_allclose(kept, [1.0, 1.2, 1.4])


def test_iqr_drops_extreme_point():
    samples = [1.0, 1.0, 1.1, 1.05, 0.95, 1.02, 50.0]
    kept = filter_outliers(samples, method="iqr")
    assert 50.0 not in kept
    assert len(kept) == 6


def test_iqr_small_samples_pass_through():
    kept = filter_outliers([1.0, 100.0], method="iqr")
    assert len(kept) == 2


def test_empty_samples_raise():
    with pytest.raises(AdclError):
        robust_mean([], method="mean")


def test_unknown_method_raises():
    with pytest.raises(AdclError):
        robust_mean([1.0], method="median-of-means")


@given(st.lists(st.floats(min_value=1e-6, max_value=1e3), min_size=1, max_size=50),
       st.sampled_from(["mean", "iqr", "cluster"]))
def test_robust_mean_bounded_by_sample_range(samples, method):
    m = robust_mean(samples, method=method)
    assert min(samples) - 1e-9 <= m <= max(samples) + 1e-9


@given(st.floats(min_value=1e-3, max_value=1e3), st.integers(2, 20),
       st.sampled_from(["mean", "iqr", "cluster"]))
def test_constant_samples_mean_is_constant(value, n, method):
    assert robust_mean([value] * n, method=method) == pytest.approx(value)


@given(st.lists(st.floats(min_value=0.9, max_value=1.1), min_size=4, max_size=30))
def test_cluster_estimate_robust_to_injected_outliers(clean):
    """Adding huge outliers must not move the cluster estimate much."""
    clean_mean = robust_mean(clean, method="cluster")
    poisoned = list(clean) + [1000.0, 2000.0]
    assert robust_mean(poisoned, method="cluster") == pytest.approx(clean_mean)


# ---------------------------------------------------------------------------
# drift detection
# ---------------------------------------------------------------------------


def test_drift_detector_validation():
    from repro.adcl.statistics import DriftDetector
    from repro.errors import AdclError

    with pytest.raises(AdclError):
        DriftDetector(window=0)
    with pytest.raises(AdclError):
        DriftDetector(threshold=1.0)
    with pytest.raises(AdclError):
        DriftDetector(baseline=0.0)


def test_drift_fires_on_slowdown_and_latches():
    from repro.adcl.statistics import DriftDetector

    d = DriftDetector(baseline=1.0, window=4, threshold=1.75)
    for _ in range(3):
        assert not d.update(3.0)  # window not yet full
    assert d.update(3.0)          # level 3.0 > 1.75 x baseline
    assert d.drifted
    assert d.update(1.0)          # latched even on healthy samples


def test_drift_fires_on_speedup_too():
    from repro.adcl.statistics import DriftDetector

    d = DriftDetector(baseline=1.0, window=4, threshold=1.75)
    for _ in range(3):
        assert not d.update(0.4)
    assert d.update(0.4)          # 0.4 * 1.75 < 1.0: decision was stale


def test_no_drift_within_threshold():
    from repro.adcl.statistics import DriftDetector

    d = DriftDetector(baseline=1.0, window=3, threshold=2.0)
    for x in (1.4, 0.7, 1.2, 1.5, 0.8, 1.0):
        assert not d.update(x)
    assert not d.drifted


def test_unknown_baseline_uses_first_full_window():
    from repro.adcl.statistics import DriftDetector

    d = DriftDetector(baseline=None, window=3, threshold=1.75)
    for x in (1.0, 1.0, 1.0):
        assert not d.update(x)
    assert d.baseline == pytest.approx(1.0)
    for _ in range(2):
        d.update(5.0)
    assert d.update(5.0)


# ---------------------------------------------------------------------------
# bit identity with the numpy estimator
# ---------------------------------------------------------------------------


def _numpy_filter_outliers(samples, method="cluster", rtol=0.25):
    """The numpy estimator the pure-Python one replaced, verbatim."""
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise AdclError("cannot filter an empty sample set")
    if method == "mean":
        return arr
    if method == "iqr":
        if arr.size < 4:
            return arr
        q1, q3 = np.percentile(arr, [25, 75])
        iqr = q3 - q1
        mask = (arr >= q1 - 1.5 * iqr) & (arr <= q3 + 1.5 * iqr)
        return arr[mask] if mask.any() else arr
    if method == "cluster":
        lo = arr.min()
        kept = arr[arr <= lo * (1.0 + rtol)]
        return kept if kept.size else arr
    raise AdclError(f"unknown filter method {method!r}")


def _numpy_robust_mean(samples, method="cluster", rtol=0.25):
    return float(_numpy_filter_outliers(samples, method=method, rtol=rtol).mean())


def _assert_matches_numpy(samples, method, rtol):
    kept = filter_outliers(samples, method=method, rtol=rtol)
    ref = _numpy_filter_outliers(samples, method=method, rtol=rtol)
    assert [float(v).hex() for v in kept] == [float(v).hex() for v in ref]
    assert (robust_mean(samples, method=method, rtol=rtol).hex()
            == _numpy_robust_mean(samples, method=method, rtol=rtol).hex())


#: run times (positive, spread over nine decades) or any finite value
#: small enough that 300 of them cannot overflow a sum
_SAMPLES = st.one_of(st.floats(min_value=1e-7, max_value=1e2),
                     st.floats(min_value=-1e300, max_value=1e300))
_METHODS = st.sampled_from(["mean", "iqr", "cluster"])
_RTOLS = st.sampled_from([0.0, 0.25, 0.5, 3.0])


@given(st.lists(_SAMPLES, min_size=1, max_size=300), _METHODS, _RTOLS)
def test_estimator_matches_numpy_bit_for_bit(samples, method, rtol):
    _assert_matches_numpy(samples, method, rtol)


@pytest.mark.parametrize("n", [8, 128, 129, 8192, 8193])
@given(seed=st.integers(0, 2**32 - 1), method=_METHODS, rtol=_RTOLS)
def test_estimator_matches_numpy_at_block_edges(n, seed, method, rtol):
    """Lengths where numpy's pairwise summation changes shape: the first
    8-way unrolled block, the largest unsplit block, the first split,
    and numpy's 8192-element buffer size on either side."""
    rng = np.random.default_rng(seed)
    samples = (rng.random(n) * 10.0 ** rng.integers(-7, 3, n)).tolist()
    _assert_matches_numpy(samples, method, rtol)


def test_estimator_matches_numpy_on_special_values():
    for samples in ([-0.0] * 9, [0.0, -0.0], [1.0, float("nan"), 2.0],
                    [float("nan")] * 3, [float("inf"), 1.0] * 5):
        for method in ("mean", "cluster"):
            kept = filter_outliers(samples, method=method)
            ref = _numpy_filter_outliers(samples, method=method)
            assert [v.hex() for v in kept] == [float(v).hex() for v in ref]
            with np.errstate(invalid="ignore"):
                want = _numpy_robust_mean(samples, method=method)
            assert robust_mean(samples, method=method).hex() == want.hex()
