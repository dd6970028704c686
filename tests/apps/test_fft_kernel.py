"""Integration tests for the 3-D FFT application kernel."""

import numpy as np
import pytest

from repro.apps.fft import (
    FFT_METHODS,
    FFTConfig,
    PATTERNS,
    fft_flops,
    fft_seconds,
    get_pattern,
    line_fft_seconds,
    plane_fft_seconds,
    run_fft,
)
from repro.apps.fft import kernel
from repro.errors import ReproError
from repro.sim import get_platform


# ---------------------------------------------------------------------------
# cost model units
# ---------------------------------------------------------------------------


def test_fft_flops_formula():
    assert fft_flops(1) == 0.0
    assert fft_flops(8) == pytest.approx(5 * 8 * 3)


def test_fft_seconds_scales_with_cpu_speed():
    whale = get_platform("whale").params
    bgp = get_platform("bluegene_p").params
    assert fft_seconds(1024, bgp) > fft_seconds(1024, whale)


def test_plane_cost_is_2n_line_ffts():
    p = get_platform("whale").params
    assert plane_fft_seconds(64, 1, p) == pytest.approx(2 * 64 * fft_seconds(64, p))
    assert plane_fft_seconds(64, 3, p) == pytest.approx(3 * plane_fft_seconds(64, 1, p))


def test_line_cost_linear_in_lines():
    p = get_platform("whale").params
    assert line_fft_seconds(64, 10, p) == pytest.approx(10 * fft_seconds(64, p))


# ---------------------------------------------------------------------------
# patterns
# ---------------------------------------------------------------------------


def test_pattern_registry():
    assert set(PATTERNS) == {"pipelined", "tiled", "windowed", "window_tiled"}
    assert get_pattern("pipelined").window == 2
    assert get_pattern("pipelined").tile == 1
    assert get_pattern("windowed").window == 3
    assert get_pattern("window_tiled").tile == 10


def test_unknown_pattern_rejected():
    with pytest.raises(ReproError):
        get_pattern("zigzag")


# ---------------------------------------------------------------------------
# kernel runs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("pattern", sorted(PATTERNS))
def test_kernel_validates_against_numpy(pattern):
    cfg = FFTConfig(n=16, nprocs=4, pattern=pattern, method="adcl",
                    iterations=8, validate=True, evals_per_function=2)
    res = run_fft(cfg)
    assert res.validated is True
    assert len(res.records) == 8


def test_validation_checks_every_iteration(monkeypatch):
    """A wrong transpose in a learning iteration, not only in the last
    one, fails validation: corrupt one receive buffer of iteration 0."""
    make_request = kernel._make_request
    corrupted = []

    def corrupting_request(config, world, m):
        areq = make_request(config, world, m)
        start, wait = areq.start, areq.wait
        recvbufs = {}

        def start_keeping_buffers(ctx, buffers=None):
            handle = yield from start(ctx, buffers=buffers)
            recvbufs[id(handle)] = buffers["recv"]
            return handle

        def wait_then_corrupt_once(ctx, handle=None):
            yield from wait(ctx, handle)
            if ctx.rank == 0 and not corrupted:
                recvbufs[id(handle)].view(np.complex128)[0] += 1.0
                corrupted.append(handle)

        areq.start, areq.wait = start_keeping_buffers, wait_then_corrupt_once
        return areq

    monkeypatch.setattr(kernel, "_make_request", corrupting_request)
    cfg = FFTConfig(n=16, nprocs=4, pattern="pipelined", method="adcl",
                    iterations=3, validate=True, evals_per_function=1)
    res = run_fft(cfg)
    assert len(corrupted) == 1
    assert res.validated is False


@pytest.mark.parametrize("method", FFT_METHODS)
def test_all_methods_run(method):
    cfg = FFTConfig(n=16, nprocs=4, pattern="pipelined", method=method,
                    iterations=6, validate=True, evals_per_function=1)
    res = run_fft(cfg)
    assert res.validated is True
    assert res.total_time > 0


def test_libnbc_is_fixed_linear():
    cfg = FFTConfig(n=16, nprocs=4, method="libnbc", iterations=3)
    res = run_fft(cfg)
    assert res.winner == "linear"
    assert all(not r.learning for r in res.records)


def test_mpi_is_fixed_blocking():
    cfg = FFTConfig(n=16, nprocs=4, method="mpi", iterations=3)
    res = run_fft(cfg)
    assert res.winner == "blocking_pairwise"


def test_adcl_learns_then_converges():
    cfg = FFTConfig(n=16, nprocs=4, method="adcl", iterations=12,
                    evals_per_function=2)
    res = run_fft(cfg)
    assert res.decided_at is not None
    assert res.winner in ("linear", "dissemination", "pairwise")
    assert res.learning_time() > 0
    assert res.time_excluding_learning() > 0
    assert res.learning_time() + res.time_excluding_learning() == pytest.approx(
        res.total_time
    )


def test_blocking_mpi_slower_than_overlapped_nbc():
    """The raison d'etre of the kernel: overlap beats no overlap when the
    pattern exposes it."""
    common = dict(n=64, nprocs=8, platform="whale", pattern="pipelined",
                  iterations=5)
    t_nbc = run_fft(FFTConfig(method="libnbc", **common)).mean_iteration
    t_mpi = run_fft(FFTConfig(method="mpi", **common)).mean_iteration
    assert t_nbc < t_mpi


def test_uneven_tiles_rejected_for_persistent_request():
    # 6 planes/rank with tile=10 -> min(10,6)=6 -> single tile: OK
    FFTConfig(n=24, nprocs=4, pattern="tiled", iterations=1)
    # 15 planes/rank with tile=10 -> tiles 10+5: unequal -> rejected
    with pytest.raises(ReproError):
        FFTConfig(n=60, nprocs=4, pattern="tiled", iterations=1)


def test_unknown_method_rejected():
    with pytest.raises(ReproError):
        FFTConfig(method="openmp")


def test_result_reports_mean_after_learning():
    cfg = FFTConfig(n=16, nprocs=4, method="adcl", iterations=10,
                    evals_per_function=2)
    res = run_fft(cfg)
    assert res.mean_after_learning() > 0
    assert res.mean_after_learning() <= res.mean_iteration * 1.5


def test_validated_fft_peak_memory():
    """The validated kernel's live set stays near its algorithmic floor:
    the input and reference cubes plus each rank's y-slab and in-flight
    transpose buffers (about 8 cubes).  One per-rank array pinned past
    its last use adds about one cube, which RSS noise would hide but a
    traced-allocation peak shows deterministically."""
    import tracemalloc

    cfg = FFTConfig(n=32, nprocs=8, pattern="window_tiled", method="adcl",
                    iterations=6, evals_per_function=1, validate=True, seed=1)
    run_fft(cfg)  # warm imports and the schedule cache out of the peak
    tracemalloc.start()
    try:
        res = run_fft(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.validated is True
    cube = cfg.n ** 3 * 16
    assert peak <= 8.5 * cube, f"peak {peak / cube:.2f} cubes"


@pytest.mark.xfail(strict=True, reason=(
    "known fast-lane drift: recording disarms the fast lane, and "
    "SimWorld._batch (the raw Compute/Progress batch the FFT kernel "
    "takes with the lane armed) times the kernel differently from the "
    "evented path — the drift pinned for a minimal program by "
    "tests/sim/test_mpi_p2p.py::"
    "test_fastlane_raw_pairs_then_message_barrier_match_evented"))
def test_traced_fft_matches_untraced():
    """Recording is passive: a traced FFT run times exactly like an
    untraced one."""
    from repro.obs import recording

    cfg = FFTConfig(n=32, nprocs=8, platform="whale", pattern="window_tiled",
                    method="adcl", iterations=6, evals_per_function=1,
                    validate=True, seed=1)
    plain = run_fft(cfg)
    with recording():
        traced = run_fft(cfg)
    assert traced.makespan.hex() == plain.makespan.hex()
    assert traced.total_time.hex() == plain.total_time.hex()
