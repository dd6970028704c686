"""The five end-to-end workloads and the fingerprint each op is checked by.

An *op* is one call into a public driver (``run_overlap``,
``run_overlap_resilient`` or ``run_fft``) on inputs derived from the
seed.  The first three workloads are deterministic models, so the seed
leaves them unchanged; the FFT workload draws its input data from it and
the faults workload its noise and fault plan.

Importing this module imports ``repro``: the fresh-process setup
measurement in ``child.py`` starts its clock before that import.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional

from repro.apps.fft import FFTConfig, FFTResult, run_fft
from repro.bench import (
    OverlapConfig,
    function_set_for,
    run_overlap,
    run_overlap_resilient,
)
from repro.obs import TraceRecorder, install
from repro.sim import FaultPlan

__all__ = ["WORKLOADS", "Workload", "check", "fingerprint", "get", "run_op"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: whether the seed changes the fingerprint (only fault/noise draws do)
    seeded: bool
    #: whether the workload runs with the product ``TraceRecorder``
    #: installed, as ``repro tune --trace`` does
    recorder: bool
    #: seed -> zero-argument op calling one public driver
    make: Callable[[int], Callable[[], object]]


def _a2a_tcp(seed: int):
    cfg = OverlapConfig(platform="whale_tcp", nprocs=32, operation="alltoall",
                        nbytes=128 * 1024, iterations=30, nprogress=5,
                        seed=seed)
    return lambda: run_overlap(cfg, selector="brute_force",
                               evals_per_function=2)


def _bcast_crill(seed: int):
    cfg = OverlapConfig(platform="crill", nprocs=256, operation="bcast",
                        nbytes=128 * 1024, iterations=24, nprogress=50,
                        seed=seed)
    return lambda: run_overlap(cfg, selector="brute_force",
                               evals_per_function=1)


def _bcast_hier_bgp(seed: int):
    cfg = OverlapConfig(platform="bluegene_p", nprocs=1024,
                        operation="bcast_hier", nbytes=1024 * 1024,
                        iterations=1, nprogress=5, seed=seed)
    # one `repro sweep` verification task: a fixed implementation
    index = function_set_for("bcast_hier").index_of("hier_seg32KB")
    return lambda: run_overlap(cfg, selector=index)


def _fft_whale(seed: int):
    cfg = FFTConfig(n=64, nprocs=32, platform="whale", pattern="window_tiled",
                    method="adcl", iterations=12, evals_per_function=2,
                    validate=True, seed=seed)
    return lambda: run_fft(cfg)


def _a2a_faults(seed: int):
    # 10 evaluations per candidate and one iteration after the decision:
    # with 2 evaluations the noisy measurements pick a different winner
    # for different seeds, and the op's work after the decision (0.26 s
    # to 0.62 s per op) followed the seed instead of the code
    cfg = OverlapConfig(
        platform="whale", nprocs=32, operation="alltoall", nbytes=64 * 1024,
        iterations=31, nprogress=5, noise_sigma=0.02, noise_outlier_prob=0.01,
        seed=seed,
        faults=FaultPlan.parse(f"drop=0.002,straggler=5:1.5,seed={seed}"),
    )
    return lambda: run_overlap_resilient(cfg, selector="brute_force",
                                         evals_per_function=10)


WORKLOADS = (
    Workload(
        "a2a-tcp-p32",
        "Fig. 3 alltoall at Gigabit-Ethernet latencies, P=32: the fast lane "
        "never arms, so the evented send/match/deliver path and schedule "
        "progression dominate",
        seeded=False, recorder=False, make=_a2a_tcp),
    Workload(
        "bcast-crill-p256",
        "Figs. 4/7 bcast, P=256, brute force over all 21 candidates with 50 "
        "polls per iteration: the one workload where fast-lane, progress and "
        "selection changes show",
        seeded=False, recorder=False, make=_bcast_crill),
    Workload(
        "bcast_hier-bgp-p1024",
        "Communication-heavy hierarchical bcast at P=1024 on BlueGene/P (one "
        "fixed sweep task); each op also builds a 1024-rank world",
        seeded=False, recorder=False, make=_bcast_hier_bgp),
    Workload(
        "fft-whale-p32",
        "Figs. 9-11 3-D FFT kernel moving real data checked against "
        "numpy.fft.fftn: few simulator events, numpy- and memory-heavy",
        seeded=False, recorder=False, make=_fft_whale),
    Workload(
        "a2a-whale-p32-faults-traced",
        "alltoall under noise, drops and a straggler through the resilient "
        "driver with the trace recorder on: every fast path is disarmed",
        seeded=True, recorder=True, make=_a2a_faults),
)

_BY_NAME = {w.name: w for w in WORKLOADS}


def get(name: str) -> Workload:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; expected one of {', '.join(_BY_NAME)}"
        ) from None


def run_op(op: Callable[[], object], recorder: bool) -> tuple[object, int]:
    """Run one op, optionally under a fresh ``TraceRecorder``.

    Returns the driver's result and the number of events recorded.
    """
    if not recorder:
        return op(), 0
    rec = TraceRecorder()
    prev = install(rec)
    try:
        result = op()
    finally:
        install(prev)
    return result, len(rec.events)


def fingerprint(result) -> dict:
    """What an op's output is checked by: the tuning decision, the
    simulated times bit for bit, and the simulated work done."""
    fp = {
        "winner": result.winner,
        "decided_at": result.decided_at,
        "makespan": float(result.makespan).hex(),
        "records_sha256": hashlib.sha256(
            "\n".join(float(r.seconds).hex() for r in result.records).encode()
        ).hexdigest(),
        "events": int(result.events),
    }
    if isinstance(result, FFTResult):
        fp["validated"] = result.validated
    return fp


def check(fp: Optional[dict], expected: Optional[dict]) -> Optional[str]:
    """Why ``fp`` fails (``None`` when it passes).

    ``expected`` is the golden fingerprint, or the run's own reference
    for a seed without one; an FFT op must also have validated its data.
    """
    if fp is None:
        return "op raised"
    if fp.get("validated", True) is not True:
        return "FFT result does not match numpy.fft.fftn"
    if expected is not None and fp != expected:
        diff = sorted(k for k in set(fp) | set(expected)
                      if fp.get(k) != expected.get(k))
        return f"fingerprint differs from the reference in {', '.join(diff)}"
    return None
