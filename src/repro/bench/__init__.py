"""Micro-benchmark machinery for the paper's §IV-A evaluation.

* :mod:`repro.bench.overlap` — the communication/computation overlap
  micro-benchmark (loop of init / chunked compute with progress calls /
  wait);
* :mod:`repro.bench.verification` — verification runs: every fixed
  implementation vs. the ADCL selectors, with the paper's 5%%
  correct-decision criterion;
* :mod:`repro.bench.report` — paper-style text tables and bar charts;
* :mod:`repro.bench.runner` — fast-vs-paper-scale knobs;
* :mod:`repro.bench.parallel` — the parallel sweep executor
  (keyed on-disk result cache + serial fallback);
* :mod:`repro.bench.fabric` — the resilient master/worker fabric that
  ``--jobs N`` sweeps actually run on: long-lived workers, leases,
  heartbeats, respawn, work stealing, chaos hooks.
"""

from .fabric import (
    FabricConfig,
    FabricError,
    result_fingerprint,
    run_tasks_fabric,
)
from .overlap import (
    OPERATION_KINDS,
    OverlapConfig,
    OverlapResult,
    function_set_for,
    run_overlap,
    run_overlap_resilient,
)
from .parallel import (
    ResultCache,
    derive_seed,
    fft_methods,
    run_tasks,
    sweep_implementations,
    task_key,
)
from .report import format_bars, format_series, format_table
from .runner import SweepResult, bench_seed, paper_scale, scaled
from .verification import (
    CORRECTNESS_TOLERANCE,
    VerificationResult,
    run_verification,
)

__all__ = [
    "CORRECTNESS_TOLERANCE",
    "FabricConfig",
    "FabricError",
    "OPERATION_KINDS",
    "OverlapConfig",
    "OverlapResult",
    "ResultCache",
    "SweepResult",
    "VerificationResult",
    "bench_seed",
    "derive_seed",
    "fft_methods",
    "format_bars",
    "format_series",
    "format_table",
    "function_set_for",
    "paper_scale",
    "result_fingerprint",
    "run_overlap",
    "run_overlap_resilient",
    "run_tasks",
    "run_tasks_fabric",
    "run_verification",
    "scaled",
    "sweep_implementations",
    "task_key",
]
