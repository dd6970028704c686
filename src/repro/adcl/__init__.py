"""ADCL — the Abstract Data and Communication Library (simulated).

The paper's core contribution: run-time auto-tuning of (non-blocking)
collective operations.  Main concepts:

* :class:`~repro.adcl.function.FunctionSet` /
  :class:`~repro.adcl.function.CollFunction` — an operation and its pool
  of candidate implementations, each optionally characterized by
  attribute values (the set derives its attribute domains from them);
* :class:`~repro.adcl.request.ADCLRequest` — a persistent collective
  whose implementation is selected at run time;
* :class:`~repro.adcl.timer.ADCLTimer` — decoupled timing of code
  sections containing non-blocking communication (§III-D);
* the selectors in :mod:`repro.adcl.selection` — brute force, attribute
  heuristic, 2^k factorial design;
* :class:`~repro.adcl.history.HistoryStore` — historic learning across
  executions.
"""

from .checkpoint import CheckpointStore, restore, snapshot
from .cotuning import CoTuner
from .fnsets import (
    IBCAST_SEGSIZES,
    iallgather_function_set,
    ialltoall_extended_function_set,
    ialltoall_function_set,
    ibcast_function_set,
    ireduce_function_set,
)
from .function import CollFunction, CollSpec, FunctionSet
from .history import HistoryStore
from .request import ADCLRequest, SELECTOR_NAMES, make_selector
from .resilience import ULFM, Resilience
from .selection import (
    BruteForceSelector,
    FactorialSelector,
    FixedSelector,
    HeuristicSelector,
    Selector,
)
from .statistics import DriftDetector, FILTER_METHODS, filter_outliers, robust_mean
from .timer import ADCLTimer, TimerRecord

__all__ = [
    "ADCLRequest",
    "ADCLTimer",
    "BruteForceSelector",
    "CheckpointStore",
    "CoTuner",
    "CollFunction",
    "CollSpec",
    "DriftDetector",
    "FILTER_METHODS",
    "FactorialSelector",
    "FixedSelector",
    "FunctionSet",
    "HeuristicSelector",
    "HistoryStore",
    "IBCAST_SEGSIZES",
    "Resilience",
    "SELECTOR_NAMES",
    "Selector",
    "TimerRecord",
    "ULFM",
    "filter_outliers",
    "iallgather_function_set",
    "ialltoall_extended_function_set",
    "ialltoall_function_set",
    "ibcast_function_set",
    "ireduce_function_set",
    "make_selector",
    "restore",
    "robust_mean",
    "snapshot",
]
