"""Recovery policies for the overlap benchmark.

:func:`~repro.bench.overlap.run_overlap` takes ``recovery=``: ``None``
(any error aborts the benchmark), a :class:`Resilience` (restart loop
around the simulation) or a :class:`ULFM` (crash recovery inside the
simulation).  Each policy is one small frozen object, so its knobs
thread through :class:`~repro.adcl.request.ADCLRequest` and the driver
without argument explosion.  ``None`` anywhere inside a policy means
the corresponding mechanism is off; with no policy at all the tuner
behaves exactly like the original, fault-oblivious ADCL reproduction.

:class:`Resilience` bundles three mechanisms:

* **Candidate quarantine** — during the learning phase, a candidate
  whose measurement blows past ``quarantine_factor`` times the running
  best estimate is excluded from both further evaluation and the final
  decision; its remaining learning slots run the function-set's safe
  fallback (see :meth:`~repro.adcl.function.FunctionSet.
  safe_fallback_index`), which is never quarantined.  Candidates whose
  measurement *aborts* (deadlock, watchdog timeout, lost message) are
  quarantined sticky by the driver's restart loop.
* **Drift-triggered re-tuning** — post-decision timings are monitored by
  a :class:`~repro.adcl.statistics.DriftDetector`; when they drift from
  the decision-time baseline the request re-opens the tuning phase and
  invalidates the matching historic-learning record.
* **Watchdog / restarts** — the driver runs each simulation under a
  virtual-time ``deadline`` and restarts (up to ``max_restarts`` times)
  after quarantining the candidates that were in flight when the run
  aborted.

:class:`ULFM` keeps one simulation alive through rank crashes: the
survivors revoke, agree and shrink, repair the request against the
shrunken communicator and resume tuning; optionally the coordinator
checkpoints the tuning journal so a later execution can warm-start.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..errors import AdclError

if TYPE_CHECKING:
    from .checkpoint import CheckpointStore

__all__ = ["Resilience", "ULFM"]


@dataclass(frozen=True)
class Resilience:
    """Policy for resilient tuning (all mechanisms individually optional)."""

    #: quarantine a learning-phase measurement above this multiple of the
    #: running best estimate (``None`` disables blowout quarantine)
    quarantine_factor: Optional[float] = 8.0
    #: sliding-window length of the post-decision drift detector
    #: (0 disables drift-triggered re-tuning)
    drift_window: int = 8
    #: relative level shift (either direction) that counts as drift
    drift_threshold: float = 1.75
    #: harness-level simulation restarts after aborted measurements
    max_restarts: int = 4
    #: virtual-time watchdog deadline per simulation (``None`` = no watchdog)
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.quarantine_factor is not None and self.quarantine_factor <= 1.0:
            raise AdclError(
                f"quarantine_factor must be > 1, got {self.quarantine_factor!r}"
            )
        if self.drift_window < 0:
            raise AdclError(f"drift_window must be >= 0, got {self.drift_window!r}")
        if self.drift_threshold <= 1.0:
            raise AdclError(
                f"drift_threshold must be > 1, got {self.drift_threshold!r}"
            )
        if self.max_restarts < 0:
            raise AdclError(f"max_restarts must be >= 0, got {self.max_restarts!r}")
        if self.deadline is not None and self.deadline <= 0:
            raise AdclError(f"deadline must be positive, got {self.deadline!r}")


@dataclass(frozen=True)
class ULFM:
    """Policy for in-simulation crash recovery (ULFM revoke/agree/shrink)."""

    #: store the coordinator snapshots tuning state into; when it already
    #: holds this problem's key, tuning warm-starts from that snapshot
    checkpoint: Optional[CheckpointStore] = None
    #: snapshot every this many completed iterations (0: never)
    checkpoint_every: int = 0
    #: recovery rounds per rank before the failure is re-raised
    #: (``None``: unbounded)
    max_repairs: Optional[int] = None

    def __post_init__(self) -> None:
        if self.checkpoint_every < 0:
            raise AdclError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every!r}"
            )
        if self.max_repairs is not None and self.max_repairs < 0:
            raise AdclError(f"max_repairs must be >= 0, got {self.max_repairs!r}")
