"""Co-tuning several operations with one timer (the paper's §V outlook).

    "One of the interesting features not yet explored in this work is
     the ability of the ADCL timer object to co-tune multiple operations
     simultaneously, since the algorithmic choice for one non-blocking
     operation could have an effect on the performance of another
     operation."

:class:`CoTuner` implements exactly that: it takes several
:class:`~repro.adcl.request.ADCLRequest` objects, enslaves their
selectors, and searches the **cross-product** of their function-sets —
each timed window executes one *combination* of implementations, and
the winner is the jointly fastest combination rather than the product
of individually fastest choices.  It is an
:class:`~repro.adcl.timer.ADCLTimer` — same windows, same max-over-ranks
gather, same reports — whose finished windows feed the combination
search instead of one request.

Usage::

    tuner = CoTuner([req_a, req_b], evals_per_combo=3)
    # per rank, per iteration:
    tuner.start(ctx)
    ... req_a.start/wait, req_b.start/wait, overlapped compute ...
    tuner.stop(ctx)

The brute-force combination search costs ``prod(len(fnset_i))`` x
``evals_per_combo`` learning iterations, so it only pays off for small
function-sets — which is why the paper left it as future work and why
we gate it behind an explicit opt-in class.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from ..errors import AdclError
from ..sim.mpi import MPIContext
from .request import ADCLRequest
from .selection.base import MeasurementLog, Selector
from .timer import ADCLTimer, TimerRecord

__all__ = ["CoTuner"]


class _SlavedSelector(Selector):
    """Per-request selector view of the shared CoTuner.

    The schedule comes from the tuner; the tuner assigns ``winner`` and
    ``decided_at`` when it decides, so the base class answers the rest.
    """

    def __init__(self, tuner: "CoTuner", index: int, fnset):
        super().__init__(fnset, evals_per_function=1)
        self._tuner = tuner
        self._index = index

    def function_for_iteration(self, it: int) -> int:
        return self._tuner.combo_for_iteration(it)[self._index]

    def feed(self, it: int, fn_index: int, seconds: float) -> None:
        # measurements flow through the CoTuner, never per request
        pass


class CoTuner(ADCLTimer):
    """Joint brute-force tuner + timer for a group of ADCL requests.

    The timed windows, their max-over-ranks gather and the reports are
    :class:`~repro.adcl.timer.ADCLTimer`'s; a finished window is logged
    against its combination instead of fed to one request.
    """

    def __init__(self, requests: Sequence[ADCLRequest],
                 evals_per_combo: int = 3, filter_method: str = "cluster"):
        if not requests:
            raise AdclError("CoTuner needs at least one request")
        if evals_per_combo < 1:
            raise AdclError("evals_per_combo must be >= 1")
        self.requests = list(requests)
        self.evals_per_combo = evals_per_combo
        self.combos = list(itertools.product(
            *[range(len(r.fnset)) for r in self.requests]
        ))
        self._log = MeasurementLog(len(self.combos), filter_method)
        self._winner_idx: Optional[int] = None
        self.decided_at: Optional[int] = None
        for i, req in enumerate(self.requests):
            req.selector = _SlavedSelector(self, i, req.fnset)
        # the timer role for every request: the first one's communicator
        # sizes the gather, and each pins its windows to this tuner
        super().__init__(self.requests[0])
        for req in self.requests[1:]:
            req._attach_timer(self)
        # untraced: a combination window runs several candidates, so the
        # timer's per-candidate iteration spans would misname it
        self._obs = None

    # ------------------------------------------------------------------
    # combination schedule
    # ------------------------------------------------------------------

    @property
    def decided(self) -> bool:
        return self._winner_idx is not None

    @property
    def winner_combo(self) -> Optional[tuple[int, ...]]:
        """Winning function index per request (None while learning)."""
        return None if self._winner_idx is None else self.combos[self._winner_idx]

    @property
    def winner_names(self) -> Optional[tuple[str, ...]]:
        combo = self.winner_combo
        if combo is None:
            return None
        return tuple(r.fnset[i].name for r, i in zip(self.requests, combo))

    @property
    def learning_iterations(self) -> int:
        return len(self.combos) * self.evals_per_combo

    def combo_for_iteration(self, it: int) -> tuple[int, ...]:
        if self.decided:
            return self.combos[self._winner_idx]
        idx = it // self.evals_per_combo
        if idx < len(self.combos):
            return self.combos[idx]
        # grace window: rank skew means the last combo's aggregated
        # measurement may still be in flight when the fastest rank asks
        # for the next iteration — re-run unmeasured combos briefly
        # instead of deciding without their data
        unmeasured = [c for c in range(len(self.combos))
                      if self._log.count(c) == 0]
        if unmeasured and it < self.learning_iterations + 2:
            return self.combos[unmeasured[0]]
        measured = [c for c in range(len(self.combos)) if self._log.count(c) > 0]
        if not measured:
            return self.combos[0]
        self._winner_idx = self._log.best(measured)
        self.decided_at = it
        for req, fn_idx in zip(self.requests, self.combos[self._winner_idx]):
            req.selector.winner = fn_idx
            req.selector.decided_at = it
        return self.combos[self._winner_idx]

    # ------------------------------------------------------------------
    # finished windows
    # ------------------------------------------------------------------

    def _window_done(self, ctx: MPIContext, it: int, seconds: float) -> None:
        learning = not self.decided
        combo = self.combo_for_iteration(it)
        combo_idx = self.combos.index(combo)
        if not self.decided or combo_idx == self._winner_idx:
            self._log.add(combo_idx, seconds)
        self.records.append(TimerRecord(it, combo_idx, seconds, learning))
