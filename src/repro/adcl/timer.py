"""ADCL timer objects (§III-D): decoupled timing of non-blocking operations.

The execution time of a non-blocking collective cannot be measured at
the function call — most of the operation happens in the background.
The paper's solution is the ``ADCL_Timer``: the user brackets a larger
code section (communication *and* the computation overlapping it) with
``ADCL_Timer_start`` / ``ADCL_Timer_end``, and that duration becomes the
measurement attributed to whichever implementation the associated
request used in that iteration.

Aggregation follows ADCL: an iteration's time is the **maximum over all
ranks** (the straggler defines the cost of a collective), recorded once
the last rank has called :meth:`ADCLTimer.stop` for that iteration.
This module holds the only copy of that bookkeeping: the per-rank
windows and :func:`gather_max` serve :class:`ADCLTimer`, the
:class:`~repro.adcl.cotuning.CoTuner` (a timer that feeds a combination
search instead of one request) and an untimed request's self-timing;
:class:`RecordSummary` is the one report over their records (and
:class:`RunSummary` its form for finished runs' results).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..errors import AdclError
from ..obs.recorder import declare, get_recorder

if TYPE_CHECKING:
    from ..sim.mpi import MPIContext
    from .request import ADCLRequest

__all__ = ["ADCLTimer", "RecordSummary", "RunSummary", "TimerRecord",
           "gather_max"]

_K_ITERATION = declare("X", "tuning", "iteration", "fn:O it:i learning:?")


@dataclass(frozen=True)
class TimerRecord:
    """One completed (all ranks) timed iteration."""

    iteration: int
    fn_index: int
    seconds: float
    learning: bool


def gather_max(pending: dict[int, dict[int, float]], it: int, rank: int,
               seconds: float, size: int) -> Optional[float]:
    """Add ``rank``'s time for iteration ``it``; the max once all ``size``
    ranks reported (None before)."""
    per_rank = pending.setdefault(it, {})
    per_rank[rank] = seconds
    if len(per_rank) < size:
        return None
    del pending[it]
    return max(per_rank.values())


class RecordSummary:
    """Sums over ``self.records`` (completion order), learning split."""

    def learning_time(self) -> float:
        """Sum over iterations that were part of the learning phase."""
        return sum(r.seconds for r in self.records if r.learning)

    def time_excluding_learning(self) -> float:
        """Sum over iterations run *after* the selection decision.

        This is the paper's Fig. 11/12 breakdown separating the learning
        phase from steady-state execution.
        """
        return sum(r.seconds for r in self.records if not r.learning)


class RunSummary(RecordSummary):
    """:class:`RecordSummary` of a finished run: totals are properties."""

    @property
    def total_time(self) -> float:
        return sum(r.seconds for r in self.records)

    @property
    def mean_iteration(self) -> float:
        return self.total_time / len(self.records)

    def mean_after_learning(self) -> float:
        """Mean iteration time once the decision has been made."""
        tail = [r.seconds for r in self.records if not r.learning]
        return sum(tail) / len(tail) if tail else self.mean_iteration


class ADCLTimer(RecordSummary):
    """Times arbitrary code sections on behalf of an :class:`ADCLRequest`."""

    def __init__(self, request: ADCLRequest):
        self.request = request
        request._attach_timer(self)
        self._t0: dict[int, float] = {}
        self._counts: dict[int, int] = {}
        self._pending: dict[int, dict[int, float]] = {}
        #: completed iteration records in feeding order (for reporting)
        self.records: list[TimerRecord] = []
        _rec = get_recorder()
        self._obs = _rec if _rec.enabled else None
        self._epoch_opened = False

    def window_index(self, rank: int) -> int:
        """The timer iteration ``rank`` is currently inside.

        Used by the associated request to pin every invocation within
        one timed window to the same implementation.
        """
        return self._counts.get(rank, 0)

    # ------------------------------------------------------------------

    def start(self, ctx: MPIContext) -> None:
        """Begin timing this rank's current iteration."""
        if ctx.rank in self._t0:
            raise AdclError(f"rank {ctx.rank}: timer started twice")
        if self._obs is not None and not self._epoch_opened:
            self._epoch_opened = True
            self._obs.instant("tuning", "tune.epoch", -1, ctx.now,
                              {"phase": "open", "it": 0})
        self._t0[ctx.rank] = ctx.now

    def stop(self, ctx: MPIContext) -> None:
        """End timing; completes the window once every rank has stopped."""
        try:
            t0 = self._t0.pop(ctx.rank)
        except KeyError:
            raise AdclError(f"rank {ctx.rank}: timer stopped without start")
        it = self._counts.get(ctx.rank, 0)
        self._counts[ctx.rank] = it + 1
        if self._obs is not None:
            # per-rank iteration span (cat "tuning"): the timed window of
            # one candidate on one rank — the denominator of the overlap
            # ratio `repro report` computes per candidate
            span_it = self.request._iter_base + it
            span_fn = self.request.function_used(span_it)
            self._obs.emit_obj((self.request.fnset[span_fn].name
                                if span_fn is not None else "?"),
                               _K_ITERATION, ctx.rank, t0, ctx.now - t0,
                               span_it, not self.request.decided)
        seconds = gather_max(self._pending, it, ctx.rank, ctx.now - t0,
                             self.request.spec.comm.size)
        if seconds is not None:
            self._window_done(ctx, it, seconds)

    def _window_done(self, ctx: MPIContext, it: int, seconds: float) -> None:
        """Window ``it`` closed on every rank: feed the request."""
        # the request numbers iterations absolutely (restart-safe);
        # translate this timer's local window index
        abs_it = self.request._iter_base + it
        fn_idx = self.request.function_used(abs_it)
        if fn_idx is None:
            raise AdclError(
                f"timer iteration {abs_it} completed but the request "
                f"never started that iteration"
            )
        learning = not self.request.decided
        before_retunes = self.request.retunes
        self.request._feed(abs_it, fn_idx, seconds)
        obs = self._obs
        if obs is not None:
            if learning and self.request.decided:
                obs.instant("tuning", "tune.decide", -1, ctx.now,
                            {"winner": self.request.winner_name,
                             "it": abs_it})
                obs.instant("tuning", "tune.epoch", -1, ctx.now,
                            {"phase": "close", "it": abs_it})
            elif self.request.retunes > before_retunes:
                obs.instant("tuning", "tune.reopen", -1, ctx.now,
                            {"it": abs_it})
                obs.instant("tuning", "tune.epoch", -1, ctx.now,
                            {"phase": "open", "it": abs_it + 1})
        self.records.append(TimerRecord(abs_it, fn_idx, seconds, learning))

    # ------------------------------------------------------------------
    # reporting helpers used by the benchmark harness
    # ------------------------------------------------------------------

    def total_time(self) -> float:
        """Sum of all completed iteration times."""
        return sum(r.seconds for r in self.records)

    def iterations_completed(self) -> int:
        return len(self.records)
