"""Persistent ADCL requests: the high-level tuning interface (§III).

An :class:`ADCLRequest` is the simulated equivalent of the paper's
``ADCL_Request``: a persistent non-blocking collective whose concrete
implementation is chosen at run time by a selection logic.  A rank
program uses it like::

    areq = ADCLRequest(fnset, spec, selector="brute_force")   # shared

    def program(ctx):                                         # per rank
        for _ in range(iterations):
            yield from areq.start(ctx)          # ADCL_Request_init
            for _ in range(num_progress):
                yield Compute(chunk)
                yield Progress([areq.handle(ctx)])   # ADCL_Progress
            yield from areq.wait(ctx)           # ADCL_Request_wait

The request object is shared by all ranks (the simulation equivalent of
ADCL's replicated deterministic selection state), so every rank uses the
same implementation for the same iteration.

Timing: if no :class:`~repro.adcl.timer.ADCLTimer` is attached, each
iteration is self-timed from ``start`` to ``wait`` completion and the
per-iteration maximum over the ranks (the timer's
:func:`~repro.adcl.timer.gather_max`) is fed to the selector.  Attaching
a timer (§III-D) moves the measurement boundary to arbitrary code
locations — the paper's solution for timing non-blocking operations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional, Union

from ..errors import AdclError
from ..obs.recorder import get_recorder
from ..sim.mpi import MPIContext
from ..sim.process import Wait, Waitable
from .function import CollSpec, FunctionSet
from .history import HistoryLike, history_key
from .resilience import Resilience
from .selection.base import FixedSelector, Selector
from .statistics import DriftDetector, filter_outliers
from .selection.brute_force import BruteForceSelector
from .selection.factorial import FactorialSelector
from .selection.heuristic import HeuristicSelector
from .timer import gather_max

if TYPE_CHECKING:
    import numpy as np

__all__ = ["ADCLRequest", "make_selector", "SELECTOR_NAMES"]

SELECTOR_NAMES = ("brute_force", "heuristic", "factorial")


def make_selector(name: str, fnset: FunctionSet, **kw) -> Selector:
    """Construct a selector by name (``brute_force`` / ``heuristic`` /
    ``factorial``)."""
    if name == "brute_force":
        return BruteForceSelector(fnset, **kw)
    if name == "heuristic":
        return HeuristicSelector(fnset, **kw)
    if name == "factorial":
        return FactorialSelector(fnset, **kw)
    raise AdclError(f"unknown selector {name!r}; expected one of {SELECTOR_NAMES}")


class ADCLRequest:
    """A persistent, runtime-tuned collective operation."""

    def __init__(
        self,
        fnset: FunctionSet,
        spec: CollSpec,
        selector: Union[str, Selector] = "brute_force",
        evals_per_function: int = 5,
        filter_method: str = "cluster",
        history: Optional[HistoryLike] = None,
        resilience: Optional[Resilience] = None,
    ):
        # ``history`` is duck-typed (lookup/record/forget): a local
        # JSON HistoryStore, or repro.serve.client.ServiceHistory to
        # run this request as a stateless worker over the tuning
        # daemon's shared knowledge base.
        self.fnset = fnset
        self.spec = spec
        self.history = history
        self.resilience = resilience
        self.from_history = False
        self._filter_method = filter_method
        if isinstance(selector, str):
            selector = make_selector(
                selector, fnset,
                evals_per_function=evals_per_function,
                filter_method=filter_method,
            )
        self.selector = selector
        #: the learning selector to re-activate when a history-pinned
        #: decision drifts (usually ``selector`` itself)
        self._tuning_selector = selector
        self._history_key = None
        if history is not None:
            self._history_key = self._key_for(spec)
            winner = history.lookup(self._history_key)
            if winner is not None:
                self.selector = FixedSelector(fnset, fnset.index_of(winner))
                self.from_history = True
        self._configure_selector(self.selector)
        self._timer = None
        self._history_saved = self.from_history
        #: per-rank live state: rank -> {"it", "handles": FIFO of in-flight}
        self._rstate: dict[int, dict] = {}
        #: function index actually used per iteration (frozen at start time)
        self._iter_fn: dict[int, int] = {}
        #: self-timing accumulation: iteration -> {rank: seconds}
        self._self_times: dict[int, dict[int, float]] = {}
        #: absolute-iteration offset added after a harness restart so
        #: iteration indices never collide across simulation runs
        self._iter_base = 0
        self._max_it = -1
        #: first absolute iteration of the current tuning epoch; the
        #: selector only ever sees epoch-relative indices, so a drift
        #: re-tune restarts its schedule cleanly at relative 0
        self._epoch_start = 0
        self._drift: Optional[DriftDetector] = None
        #: number of drift-triggered re-tunes so far
        self.retunes = 0
        #: event journal of the tuning run: every selection, measurement
        #: and quarantine, in order.  Replaying it through the live code
        #: path reconstructs the selection state bit-identically — the
        #: basis of checkpoint/restore (:mod:`repro.adcl.checkpoint`)
        self._journal: list[list] = []
        self._replaying = False
        #: decision audit log (None when tracing is disabled).  The audit
        #: hooks sit on the same code paths :meth:`replay` traverses, so
        #: replaying a journal under an installed recorder reconstructs
        #: the audit trail from the journal alone.
        _rec = get_recorder()
        self.audit = _rec.audit if _rec.enabled else None
        #: cursor into ``selector.quarantine_log`` for audit syncing
        self._audit_quar_seen = 0
        #: whether the current epoch's decision was already audited; the
        #: selector may decide lazily inside ``function_for_iteration``,
        #: so every audit site checks the transition via this flag
        self._audit_decided = False

    def _configure_selector(self, selector: Selector) -> None:
        if self.resilience is None:
            return
        selector.safe_index = self.fnset.safe_fallback_index()
        selector.quarantine_factor = self.resilience.quarantine_factor

    # ------------------------------------------------------------------
    # program-facing API (per rank)
    # ------------------------------------------------------------------

    def _current_iteration(self, ctx: MPIContext, rs: dict) -> int:
        """Tuning-iteration index for a new invocation.

        With a timer attached, the *timer window* is the tuning unit
        (§III-D): every invocation inside one timed section uses the
        same implementation, which is what makes windowed patterns with
        several outstanding operations well-defined.  Without a timer,
        each start/wait cycle is its own iteration.
        """
        if self._timer is not None:
            return self._iter_base + self._timer.window_index(ctx.rank)
        it = rs.setdefault("started", 0)
        rs["started"] = it + 1
        return self._iter_base + it

    def _start(self, ctx: MPIContext,
               buffers: Optional[Mapping[str, np.ndarray]],
               allow_blocking: bool) -> tuple[Waitable, bool]:
        """Select this invocation's implementation and initiate it.

        Returns the handle and whether the implementation is blocking.
        """
        rs = self._rstate.get(ctx.rank)
        if rs is None:
            rs = self._rstate[ctx.rank] = {"it": 0, "handles": []}
        it = self._current_iteration(ctx, rs)
        fn_idx = self._iter_fn.get(it)
        if fn_idx is None:
            fn_idx = self._select(it)
        fn = self.fnset[fn_idx]
        if fn.blocking and not allow_blocking:
            raise AdclError(
                f"start_now() selected blocking implementation {fn.name!r}; "
                f"use `yield from start(ctx)`"
            )
        handle = fn.maker(ctx, self.spec, buffers)
        rs["handles"].append((handle, it, fn_idx, ctx.now))
        return handle, fn.blocking

    def _select(self, it: int, journaled: Optional[int] = None) -> int:
        """Choose iteration ``it``'s implementation (live and replay).

        ``journaled`` is the index a replayed journal recorded; a
        selector that chooses otherwise raises before anything is
        recorded.
        """
        if it > self._max_it:
            self._max_it = it
        rel = max(it - self._epoch_start, 0)
        fn_idx = self.selector.function_for_iteration(rel)
        if self.resilience is not None:
            fn_idx = self.selector.substitute(fn_idx)
        if journaled is not None and fn_idx != journaled:
            raise AdclError(
                f"journal replay diverged at iteration {it}: "
                f"journal says function {journaled}, selector "
                f"chose {fn_idx} — checkpoint does not match this "
                f"request's configuration"
            )
        self._iter_fn[it] = fn_idx
        if not self._replaying:
            self._journal.append(["iter", it, fn_idx])
        if self.audit is not None:
            self._audit_check_decision()
            self.audit.selection(it, fn_idx, self.fnset[fn_idx].name,
                                 not self.selector.decided)
        return fn_idx

    def start(self, ctx: MPIContext,
              buffers: Optional[Mapping[str, np.ndarray]] = None):
        """Initiate the operation (generator).

        Use ``handle = yield from areq.start(ctx)``; the returned handle
        can be progressed (``yield Progress([handle])``) and completed
        with :meth:`wait`.  Several invocations may be in flight at once
        (windowed communication patterns); they complete in FIFO order
        unless a specific handle is passed to :meth:`wait`.

        Blocking implementations complete inside this call.
        """
        handle, blocking = self._start(ctx, buffers, allow_blocking=True)
        if blocking and not handle.done:
            yield Wait(handle)
        return handle

    def start_now(self, ctx: MPIContext,
                  buffers: Optional[Mapping[str, np.ndarray]] = None) -> Waitable:
        """:meth:`start` as a plain call, for non-blocking function sets.

        A blocking implementation must suspend the caller on a
        :class:`Wait`, which only a generator can do — so this entry
        point refuses blocking functions.  When the whole set is
        non-blocking (e.g. the paper's 21-function ``Ibcast`` set) this
        saves a generator object and a delegation round-trip per
        invocation, which a tuning loop pays hundreds of thousands of
        times.
        """
        return self._start(ctx, buffers, allow_blocking=False)[0]

    def handle(self, ctx: MPIContext) -> Waitable:
        """The oldest in-flight handle (single-outstanding usage)."""
        rs = self._rstate.get(ctx.rank)
        if rs is None or not rs["handles"]:
            raise AdclError(f"rank {ctx.rank}: no operation in flight")
        return rs["handles"][0][0]

    def handles(self, ctx: MPIContext) -> tuple[Waitable, ...]:
        """All in-flight handles, for ``yield Progress(areq.handles(ctx))``."""
        rs = self._rstate.get(ctx.rank)
        if rs is None:
            return ()
        return tuple(h for h, _, _, _ in rs["handles"])

    def in_flight(self, ctx: MPIContext) -> int:
        """Number of outstanding invocations on this rank."""
        rs = self._rstate.get(ctx.rank)
        return 0 if rs is None else len(rs["handles"])

    def wait(self, ctx: MPIContext, handle: Optional[Waitable] = None):
        """Complete the oldest (or the given) invocation (generator)."""
        rs = self._rstate.get(ctx.rank)
        if rs is None or not rs["handles"]:
            raise AdclError(f"rank {ctx.rank}: wait() without start()")
        if handle is None:
            entry = rs["handles"].pop(0)
        else:
            for i, e in enumerate(rs["handles"]):
                if e[0] is handle:
                    entry = rs["handles"].pop(i)
                    break
            else:
                raise AdclError(f"rank {ctx.rank}: unknown handle in wait()")
        handle, it, fn_idx, t0 = entry
        if not handle.done:
            yield Wait(handle)
        rs["it"] += 1
        if self._timer is None:
            seconds = gather_max(self._self_times, it, ctx.rank,
                                 ctx.now - t0, self.spec.comm.size)
            if seconds is not None:
                self._feed(it, fn_idx, seconds)

    # ------------------------------------------------------------------
    # measurement feeding
    # ------------------------------------------------------------------

    def _feed(self, it: int, fn_idx: int, seconds: float) -> None:
        """One aggregated (max-over-ranks) measurement for iteration ``it``."""
        rel = it - self._epoch_start
        if rel < 0:
            return  # measured before the last re-tune: stale, discard
        if not self._replaying:
            self._journal.append(["feed", it, fn_idx, seconds])
        audit = self.audit
        if audit is not None:
            audit.measurement(it, fn_idx, self.fnset[fn_idx].name, seconds)
        was_decided = self.selector.decided
        self.selector.feed(rel, fn_idx, seconds)
        if audit is not None:
            self._audit_sync_quarantines()
            self._audit_check_decision()
        if not self.selector.decided:
            return
        if not self._history_saved and self.history is not None:
            if not self._replaying:
                self.history.record(
                    self._history_key,
                    self.selector.winner_name,
                    self.selector.decided_at,
                )
            self._history_saved = True
        if self.resilience is None or self.resilience.drift_window < 1:
            return
        if self._drift is None:
            w = self.selector.winner
            baseline = (
                self.selector.log.estimate(w)
                if self.selector.log.count(w) > 0
                else None  # history-pinned winner: no decision-time samples
            )
            self._drift = DriftDetector(
                baseline,
                window=self.resilience.drift_window,
                threshold=self.resilience.drift_threshold,
                method=self._filter_method,
            )
        if was_decided and fn_idx == self.selector.winner:
            if self._drift.update(seconds):
                self._reopen(it)

    def _reopen(self, it: int) -> None:
        """Drift detected: invalidate the decision and re-enter learning."""
        self.retunes += 1
        if (self.history is not None and self._history_key is not None
                and not self._replaying):
            self.history.forget(self._history_key)
        self._history_saved = False
        if self.selector is not self._tuning_selector:
            # history-pinned FixedSelector: resume with the real selector
            self.selector = self._tuning_selector
            self.from_history = False
            self._configure_selector(self.selector)
        self.selector.reset_learning()
        self._drift = None
        self._epoch_start = it + 1
        if self.audit is not None:
            self.audit.retune(it)
            # the (possibly swapped) selector's quarantine log is the new
            # cursor base; reset_learning never rewrites past entries
            self._audit_quar_seen = len(self.selector.quarantine_log)
            self._audit_decided = False

    def _audit_sync_quarantines(self) -> None:
        """Append any quarantines the selector issued since the last sync."""
        log = self.selector.quarantine_log
        for idx, reason in log[self._audit_quar_seen:]:
            self.audit.quarantine(idx, self.fnset[idx].name, reason)
        self._audit_quar_seen = len(log)

    def _audit_check_decision(self) -> None:
        """Audit the decision the first time it becomes visible."""
        if self.selector.decided and not self._audit_decided:
            self._audit_decided = True
            self._audit_decision()

    def _audit_decision(self) -> None:
        """Record the winner with per-candidate evidence.

        Evidence is computed at decision time from the measurement log:
        for every candidate, the sample count, how many samples the
        outlier filter kept/discarded, and the resulting estimate — the
        data the decision was actually based on.
        """
        sel = self.selector
        log = sel.log
        evidence = []
        for i in range(len(self.fnset)):
            n = log.count(i)
            quarantined = sel.quarantined.get(i)
            if n == 0 and quarantined is None and i != sel.winner:
                continue
            entry: dict = {"index": i, "name": self.fnset[i].name, "n": n}
            if n:
                kept = filter_outliers(log.samples[i],
                                       method=log.filter_method)
                entry["kept"] = len(kept)
                entry["discarded"] = n - len(kept)
                entry["estimate"] = log.estimate(i)
            if quarantined is not None:
                entry["quarantined"] = quarantined[0]
            if i == sel.winner:
                entry["winner"] = True
            evidence.append(entry)
        self.audit.decision(sel.decided_at, sel.winner, sel.winner_name,
                            evidence)

    def _attach_timer(self, timer) -> None:
        if self._timer is not None:
            raise AdclError("a timer is already associated with this request")
        self._timer = timer

    # ------------------------------------------------------------------
    # harness-facing resilience API
    # ------------------------------------------------------------------

    def reset_runtime(self) -> None:
        """Forget per-simulation state so the request survives a restart.

        Tuning state (selector, measurements, quarantines, drift) is
        preserved; only the live handles, self-timing accumulators and
        the timer binding of the aborted simulation are discarded.
        Iteration numbering continues after the highest index seen, so
        the selector never observes a duplicate iteration.
        """
        self._iter_base = self._max_it + 1
        self._rstate = {}
        self._self_times = {}
        self._timer = None

    def inflight_functions(self) -> set[int]:
        """Implementations that were live when the simulation aborted.

        The restart loop quarantines these (sticky) before re-running.
        Falls back to the most recently started iteration's function
        when no handle was in flight (e.g. the watchdog fired during a
        barrier).
        """
        out = {
            fn_idx
            for rs in self._rstate.values()
            for _, _, fn_idx, _ in rs["handles"]
        }
        if not out and self._iter_fn:
            out.add(self._iter_fn[max(self._iter_fn)])
        return out

    def quarantine(self, fn_index: int, reason: str, sticky: bool = True) -> bool:
        """Quarantine a candidate (harness abort path). True if newly done."""
        done = self.selector.quarantine(fn_index, reason, sticky=sticky)
        if done and not self._replaying:
            self._journal.append(["quar", fn_index, reason, sticky])
        if self.audit is not None:
            self._audit_sync_quarantines()
        return done

    # ------------------------------------------------------------------
    # checkpoint / process-failure recovery
    # ------------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Monotone decision epoch: number of journaled tuning events.

        Two replicas of the same request are in the same selection state
        iff their epochs match.
        """
        return len(self._journal)

    def journal_events(self) -> list[list]:
        """A deep-enough copy of the event journal (for snapshots)."""
        return [list(ev) for ev in self._journal]

    def replay(self, events) -> None:
        """Reconstruct tuning state by replaying a journal (restore path).

        Must be called on a *fresh* request (epoch 0) built with the same
        function-set and selector configuration that produced the
        journal.  Events run through the live methods — ``iter`` through
        :meth:`_select` (checked against the journaled index), ``feed``
        through :meth:`_feed`, ``quar`` through :meth:`quarantine` — so
        the selector sees the exact sequence of selections, measurements
        and quarantines of the original run and the reconstructed state
        (audit trail included) is bit-identical.  Persistence side
        effects (journal appends, history writes) are suppressed.
        """
        if self._journal:
            raise AdclError("replay() requires a fresh request (epoch 0)")
        self._replaying = True
        try:
            for ev in events:
                tag = ev[0]
                if tag == "iter":
                    _, it, fn_idx = ev
                    self._select(it, journaled=fn_idx)
                elif tag == "feed":
                    _, it, fn_idx, seconds = ev
                    self._feed(it, fn_idx, seconds)
                elif tag == "quar":
                    _, fn_idx, reason, sticky = ev
                    self.quarantine(fn_idx, reason, sticky=sticky)
                else:
                    raise AdclError(f"unknown journal event {ev!r}")
        finally:
            self._replaying = False
        self._journal = [list(ev) for ev in events]
        self.reset_runtime()

    def repair(self, new_comm) -> None:
        """Rebind the request to a shrunken communicator (ULFM repair).

        Called collectively by the fault-tolerant driver after
        ``revoke``/``agree``/``shrink``: the problem spec is rebuilt
        against the survivor communicator (a rooted operation's root is
        clamped into the new size), live per-simulation state of the
        aborted attempt is discarded, and tuning resumes with the
        selection state intact.  The history key follows the new
        signature — the decision will be recorded for the problem size
        it was actually completed on.
        """
        spec = self.spec
        root = min(spec.root, new_comm.size - 1)
        self.spec = CollSpec(spec.kind, new_comm, spec.nbytes, root)
        if self.history is not None:
            self._history_key = self._key_for(self.spec)
        self.reset_runtime()

    def _key_for(self, spec: CollSpec) -> str:
        return history_key(self.fnset.name, spec.comm.world.platform.name,
                           spec.kind, spec.comm.size, spec.nbytes, spec.root)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def decided(self) -> bool:
        return self.selector.decided

    @property
    def winner_name(self) -> Optional[str]:
        return self.selector.winner_name

    @property
    def decided_at(self) -> Optional[int]:
        return self.selector.decided_at

    @property
    def quarantine_log(self) -> list[tuple[int, str]]:
        """Audit trail of every quarantine issued (survives re-tuning)."""
        return self.selector.quarantine_log

    def function_used(self, it: int) -> Optional[int]:
        """Function index iteration ``it`` ran with (None if never started)."""
        return self._iter_fn.get(it)

    def __repr__(self) -> str:  # pragma: no cover
        state = f"winner={self.winner_name!r}" if self.decided else "learning"
        return f"<ADCLRequest {self.fnset.name!r} {self.spec.signature()} {state}>"
