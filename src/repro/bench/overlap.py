"""The overlap micro-benchmark (§IV-A).

The benchmark executes a loop; each iteration

1. initiates the non-blocking collective,
2. executes a compute phase split into ``nprogress`` equal chunks with a
   progress call after each chunk,
3. calls the completion function.

The compute time per iteration is an input (the paper quotes the *total*
loop compute time, e.g. "50 s compute" over 1000 iterations);  ideally
the measured loop time equals the pure compute time — any excess is
communication that could not be overlapped.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import partial
from typing import Any, Callable, Mapping, Optional, Union

from ..adcl.fnsets import (
    iallgatherv_function_set,
    iallreduce_function_set,
    ialltoall_extended_function_set,
    ialltoall_function_set,
    ibcast_function_set,
    ireduce_scatter_function_set,
)
from ..adcl.checkpoint import restore, snapshot
from ..adcl.function import CollSpec, FunctionSet
from ..adcl.request import SELECTOR_NAMES, ADCLRequest
from ..adcl.resilience import ULFM, Resilience
from ..adcl.selection.base import FixedSelector, Selector
from ..adcl.timer import ADCLTimer, RunSummary, TimerRecord
from ..errors import DeadlockError, MessageLostError, ReproError, WatchdogTimeout
from ..nbc.coll import barrier as nbc_barrier
from ..nbc.ft import ft_loop
from ..sim import (
    Barrier,
    ComputeProgressSpan,
    FaultPlan,
    NoiseModel,
    SimWorld,
    get_platform,
)

__all__ = [
    "OverlapConfig",
    "OverlapResult",
    "function_set_for",
    "normalize_scenario",
    "run_overlap",
    "run_overlap_resilient",
    "scenario_config",
]


#: benchmark operation -> (the :class:`CollSpec` kind it tunes, the
#: factory of its ADCL function-set): the one operation table
_OPERATIONS: dict[str, tuple[str, Callable[[], FunctionSet]]] = {
    "alltoall": ("alltoall", ialltoall_function_set),
    "alltoall_ext": ("alltoall", ialltoall_extended_function_set),
    "alltoall_hier": ("alltoall",
                      partial(ialltoall_function_set, hierarchical=True)),
    "bcast": ("bcast", ibcast_function_set),
    "bcast_hier": ("bcast", partial(ibcast_function_set, hierarchical=True)),
    "allgatherv": ("allgatherv", iallgatherv_function_set),
    "reduce_scatter": ("reduce_scatter", ireduce_scatter_function_set),
    "allreduce": ("allreduce", iallreduce_function_set),
}

#: benchmark operation -> the :class:`CollSpec` kind it tunes
OPERATION_KINDS = {op: kind for op, (kind, _) in _OPERATIONS.items()}


def function_set_for(operation: str) -> FunctionSet:
    """The ADCL function-set used for one benchmark operation."""
    if operation not in _OPERATIONS:
        raise ReproError(
            f"unknown benchmark operation {operation!r}; "
            f"expected one of {', '.join(sorted(OPERATION_KINDS))}"
        )
    return _OPERATIONS[operation][1]()


@dataclass(frozen=True)
class OverlapConfig:
    """One micro-benchmark scenario.

    ``compute_total`` and ``paper_iterations`` mirror the paper's
    reporting ("50 s compute over 1000 iterations"); the simulation runs
    ``iterations`` of them (fewer by default — the per-iteration shape
    is what matters) with ``compute_total / paper_iterations`` seconds
    of computation each.
    """

    platform: str = "whale"
    nprocs: int = 32
    operation: str = "alltoall"       # any key of OPERATION_KINDS
    nbytes: int = 128 * 1024          # per pair (alltoall) / total (bcast)
    compute_total: float = 50.0       # seconds over the whole paper loop
    paper_iterations: int = 1000
    iterations: int = 30              # iterations actually simulated
    nprogress: int = 5                # progress calls per iteration
    placement: str = "block"
    noise_sigma: float = 0.0
    noise_outlier_prob: float = 0.0
    seed: int = 0
    #: fault-injection plan (None or an empty plan: pristine network)
    faults: Optional[FaultPlan] = None
    #: reliable transport (ack/timeout/retransmit); False models a naive
    #: transport where a dropped message is simply gone
    reliable: bool = True
    max_retries: int = 8

    @property
    def compute_per_iteration(self) -> float:
        return self.compute_total / self.paper_iterations

    def noise(self) -> Optional[NoiseModel]:
        if self.noise_sigma == 0.0 and self.noise_outlier_prob == 0.0:
            return None
        return NoiseModel(sigma=self.noise_sigma,
                          outlier_prob=self.noise_outlier_prob,
                          seed=self.seed)

    @property
    def checkpoint_key(self) -> str:
        """Key of this problem's tuning snapshot in a checkpoint store."""
        return f"{self.operation}@{self.platform}:B{self.nbytes}"

    def describe(self) -> str:
        return (
            f"{self.operation}@{self.platform} P={self.nprocs} "
            f"B={self.nbytes} compute={self.compute_total}s "
            f"progress={self.nprogress}"
        )


#: the dataclass fields of :class:`OverlapConfig`
_CONFIG_FIELDS = frozenset(f.name for f in fields(OverlapConfig))


def normalize_scenario(scenario: Optional[Mapping[str, Any]],
                       defaults: Mapping[str, Any], error: type,
                       what: str) -> dict:
    """Validated tuning scenario with defaults filled, in ``defaults`` order.

    The one schema behind a tuning-service request and a guideline
    probe: each field takes the type of its default (an ``int`` field
    rejects ``bool``, a ``float`` field coerces an ``int``),
    and the values a simulation cannot run are rejected here, as
    ``error``, instead of deep inside it.  ``what`` names the scenario
    kind in error messages.
    """
    if scenario is None:
        scenario = {}
    if not isinstance(scenario, Mapping):
        raise error(
            f"{what} must be a mapping, got {type(scenario).__name__}")
    unknown = sorted(set(scenario) - set(defaults))
    if unknown:
        raise error(f"unknown {what} fields: {unknown}")
    out = {}
    for name, default in defaults.items():
        value = scenario.get(name, default)
        if isinstance(default, float):
            if not isinstance(value, (int, float)):
                raise error(f"{what} field {name!r} must be a number, "
                            f"got {value!r}")
            value = float(value)
            if not value >= 0:
                raise error(f"{name} must be >= 0, got {value}")
        elif isinstance(default, int):
            if isinstance(value, bool) or not isinstance(value, int):
                raise error(f"{what} field {name!r} must be an int, "
                            f"got {value!r}")
        elif not isinstance(value, str):
            raise error(f"{what} field {name!r} must be a string, "
                        f"got {value!r}")
        out[name] = value
    for name, allowed in (("operation", tuple(sorted(OPERATION_KINDS))),
                          ("selector", SELECTOR_NAMES)):
        if out[name] not in allowed:
            raise error(f"unknown {what} {name} {out[name]!r}; "
                        f"expected one of {allowed}")
    for name, low in (("nprocs", 2), ("nbytes", 1), ("nprogress", 0)):
        if out[name] < low:
            raise error(f"{name} must be >= {low}, got {out[name]}")
    return out


def scenario_config(scenario: Mapping[str, Any], seed: int) -> OverlapConfig:
    """The simulation a normalized tuning scenario describes, run with
    ``seed`` (the caller decides how the scenario's seed fields map to
    it)."""
    kw = {k: v for k, v in scenario.items() if k in _CONFIG_FIELDS}
    kw["seed"] = seed
    return OverlapConfig(**kw)


@dataclass
class OverlapResult(RunSummary):
    """Outcome of one micro-benchmark execution."""

    config: OverlapConfig
    #: per-iteration (max over ranks) loop times, in completion order
    records: list[TimerRecord]
    #: function name per records entry
    fn_names: list[str]
    winner: Optional[str]
    decided_at: Optional[int]
    #: virtual time of every simulation run, aborted ones included
    makespan: float
    #: events of the completed simulation runs
    events: int
    #: event-loop counters from :meth:`repro.sim.engine.Simulator.stats`
    #: plus ``coalesced`` (summed over runs when the benchmark restarts
    #: simulations)
    engine_stats: dict
    #: fault/transport counters summed over all simulation runs
    messages_dropped: int = 0
    retransmits: int = 0
    #: audit trail of every quarantine (index, reason)
    quarantine_log: list[tuple[int, str]] = field(default_factory=list)
    #: drift-triggered re-tunes
    retunes: int = 0
    #: ``Resilience``: simulation restarts after aborted measurements
    restarts: int = 0
    #: ``Resilience``: (exception name, quarantined indices) per abort
    aborts: list[tuple[str, list[int]]] = field(default_factory=list)
    #: world ranks that crashed during the (last) run / alive at its end
    dead: list[int] = field(default_factory=list)
    survivors: list[int] = field(default_factory=list)
    #: ``ULFM``: communicator repairs (revoke/agree/shrink rounds)
    repairs: int = 0
    #: ``ULFM``: winner name each survivor obtained from the final
    #: agreement (uniform by construction — asserting that is the point)
    agreed_winner: dict[int, Optional[str]] = field(default_factory=dict)
    #: ``ULFM``: snapshots written to the checkpoint store
    checkpoints_written: int = 0
    #: ``ULFM``: epoch restored from a warm-start checkpoint (0: cold)
    restored_epoch: int = 0
    #: virtual time respawned replacements of the dead ranks would wait
    #: before rejoining (informational)
    respawn_wait: float = 0.0

    @property
    def learning_iterations(self) -> int:
        """Iterations spent in the learning phase."""
        return sum(1 for r in self.records if r.learning)

    def robust_mean_iteration(self, method: str = "cluster") -> float:
        """Outlier-filtered mean iteration time (what ADCL itself sees)."""
        from ..adcl.statistics import robust_mean

        return robust_mean([r.seconds for r in self.records], method=method)

    def mean_after_learning(self, robust: bool = False) -> float:
        """Mean iteration time once the decision has been made."""
        if not robust:
            return super().mean_after_learning()
        tail = [r.seconds for r in self.records if not r.learning]
        if not tail:
            return self.mean_iteration
        from ..adcl.statistics import robust_mean

        return robust_mean(tail)

    def projected_total(self) -> float:
        """Extrapolate to the paper's full iteration count.

        Learning iterations are counted once; the remaining iterations
        are costed at the post-learning mean.
        """
        cfg = self.config
        learn = [r.seconds for r in self.records if r.learning]
        steady = self.mean_after_learning()
        remaining = max(cfg.paper_iterations - len(learn), 0)
        return sum(learn) + steady * remaining


def run_overlap(
    config: OverlapConfig,
    selector: Union[str, Selector, int] = "brute_force",
    evals_per_function: int = 5,
    filter_method: str = "cluster",
    history=None,
    fnset: Optional[FunctionSet] = None,
    recovery: Union[None, Resilience, ULFM] = None,
) -> OverlapResult:
    """Execute the micro-benchmark.

    ``selector`` is a selection-logic name, a :class:`Selector`
    instance, or an ``int`` — the latter runs a *verification run* with
    that single fixed implementation, circumventing the selection logic.
    ``fnset`` replaces the operation's standard candidate pool; the
    guideline checker uses this to measure mock-up candidates with the
    exact same loop, timer and network model as the tuned decision.

    ``recovery`` picks what a failure does:

    * ``None`` — one simulation; any error aborts the benchmark.
    * :class:`Resilience` — the simulation runs under the policy's
      virtual-time watchdog, and an aborted measurement (deadlock,
      watchdog timeout, lost message) quarantines the implementations in
      flight (sticky) and restarts the simulation — up to
      ``max_restarts`` times — with the surviving candidates.  The
      request carries its tuning state across restarts, and its drift
      detector may re-open tuning mid-run.
    * :class:`ULFM` — ``config.faults`` may crash ranks; the iterations
      run inside :func:`repro.nbc.ft.ft_loop`, so the survivors revoke,
      agree, shrink, repair the request against the survivor
      communicator and resume tuning inside the same simulation; the
      loop's finishing agreement yields the winner.  The coordinator
      (lowest live rank) snapshots tuning state into
      ``recovery.checkpoint`` every ``checkpoint_every`` completed
      iterations, and a store already holding this problem's snapshot
      warm-starts the tuner from it.  The iteration barrier is the
      message-based one: a hard barrier cannot be interrupted by a
      peer's death, a real one can.

    Every mode runs the same iteration body, so a candidate is timed by
    the same harness whatever the recovery policy.
    """
    if fnset is None:
        fnset = function_set_for(config.operation)
    kind = OPERATION_KINDS[config.operation]
    if isinstance(selector, int):
        selector = FixedSelector(fnset, selector)
    resilience = recovery if isinstance(recovery, Resilience) else None
    ulfm = recovery if isinstance(recovery, ULFM) else None
    store = ulfm.checkpoint if ulfm is not None else None
    chunk = config.compute_per_iteration / max(config.nprogress, 1)
    nprogress = config.nprogress
    # a fully non-blocking set lets the loop start operations with a
    # plain call instead of a generator delegation per iteration
    nonblocking_set = not any(fn.blocking for fn in fnset)
    barrier = Barrier()

    out = OverlapResult(config=config, records=[], fn_names=[], winner=None,
                        decided_at=None, makespan=0.0, events=0,
                        engine_stats={})
    areq: Optional[ADCLRequest] = None
    while True:
        world = SimWorld(
            get_platform(config.platform),
            config.nprocs,
            noise=config.noise(),
            placement=config.placement,
            faults=config.faults,
            reliable=config.reliable,
            max_retries=config.max_retries,
        )
        spec = CollSpec(kind, world.comm_world, config.nbytes)
        if areq is None:
            areq = ADCLRequest(
                fnset,
                spec,
                selector=selector,
                evals_per_function=evals_per_function,
                filter_method=filter_method,
                history=history,
                resilience=resilience,
            )
            if store is not None and config.checkpoint_key in store:
                out.restored_epoch = restore(
                    areq, store.load(config.checkpoint_key))
        else:
            areq.spec = spec  # rebind to the fresh world's communicator
            areq.reset_runtime()
        # replicated driver state: a ULFM repair appends a fresh timer
        timers = [ADCLTimer(areq)]
        remaining = config.iterations - len(out.records)
        last_ckpt = [0]

        def completed() -> int:
            return sum(len(t.records) for t in timers)

        def on_repair(newcomm) -> None:
            if areq.spec.comm is not newcomm:
                # first survivor through performs the (collective) repair
                out.repairs += 1
                areq.repair(newcomm)
                timers.append(ADCLTimer(areq))

        def iteration(ctx, comm):
            timers[-1].start(ctx)
            if nonblocking_set:
                areq.start_now(ctx)
            else:
                yield from areq.start(ctx)
            # one span replaces the (Compute, Progress) * nprogress pair
            # stream: bit-identical charges and event schedule, but the
            # driver steps the chunks internally, which lets the array
            # engine collapse the post-completion tail (DESIGN.md §15)
            if nprogress:
                yield ComputeProgressSpan(chunk, [areq.handle(ctx)],
                                          nprogress)
            yield from areq.wait(ctx)
            timers[-1].stop(ctx)
            if ulfm is None:
                # measurement hygiene: re-synchronize ranks so NIC backlog
                # and phase skew cannot leak between timed iterations (an
                # idealized MPI_Barrier; see repro.sim.process.Barrier)
                yield barrier
                return
            yield from nbc_barrier(ctx, comm)
            if (store is not None and ulfm.checkpoint_every
                    and completed() - last_ckpt[0] >= ulfm.checkpoint_every
                    and ctx.rank == comm.live_ranks()[0]):
                # the coordinator (lowest live rank) snapshots tuning state
                last_ckpt[0] = completed()
                store.save(config.checkpoint_key, snapshot(areq))
                out.checkpoints_written += 1

        def factory(ctx):
            if ulfm is None:
                for _ in range(remaining):
                    yield from iteration(ctx, world.comm_world)
                return
            # uniform decision: every survivor reports the agreed winner
            w, _, _ = yield from ft_loop(
                ctx, world.comm_world, iteration,
                lambda comm: completed() >= remaining,
                lambda: areq.selector.winner if areq.decided else -1,
                on_repair, ulfm.max_repairs,
            )
            out.agreed_winner[ctx.rank] = fnset[w].name if w >= 0 else None

        world.launch(factory)
        aborted = None
        try:
            res = world.run(deadline=None if resilience is None
                            else resilience.deadline)
        except (WatchdogTimeout, DeadlockError, MessageLostError) as exc:
            if resilience is None:
                raise
            aborted = exc
            out.restarts += 1
            culprits = sorted(areq.inflight_functions())
            for idx in culprits:
                areq.quarantine(
                    idx, f"measurement aborted: {type(exc).__name__}: {exc}"
                )
            out.aborts.append((type(exc).__name__, culprits))
        # completed iterations of an aborted run are still valid
        for t in timers:
            out.records.extend(t.records)
        if world.faults is not None:
            out.messages_dropped += world.faults.messages_dropped
        out.retransmits += world.retransmits
        for k, v in world.sim.stats().items():
            out.engine_stats[k] = out.engine_stats.get(k, 0) + v
        # kept out of stats(), whose fields the recorder folds into gauges
        out.engine_stats["coalesced"] = (
            out.engine_stats.get("coalesced", 0) + world.sim.coalesced)
        if aborted is None:
            out.makespan += res.makespan
            out.events += res.events
            break
        out.makespan += world.sim.now
        if out.restarts > resilience.max_restarts:
            raise aborted

    out.fn_names = [fnset[r.fn_index].name for r in out.records]
    out.winner = areq.winner_name
    out.decided_at = areq.decided_at
    out.quarantine_log = list(areq.quarantine_log)
    out.retunes = areq.retunes
    out.dead = sorted(world.dead_ranks)
    out.survivors = [r for r in range(config.nprocs) if r not in out.dead]
    crashes = config.faults.crashes if config.faults is not None else ()
    out.respawn_wait = sum(
        c.respawn_delay or 0.0 for c in crashes if c.rank in out.dead
    )
    return out


def run_overlap_resilient(config, *args, resilience=None, **kwargs):
    """:func:`run_overlap` with ``recovery=resilience or Resilience()``."""
    return run_overlap(config, *args, recovery=resilience or Resilience(),
                       **kwargs)
