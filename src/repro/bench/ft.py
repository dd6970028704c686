"""Fault-tolerant overlap benchmark: tuning that survives rank crashes.

:func:`run_overlap_ft` runs the §IV-A overlap loop with process-failure
recovery *inside* one simulation: when a rank crashes mid-tuning, the
survivors follow the ULFM pattern — revoke the communicator, agree on
the decision epoch, shrink to the dense survivor group — then repair the
shared :class:`~repro.adcl.request.ADCLRequest` against the shrunken
communicator and resume tuning where they left off, keeping every
measurement taken before the crash.  At the end all survivors run a
fault-tolerant agreement on the winning implementation, so the reported
decision is provably uniform across the surviving group.

Checkpointing rides along: the coordinator (lowest surviving rank)
periodically snapshots the tuner's event journal into a
:class:`~repro.adcl.checkpoint.CheckpointStore`.  A *later execution*
can warm-start from that checkpoint (``restore_from``) and skip the
measurements already paid for — the ablation in
``benchmarks/test_abl_crash.py`` quantifies the learning iterations
saved versus a cold restart.

Unlike :func:`~repro.bench.overlap.run_overlap`, the iteration barrier
here is the *message-based* dissemination barrier: a hard barrier cannot
be interrupted by a peer's death, a real one can — recovery must work
when the failure surfaces inside the hygiene barrier too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from ..adcl.checkpoint import CheckpointStore, restore, snapshot
from ..adcl.function import CollSpec
from ..adcl.request import ADCLRequest
from ..adcl.selection.base import FixedSelector, Selector
from ..adcl.timer import ADCLTimer, TimerRecord
from ..errors import CommRevokedError, RankFailedError
from ..nbc.coll import barrier as nbc_barrier
from ..sim import Compute, Progress, SimWorld, get_platform
from .overlap import (
    OPERATION_KINDS,
    OverlapConfig,
    OverlapResult,
    function_set_for,
)

__all__ = ["FTOverlapResult", "run_overlap_ft"]


@dataclass
class FTOverlapResult(OverlapResult):
    """Outcome of a fault-tolerant run (in-simulation ULFM recovery)."""

    #: world ranks that crashed during the run
    dead: list[int] = field(default_factory=list)
    #: world ranks alive at the end
    survivors: list[int] = field(default_factory=list)
    #: communicator repairs (revoke/agree/shrink rounds) performed
    repairs: int = 0
    #: winner name each surviving rank obtained from the final agreement
    #: (uniform by construction — asserting that is the point)
    agreed_winner: dict = field(default_factory=dict)
    #: snapshots written to the checkpoint store during the run
    checkpoints_written: int = 0
    #: epoch restored from a warm-start checkpoint (0: cold start)
    restored_epoch: int = 0
    #: harness-level accounting: total virtual time respawned
    #: replacements would wait before rejoining (informational)
    respawn_wait: float = 0.0

    @property
    def learning_iterations(self) -> int:
        """Iterations spent in the learning phase."""
        return sum(1 for r in self.records if r.learning)


def run_overlap_ft(
    config: OverlapConfig,
    selector: Union[str, Selector, int] = "brute_force",
    evals_per_function: int = 5,
    filter_method: str = "cluster",
    history=None,
    checkpoint: Optional[CheckpointStore] = None,
    checkpoint_every: int = 0,
    checkpoint_key: Optional[str] = None,
    restore_from: Optional[dict] = None,
    max_repairs: Optional[int] = None,
) -> FTOverlapResult:
    """Execute the overlap benchmark with in-simulation crash recovery.

    ``config.faults`` may contain :class:`~repro.sim.faults.RankCrash`
    entries; the tuning loop recovers from them and still completes
    ``config.iterations`` measured iterations on the survivor group.
    With ``checkpoint``/``checkpoint_every`` set, the coordinator
    snapshots tuning state every that-many completed iterations;
    ``restore_from`` warm-starts from a snapshot taken by an earlier
    execution.  ``max_repairs`` bounds recovery rounds (then the last
    failure is re-raised, aborting the simulation).
    """
    world = SimWorld(
        get_platform(config.platform),
        config.nprocs,
        noise=config.noise(),
        placement=config.placement,
        faults=config.faults,
        reliable=config.reliable,
        max_retries=config.max_retries,
    )
    fnset = function_set_for(config.operation)
    spec = CollSpec(OPERATION_KINDS[config.operation], world.comm_world,
                    config.nbytes)
    if isinstance(selector, int):
        selector = FixedSelector(fnset, selector)
    areq = ADCLRequest(
        fnset,
        spec,
        selector=selector,
        evals_per_function=evals_per_function,
        filter_method=filter_method,
        history=history,
    )
    restored_epoch = 0
    if restore_from is not None:
        restored_epoch = restore(areq, restore_from)
    chunk = config.compute_per_iteration / max(config.nprogress, 1)
    if checkpoint_key is None:
        checkpoint_key = (
            f"{config.operation}@{config.platform}:B{config.nbytes}"
        )

    # shared replicated driver state (same idiom as the request itself)
    timers = [ADCLTimer(areq)]
    repair_state = {"comm_id": spec.comm.comm_id, "repairs": 0}
    last_ckpt = [0]
    ckpt_writes = [0]
    agreed_winner: dict[int, Optional[str]] = {}

    def completed() -> int:
        return sum(len(t.records) for t in timers)

    def _recover(ctx, comm):
        """ULFM recovery round (generator): revoke, agree, shrink, repair."""
        comm.revoke(ctx)
        # synchronize on the decision epoch: with replicated tuner state
        # this is trivially uniform, but the agreement is what guarantees
        # it — a rank with a diverged epoch would be detected here
        yield from comm.agree(ctx, areq.epoch, op="min")
        newcomm = comm.shrink()
        if repair_state["comm_id"] != newcomm.comm_id:
            # first survivor through performs the (collective) repair
            repair_state["comm_id"] = newcomm.comm_id
            repair_state["repairs"] += 1
            areq.repair(newcomm)
            timers.append(ADCLTimer(areq))
        return newcomm

    def factory(ctx):
        comm = world.comm_world
        failures = 0
        while completed() < config.iterations:
            try:
                timer = timers[-1]
                timer.start(ctx)
                yield from areq.start(ctx)
                for _ in range(config.nprogress):
                    yield Compute(chunk)
                    yield Progress([areq.handle(ctx)])
                yield from areq.wait(ctx)
                timers[-1].stop(ctx)
                # hygiene barrier: message-based, hence revocable
                yield from nbc_barrier(ctx, comm)
            except (RankFailedError, CommRevokedError):
                failures += 1
                if max_repairs is not None and failures > max_repairs:
                    raise
                comm = yield from _recover(ctx, comm)
                continue
            done = completed()
            if (
                checkpoint is not None
                and checkpoint_every > 0
                and done - last_ckpt[0] >= checkpoint_every
                and comm.live_ranks()
                and ctx.rank == comm.live_ranks()[0]
            ):
                last_ckpt[0] = done
                checkpoint.save(checkpoint_key, snapshot(areq))
                ckpt_writes[0] += 1
        # uniform decision: every survivor reports the agreed winner
        mine = areq.selector.winner if areq.decided else None
        w = yield from comm.agree(
            ctx, mine if mine is not None else -1, op="min"
        )
        agreed_winner[ctx.rank] = fnset[w].name if w >= 0 else None

    world.launch(factory)
    res = world.run()
    records: list[TimerRecord] = []
    for t in timers:
        records.extend(t.records)
    dead = sorted(world.dead_ranks)
    crashes = config.faults.crashes if config.faults is not None else ()
    return FTOverlapResult(
        config=config,
        records=records,
        fn_names=[fnset[r.fn_index].name for r in records],
        winner=areq.winner_name,
        decided_at=areq.decided_at,
        makespan=res.makespan,
        events=res.events,
        engine_stats=world.sim.stats(),
        dead=dead,
        survivors=[r for r in range(config.nprocs) if r not in dead],
        repairs=repair_state["repairs"],
        agreed_winner=dict(agreed_winner),
        checkpoints_written=ckpt_writes[0],
        restored_epoch=restored_epoch,
        respawn_wait=sum(
            c.respawn_delay or 0.0 for c in crashes if c.rank in dead
        ),
    )
