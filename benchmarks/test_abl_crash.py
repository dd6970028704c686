"""Ablation — process-failure recovery and checkpointed tuning state.

A seeded crash kills rank 5 of 8 mid-tuning.  The fault-tolerant driver
recovers in-simulation (revoke / agree / shrink / repair) and still
completes every measured iteration on the survivor group, with a
provably uniform winner via the fault-tolerant agreement.  The
checkpoint written along the way lets a later execution warm-start:
the ablation compares the learning iterations a cold restart pays
against a restart restored from the checkpoint.
"""

from repro.adcl import ULFM, CheckpointStore
from repro.bench import OverlapConfig, format_table, run_overlap
from repro.sim import FaultPlan, RankCrash
from repro.units import KiB


def test_crash_recovery_and_checkpoint_ablation(once, figure_output, tmp_path):
    crash = RankCrash(5, 0.009)
    cfg_crash = OverlapConfig(
        platform="whale", nprocs=8, operation="alltoall",
        nbytes=64 * KiB, iterations=20,
        faults=FaultPlan(crashes=(crash,)),
    )
    cfg_clean = OverlapConfig(
        platform="whale", nprocs=8, operation="alltoall",
        nbytes=64 * KiB, iterations=20,
    )

    def run():
        store = CheckpointStore(str(tmp_path / "ckpt.json"))
        # execution 1: crash at t=9ms, recover, checkpoint every 4 iters
        crashed = run_overlap(
            cfg_crash, evals_per_function=2,
            recovery=ULFM(checkpoint=store, checkpoint_every=4),
        )
        # execution 2a: cold restart — re-learns everything
        cold = run_overlap(cfg_clean, evals_per_function=2, recovery=ULFM())
        # execution 2b: warm restart from the persisted checkpoint
        warm = run_overlap(
            cfg_clean, evals_per_function=2,
            recovery=ULFM(checkpoint=CheckpointStore(store.path)),
        )
        table = format_table(
            ["run", "learning iters", "winner", "notes"],
            [
                ["crashed (recovered)", crashed.learning_iterations,
                 crashed.winner,
                 f"dead={crashed.dead} repairs={crashed.repairs} "
                 f"ckpts={crashed.checkpoints_written}"],
                ["cold restart", cold.learning_iterations, cold.winner,
                 "re-learns from scratch"],
                ["warm restart", warm.learning_iterations, warm.winner,
                 f"restored epoch {warm.restored_epoch}"],
            ],
            title="Ablation: rank crash recovery + checkpointed tuning state",
        )
        return crashed, cold, warm, table

    crashed, cold, warm, text = once(run)
    figure_output("abl_crash", text)

    # recovery: run completed on the survivor group with a uniform winner
    assert crashed.dead == [5]
    assert crashed.repairs == 1
    assert len(crashed.records) == cfg_crash.iterations
    assert sorted(crashed.agreed_winner) == crashed.survivors
    assert len(set(crashed.agreed_winner.values())) == 1

    # checkpointing: warm restart is strictly cheaper than a cold one
    assert crashed.checkpoints_written > 0
    assert warm.restored_epoch > 0
    assert warm.learning_iterations < cold.learning_iterations
    assert warm.winner == cold.winner
