"""End-to-end fault-tolerant tuning: crash mid-tuning, recover, agree.

These tests pin down the acceptance criteria for the process-failure
work: with a seeded crash killing one of eight ranks mid-tuning, the
fault-tolerant driver completes, every survivor reports the same winner
through the fault-tolerant agreement, and a checkpointed restart re-runs
strictly fewer learning iterations than a cold restart.
"""

import pytest

from repro.adcl import ULFM, CheckpointStore, Resilience
from repro.adcl.request import ADCLRequest
from repro.bench import OPERATION_KINDS, OverlapConfig, run_overlap
from repro.errors import RankFailedError
from repro.sim import FaultPlan, RankCrash
from repro.units import KiB


def run_ft(cfg, **ulfm):
    return run_overlap(cfg, evals_per_function=2, recovery=ULFM(**ulfm))


def config(crashes=(), iterations=20, nprocs=8, **kw):
    plan = FaultPlan(crashes=tuple(crashes)) if crashes else None
    return OverlapConfig(
        platform="whale", nprocs=nprocs, operation="alltoall",
        nbytes=64 * KiB, iterations=iterations, faults=plan, **kw,
    )


CRASH = RankCrash(5, 0.009)  # kills rank 5 of 8 mid-learning


def test_crash_mid_tuning_recovers_and_completes():
    res = run_ft(config([CRASH]))
    assert res.dead == [5]
    assert res.survivors == [0, 1, 2, 3, 4, 6, 7]
    assert res.repairs == 1
    assert len(res.records) == 20  # all iterations completed despite crash
    assert res.winner is not None


def test_all_survivors_agree_on_the_winner():
    res = run_ft(config([CRASH]))
    # every survivor reported through the final agreement ...
    assert sorted(res.agreed_winner) == res.survivors
    # ... and they all obtained the same decision
    assert len(set(res.agreed_winner.values())) == 1
    assert next(iter(res.agreed_winner.values())) == res.winner


def test_no_fault_matches_plain_driver_decision():
    plain = run_overlap(config(), evals_per_function=2)
    ft = run_ft(config())
    assert ft.dead == [] and ft.repairs == 0
    assert ft.winner == plain.winner
    assert ft.decided_at == plain.decided_at
    assert sorted(ft.agreed_winner) == list(range(8))


def test_checkpointed_restart_beats_cold_restart(tmp_path):
    store = CheckpointStore(str(tmp_path / "ckpt.json"))

    # first execution: crash, recover, checkpoint along the way
    first = run_ft(config([CRASH]), checkpoint=store, checkpoint_every=4)
    assert first.checkpoints_written > 0
    assert first.restored_epoch == 0  # the store was empty
    key = "alltoall@whale:B65536"
    assert config().checkpoint_key == key
    assert store.epoch(key) > 0

    # cold restart re-learns from scratch; warm restart restores the
    # journal from the store and must re-run strictly fewer measurement
    # iterations
    cold = run_ft(config())
    warm = run_ft(config(), checkpoint=store)
    assert warm.restored_epoch > 0
    assert warm.learning_iterations < cold.learning_iterations
    assert warm.winner == cold.winner


def test_max_repairs_zero_aborts_on_crash():
    with pytest.raises(RankFailedError):
        run_ft(config([CRASH]), max_repairs=0)


def test_respawn_wait_is_accounted():
    res = run_ft(config([RankCrash(5, 0.009, respawn_delay=1.5)]))
    assert res.dead == [5]
    assert res.respawn_wait == pytest.approx(1.5)


def test_two_crashes_two_repairs():
    res = run_ft(config([RankCrash(5, 0.009), RankCrash(2, 0.03)]))
    assert res.dead == [2, 5]
    assert res.survivors == [0, 1, 3, 4, 6, 7]
    assert res.repairs == 2
    assert len(res.records) == 20
    assert len(set(res.agreed_winner.values())) == 1


#: crashes inside the last iteration's barrier: some survivors pass it
#: while others fail it, and the ones that passed must rejoin the repair
LAST_BARRIER_CRASHES = {
    "alltoall-p8": (config([RankCrash(5, 0.302224)], iterations=6), 8),
    **{
        f"{op}-p4": (OverlapConfig(
            platform="whale", nprocs=4, operation=op, nbytes=4 * KiB,
            iterations=24, faults=FaultPlan(crashes=(RankCrash(3, t),)),
        ), 4)
        for op, t in [("allreduce", 1.200383), ("bcast", 1.2002508),
                      ("alltoall_hier", 1.200409),
                      ("alltoall_ext", 1.200437)]
    },
}


@pytest.mark.parametrize("case", sorted(LAST_BARRIER_CRASHES))
def test_crash_in_last_barrier_recovers(case):
    cfg, nprocs = LAST_BARRIER_CRASHES[case]
    res = run_overlap(cfg, evals_per_function=1, recovery=ULFM())
    assert res.repairs == 1
    assert len(res.records) == cfg.iterations
    assert len(res.survivors) == nprocs - 1
    assert sorted(res.agreed_winner) == res.survivors
    assert len(set(res.agreed_winner.values())) == 1


class _Built(Exception):
    """Raised once the driver has built its ADCL request."""


@pytest.mark.parametrize("operation", sorted(OPERATION_KINDS))
def test_ft_driver_tunes_the_same_signature_as_plain(operation, monkeypatch):
    """Every recovery mode keys the tuning problem (history, checkpoints)
    by the same CollSpec signature for every benchmark operation."""
    built = []

    def record(self, fnset, spec, *args, **kwargs):
        built.append(spec.signature())
        raise _Built

    monkeypatch.setattr(ADCLRequest, "__init__", record)
    cfg = OverlapConfig(platform="whale", nprocs=4, operation=operation,
                        nbytes=4 * KiB, iterations=2)
    for recovery in (None, Resilience(), ULFM()):
        with pytest.raises(_Built):
            run_overlap(cfg, evals_per_function=1, recovery=recovery)
    plain, resilient, ft = built
    assert resilient == ft == plain
    assert plain.startswith(OPERATION_KINDS[operation] + ":")
