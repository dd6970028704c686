"""ULFM recovery loop for NBC collectives (``ft_collective``)."""

import pytest

from repro.errors import RankFailedError
from repro.nbc import ft_collective, start_ialltoall, start_ibcast
from repro.sim import Compute, FaultPlan, RankCrash, SimWorld, get_platform
from repro.units import KiB


def run_ft(nprocs, crashes, start, prologue=0.002, platform="whale"):
    plan = FaultPlan(crashes=tuple(crashes)) if crashes else None
    world = SimWorld(get_platform(platform), nprocs, faults=plan)
    results = {}

    def prog(ctx):
        yield Compute(prologue)
        req, comm, repairs = yield from ft_collective(ctx, start)
        results[ctx.rank] = (repairs, tuple(comm.ranks))

    world.launch(prog)
    res = world.run()
    return world, results, res


ALLTOALL = lambda ctx, comm: start_ialltoall(ctx, 64 * KiB, comm=comm)
BCAST = lambda ctx, comm: start_ibcast(ctx, 64 * KiB, root=0, comm=comm)


def test_no_fault_passthrough():
    world, results, _ = run_ft(8, (), ALLTOALL)
    assert all(v == (0, tuple(range(8))) for v in results.values())


@pytest.mark.parametrize(
    "tcrash", [0.0021, 0.00225, 0.0024, 0.00265, 0.0028]
)
def test_alltoall_repairs_after_mid_collective_crash(tcrash):
    world, results, _ = run_ft(8, [RankCrash(5, tcrash)], ALLTOALL)
    assert sorted(results) == [0, 1, 2, 3, 4, 6, 7]
    outcomes = set(results.values())
    # every survivor performed the same repair onto the same group
    assert len(outcomes) == 1
    repairs, ranks = outcomes.pop()
    assert repairs >= 1
    assert ranks == (0, 1, 2, 3, 4, 6, 7)


@pytest.mark.parametrize("tcrash", [0.002001, 0.00201, 0.00203])
def test_bcast_survives_root_crash(tcrash):
    world, results, _ = run_ft(8, [RankCrash(0, tcrash)], BCAST)
    assert sorted(results) == [1, 2, 3, 4, 5, 6, 7]
    outcomes = set(results.values())
    assert len(outcomes) == 1
    repairs, ranks = outcomes.pop()
    assert repairs >= 1
    assert ranks == (1, 2, 3, 4, 5, 6, 7)


def test_two_staggered_crashes():
    world, results, _ = run_ft(
        8, [RankCrash(5, 0.0021), RankCrash(2, 0.00215)], ALLTOALL
    )
    assert sorted(results) == [0, 1, 3, 4, 6, 7]
    outcomes = set(results.values())
    assert len(outcomes) == 1
    repairs, ranks = outcomes.pop()
    assert ranks == (0, 1, 3, 4, 6, 7)
    assert repairs >= 1


def test_uniform_completion_skips_repair_when_crash_is_late():
    # the collective finishes before the crash can disturb it: the
    # agreement reports uniform success and nobody repairs
    world, results, _ = run_ft(8, [RankCrash(5, 0.5)], ALLTOALL)
    assert all(v == (0, tuple(range(8))) for v in results.values())


def test_max_repairs_exhaustion_reraises():
    plan = FaultPlan(crashes=(RankCrash(5, 0.0021),))
    world = SimWorld(get_platform("whale"), 8, faults=plan)

    def prog(ctx):
        yield Compute(0.002)
        yield from ft_collective(ctx, ALLTOALL, max_repairs=0)

    world.launch(prog)
    with pytest.raises(RankFailedError):
        world.run()


def test_late_member_joins_recovery_on_a_revoked_comm():
    # rank 1 straggles into the second collective after its peers saw
    # the crash and revoked the communicator: it must join their
    # agreement on that communicator (shrinking past it deadlocked)
    plan = FaultPlan(crashes=(RankCrash(5, 0.0032),))
    world = SimWorld(get_platform("whale"), 8, faults=plan)
    results = {}

    def prog(ctx):
        yield Compute(0.002)
        yield from ft_collective(ctx, ALLTOALL)
        if ctx.rank == 1:
            yield Compute(0.05)
        req, comm, repairs = yield from ft_collective(ctx, ALLTOALL)
        results[ctx.rank] = (repairs, tuple(comm.ranks))

    world.launch(prog)
    world.run()
    assert sorted(results) == [0, 1, 2, 3, 4, 6, 7]
    assert set(results.values()) == {(1, (0, 1, 2, 3, 4, 6, 7))}
