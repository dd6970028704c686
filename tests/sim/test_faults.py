"""Tests for the fault-injection layer and the reliable transport."""

import math

import numpy as np
import pytest

from repro.errors import (
    DeadlockError,
    FaultError,
    MessageLostError,
    WatchdogTimeout,
)
from repro.sim import SimWorld, Wait, get_platform
from repro.sim.faults import (
    DropRule,
    FaultInjector,
    FaultPlan,
    LinkDegradation,
    RailFailure,
)
from repro.units import KiB


def make_world(nprocs=2, **kw):
    # cyclic placement puts consecutive ranks on different nodes, so
    # rank 0 <-> rank 1 traffic crosses the (fault-prone) network
    return SimWorld(get_platform("whale"), nprocs=nprocs,
                    placement="cyclic", **kw)


def pingpong_factory(payload, received):
    def program(ctx):
        if ctx.rank == 0:
            req = ctx.isend(1, tag=5, data=payload)
            yield Wait(req)
        else:
            req = ctx.irecv(0, nbytes=payload.nbytes, tag=5)
            yield Wait(req)
            received["data"] = req.data

    return program


# ---------------------------------------------------------------------------
# plan construction + validation
# ---------------------------------------------------------------------------


def test_empty_plan_is_empty_and_injectorless():
    assert FaultPlan().empty
    world = make_world(faults=FaultPlan())
    assert world.faults is None


@pytest.mark.parametrize("bad", [
    lambda: DropRule(prob=1.5),
    lambda: DropRule(prob=-0.1),
    lambda: DropRule(prob=0.5, t_start=1.0, t_end=0.5),
    lambda: LinkDegradation(1.0, 0.5),
    lambda: LinkDegradation(0.0, 1.0, latency_mult=0.5),
    lambda: RailFailure(node=-1, rail=0),
    lambda: FaultPlan(stragglers=((0, 0.5),)),
    lambda: FaultPlan(stragglers=((-1, 2.0),)),
])
def test_invalid_fault_specs_rejected(bad):
    with pytest.raises(FaultError):
        bad()


def test_plan_is_hashable_and_frozen():
    plan = FaultPlan(drops=(DropRule(0.1),), stragglers=((2, 3.0),))
    assert hash(plan) == hash(FaultPlan(drops=(DropRule(0.1),),
                                        stragglers=((2, 3.0),)))
    with pytest.raises(AttributeError):
        plan.seed = 1


# ---------------------------------------------------------------------------
# the --faults mini-language
# ---------------------------------------------------------------------------


def test_parse_full_spec():
    plan = FaultPlan.parse(
        "drop=0.02, drop=1.0@0.1:0.5, degrade=0:1:4:8, "
        "straggler=3:2.5, rail=0:1@0.2, rail=2:0@0.1:0.9, seed=7"
    )
    assert plan.drops == (DropRule(0.02), DropRule(1.0, 0.1, 0.5))
    assert plan.degradations == (LinkDegradation(0.0, 1.0, 4.0, 8.0),)
    assert plan.stragglers == ((3, 2.5),)
    assert plan.rail_failures == (
        RailFailure(0, 1, 0.2, math.inf),
        RailFailure(2, 0, 0.1, 0.9),
    )
    assert plan.seed == 7


def test_parse_empty_and_roundtrip_description():
    assert FaultPlan.parse("").empty
    assert FaultPlan.parse("").describe() == "no faults"
    assert "drop rule" in FaultPlan.parse("drop=0.5").describe()


@pytest.mark.parametrize("spec", [
    "drop",                 # no '='
    "drop=abc",             # not a float
    "wibble=1",             # unknown clause
    "degrade=0:1",          # missing multipliers
    "straggler=3",          # missing factor
])
def test_parse_rejects_malformed_specs(spec):
    with pytest.raises(FaultError):
        FaultPlan.parse(spec)


# ---------------------------------------------------------------------------
# drops: retransmission, loss, naive-transport deadlock
# ---------------------------------------------------------------------------


def test_certain_drop_with_reliable_transport_retransmits():
    # drops stop at t_end, so the retransmit eventually goes through
    plan = FaultPlan(drops=(DropRule(1.0, 0.0, 1e-4),))
    world = make_world(faults=plan)
    payload = np.arange(32, dtype=np.int64)
    received = {}
    world.launch(pingpong_factory(payload, received))
    world.run()
    np.testing.assert_array_equal(received["data"], payload)
    assert world.faults.messages_dropped >= 1
    assert world.retransmits >= 1


def test_permanent_drop_raises_message_lost():
    plan = FaultPlan(drops=(DropRule(1.0),))
    world = make_world(faults=plan, max_retries=3)
    payload = np.arange(32, dtype=np.int64)
    with pytest.raises(MessageLostError, match="after 3 retransmission"):
        world.launch(pingpong_factory(payload, {}))
        world.run()


def test_drop_with_naive_transport_deadlocks():
    plan = FaultPlan(drops=(DropRule(1.0, 0.0, 1e-4),))
    world = make_world(faults=plan, reliable=False)
    payload = np.arange(32, dtype=np.int64)
    with pytest.raises(DeadlockError) as exc:
        world.launch(pingpong_factory(payload, {}))
        world.run()
    # the per-rank diagnostic names what the blocked rank waits on
    assert "rank 1" in str(exc.value)
    assert "recv(from=0" in str(exc.value)


def test_drop_rules_respect_rank_filters():
    # only 0 -> 1 is dropped; the reverse direction is untouched
    plan = FaultPlan(drops=(DropRule(1.0, src=0, dst=1),))
    world = make_world(faults=plan, max_retries=2)
    received = {}

    def program(ctx):
        payload = np.arange(8, dtype=np.int64)
        if ctx.rank == 1:
            req = ctx.isend(0, tag=9, data=payload)
            yield Wait(req)
        else:
            req = ctx.irecv(1, nbytes=payload.nbytes, tag=9)
            yield Wait(req)
            received["data"] = req.data

    world.launch(program)
    world.run()
    assert received["data"] is not None
    assert world.faults.messages_dropped == 0


def test_intra_node_traffic_is_never_dropped():
    plan = FaultPlan(drops=(DropRule(1.0),))
    # block placement: ranks 0 and 1 share a node (shared-memory path)
    world = SimWorld(get_platform("whale"), nprocs=2, placement="block",
                     faults=plan, max_retries=1)
    payload = np.arange(32, dtype=np.int64)
    received = {}
    world.launch(pingpong_factory(payload, received))
    world.run()
    np.testing.assert_array_equal(received["data"], payload)
    assert world.faults.messages_dropped == 0


def test_drops_are_deterministic_per_seed():
    def run(seed):
        plan = FaultPlan(drops=(DropRule(0.4),), seed=seed)
        world = make_world(faults=plan)
        payload = np.arange(256, dtype=np.int64)
        world.launch(pingpong_factory(payload, {}))
        res = world.run()
        return res.makespan, world.faults.messages_dropped

    assert run(1) == run(1)


# ---------------------------------------------------------------------------
# link degradation
# ---------------------------------------------------------------------------


def timed_pingpong(world, nbytes=256 * KiB):
    payload = np.zeros(nbytes, dtype=np.uint8)
    world.launch(pingpong_factory(payload, {}))
    return world.run().makespan


def test_degradation_window_slows_messages_inside_it():
    healthy = timed_pingpong(make_world())
    plan = FaultPlan(degradations=(
        LinkDegradation(0.0, 10.0, latency_mult=4.0, bandwidth_mult=4.0),
    ))
    degraded = timed_pingpong(make_world(faults=plan))
    assert degraded > 2.0 * healthy


def test_degradation_outside_window_has_no_effect():
    healthy = timed_pingpong(make_world())
    plan = FaultPlan(degradations=(
        LinkDegradation(100.0, 200.0, latency_mult=8.0, bandwidth_mult=8.0),
    ))
    assert timed_pingpong(make_world(faults=plan)) == healthy


# ---------------------------------------------------------------------------
# stragglers
# ---------------------------------------------------------------------------


def test_straggler_slows_compute_of_that_rank_only():
    from repro.sim import Compute

    finish = {}

    def factory(ctx):
        yield Compute(1.0)
        finish[ctx.rank] = ctx.now

    plan = FaultPlan(stragglers=((1, 3.0),))
    world = make_world(faults=plan)
    world.launch(factory)
    world.run()
    assert finish[0] == pytest.approx(1.0)
    assert finish[1] == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# rail failures
# ---------------------------------------------------------------------------


def test_failed_rail_reroutes_to_survivor():
    # crill has two NIC rails; the (0, 1) pair hashes to rail 0, which
    # is down on node 0 for the whole run
    plan = FaultPlan(rail_failures=(RailFailure(0, 0),))
    world = SimWorld(get_platform("crill"), nprocs=2, placement="cyclic",
                     faults=plan)
    assert world.params.nic_rails == 2
    assert world._pair_hash(0, 1) % 2 == 0
    payload = np.arange(64, dtype=np.int64)
    received = {}
    world.launch(pingpong_factory(payload, received))
    world.run()
    np.testing.assert_array_equal(received["data"], payload)
    assert world.faults.messages_dropped == 0
    # the message went out on node 0's surviving rail 1
    tx_rail0, tx_rail1 = world._tx_free[0]
    assert tx_rail0 == 0.0 < tx_rail1


def test_all_rails_failed_drops_until_recovery():
    plat = get_platform("whale")
    nrails = plat.params.nic_rails
    # fail every rail of node 0 for a short window; the retransmit
    # after the window restores delivery
    plan = FaultPlan(rail_failures=tuple(
        RailFailure(0, r, 0.0, 1e-4) for r in range(nrails)
    ))
    world = make_world(faults=plan)
    payload = np.arange(64, dtype=np.int64)
    received = {}
    world.launch(pingpong_factory(payload, received))
    world.run()
    np.testing.assert_array_equal(received["data"], payload)
    assert world.faults.messages_dropped >= 1


def test_injector_install_is_single_use():
    inj = FaultInjector(FaultPlan(drops=(DropRule(0.5),)))
    world = make_world()
    inj.install(world.sim)
    with pytest.raises(FaultError):
        inj.install(world.sim)


# ---------------------------------------------------------------------------
# watchdog
# ---------------------------------------------------------------------------


def test_watchdog_classifies_pending_stall_as_timeout():
    from repro.sim import Compute

    def factory(ctx):
        if ctx.rank == 0:
            yield Compute(100.0)  # still running at the deadline
        else:
            req = ctx.irecv(0, nbytes=64, tag=1)
            yield Wait(req)

    world = make_world()
    world.launch(factory)
    with pytest.raises(WatchdogTimeout, match="watchdog expired"):
        world.run(deadline=1.0)


def test_drained_queue_is_deadlock_not_timeout():
    def factory(ctx):
        if ctx.rank == 1:
            req = ctx.irecv(0, nbytes=64, tag=1)  # nobody sends
            yield Wait(req)
        else:
            return
            yield

    world = make_world()
    world.launch(factory)
    with pytest.raises(DeadlockError):
        world.run(deadline=100.0)


# ---------------------------------------------------------------------------
# zero-perturbation guarantee
# ---------------------------------------------------------------------------


def test_empty_plan_output_identical_to_no_plan():
    payload = np.arange(4096, dtype=np.int64)

    def run(**kw):
        world = make_world(**kw)
        received = {}
        world.launch(pingpong_factory(payload, received))
        res = world.run()
        return res.makespan, res.events

    assert run() == run(faults=FaultPlan()) == run(faults=None)
