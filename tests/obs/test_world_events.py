"""Recorder integration with the simulation: event & metric agreement."""

from repro import nbc
from repro.obs import recording
from repro.obs.schema import CATEGORIES
from repro.sim import Compute, FaultPlan, Progress, SimWorld, Wait, get_platform
from repro.sim.faults import DropRule


def alltoall_prog(m=1024, algorithm="linear"):
    def prog(ctx):
        yield Compute(1e-4)
        req = nbc.start_ialltoall(ctx, m, algorithm=algorithm)
        yield Progress([req])
        yield Wait(req)

    return prog


def run_recorded(nprocs=4, faults=None, reliable=True, prog=None):
    with recording() as rec:
        world = SimWorld(get_platform("whale"), nprocs, faults=faults,
                         reliable=reliable)
        world.launch(prog or alltoall_prog())
        world.run()
    return rec, world


def by_name(rec):
    out = {}
    for ph, w, rank, cat, name, ts, dur, args in rec.events:
        out.setdefault(name, []).append((ph, cat, rank, ts, dur, args))
    return out


def test_events_cover_compute_progress_wait_and_messages():
    rec, _ = run_recorded()
    names = by_name(rec)
    assert len(names["compute"]) == 4          # one Compute per rank
    assert len(names["progress"]) >= 4
    assert len(names["wait"]) == 4             # one Wait per rank
    assert len(names["msg.post"]) == 4 * 3     # linear alltoall, P=4
    assert len(names["msg.deliver"]) == 4 * 3
    assert names["run"][0][1] == "engine"
    # every event's (cat, name) pair is in the declared taxonomy
    for name, evs in names.items():
        for ph, cat, *_ in evs:
            assert name in CATEGORIES[cat], (cat, name)


def test_metrics_agree_with_world_counts():
    # linear alltoall, P=4, 1 KiB blocks: 12 messages, all delivered
    rec, world = run_recorded()
    m = rec.metrics.snapshot()
    assert m["sim.messages_posted"]["value"] == 12
    assert m["sim.messages_delivered"]["value"] == 12
    assert m["sim.message_bytes"]["total"] == 12
    assert m["sim.message_bytes"]["sum"] == 12 * 1024
    assert m["sim.message_latency_seconds"]["total"] == 12
    assert m["sim.progress_calls"]["value"] >= 4
    assert m["sim.retransmits"]["value"] == world.retransmits == 0
    assert m["sim.dead_letters"]["value"] == world.dead_letters == 0


def test_spans_have_nonnegative_duration_and_valid_ranks():
    rec, world = run_recorded()
    for ph, w, rank, cat, name, ts, dur, args in rec.events:
        assert ts >= 0.0
        assert dur >= 0.0
        assert w == 0
        assert -1 <= rank < world.topology.nprocs


def test_fault_events_match_injector_bookkeeping():
    # 16 ranks on whale (8 cores/node) so inter-node messages exist for
    # the drop rule to eat; the window closes mid-run (the whole program
    # drains in under a millisecond of virtual time)
    plan = FaultPlan(drops=(DropRule(0.4, 0.0, 2e-4),), seed=3)
    rec, world = run_recorded(nprocs=16, faults=plan)
    names = by_name(rec)
    assert len(names["fault.drop"]) == world.faults.messages_dropped > 0
    assert len(names.get("fault.retransmit", [])) == world.retransmits
    m = rec.metrics.snapshot()
    assert m["sim.fault_drops"]["value"] == world.faults.messages_dropped
    assert m["sim.retransmits"]["value"] == world.retransmits
    # the drop window toggling on and off emits world-level instants
    kinds = [a.get("kind") for *_, a in names["fault.window"]]
    assert kinds.count("drop") >= 2


def test_nbc_round_events_track_schedule_shape():
    rec, _ = run_recorded()
    names = by_name(rec)
    rounds = names["nbc.round"]
    done = names["nbc.done"]
    assert len(done) == 4                      # one per rank
    assert all(a["sched"] for *_, a in rounds)
    assert all(a["rounds"] >= 1 for *_, a in done)


def test_disabled_recorder_attaches_nothing():
    world = SimWorld(get_platform("whale"), 4)
    assert world._obs is None
    world.launch(alltoall_prog())
    world.run()  # no recorder installed: must simply run clean
