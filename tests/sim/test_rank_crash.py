"""Rank crashes, failure reporting, and ULFM-style repair primitives."""

import pytest

from repro.errors import (
    CommRevokedError,
    DeadlockError,
    FaultError,
    RankFailedError,
)
from repro.sim import (
    Compute,
    FaultPlan,
    Progress,
    RankCrash,
    SimWorld,
    Wait,
    get_platform,
)


def make_world(nprocs=4, crashes=(), platform="whale"):
    plan = FaultPlan(crashes=tuple(crashes)) if crashes else None
    return SimWorld(get_platform(platform), nprocs, faults=plan)


# ---------------------------------------------------------------------------
# RankCrash / FaultPlan plumbing
# ---------------------------------------------------------------------------


def test_rank_crash_validation():
    with pytest.raises(FaultError):
        RankCrash(-1, 0.1)
    with pytest.raises(FaultError):
        RankCrash(0, -0.5)
    with pytest.raises(FaultError):
        RankCrash(0, 0.1, respawn_delay=-1.0)
    with pytest.raises(FaultError):
        FaultPlan(crashes=(RankCrash(1, 0.1), RankCrash(1, 0.2)))


def test_fault_plan_parse_crash_clause():
    plan = FaultPlan.parse("crash=3@0.5")
    assert plan.crashes == (RankCrash(3, 0.5),)
    plan = FaultPlan.parse("crash=3@0.5:2.0,crash=1@0.25")
    assert RankCrash(3, 0.5, 2.0) in plan.crashes
    assert RankCrash(1, 0.25) in plan.crashes
    assert not plan.empty
    assert "crash" in plan.describe()


def test_crash_rank_out_of_range_rejected():
    with pytest.raises(FaultError):
        make_world(2, crashes=[RankCrash(5, 0.1)])


# ---------------------------------------------------------------------------
# failure semantics for naive (non-fault-tolerant) programs
# ---------------------------------------------------------------------------


def test_blocked_on_dead_peer_raises_rank_failed():
    world = make_world(2, crashes=[RankCrash(0, 0.001)])

    def prog(ctx):
        if ctx.rank == 1:
            req = ctx.irecv(0, nbytes=256 * 1024, tag=1)
            yield Wait(req)
        else:
            yield Compute(1.0)  # never sends; dies at t=0.001

    world.launch(prog)
    with pytest.raises(RankFailedError) as ei:
        world.run()
    assert 0 in ei.value.dead
    assert "crashed" in str(ei.value)


def test_post_to_dead_rank_raises_immediately():
    world = make_world(2, crashes=[RankCrash(0, 0.001)])
    seen = {}

    def prog(ctx):
        if ctx.rank == 1:
            yield Compute(0.01)  # crash already happened
            with pytest.raises(RankFailedError):
                ctx.isend(0, nbytes=64, tag=1)
            with pytest.raises(RankFailedError):
                ctx.irecv(0, nbytes=64, tag=1)
            seen["checked"] = True
        else:
            yield Compute(1.0)

    world.launch(prog)
    world.run()
    assert seen["checked"]
    assert world.dead_ranks == frozenset({0})


def test_true_deadlock_still_reported_with_dead_set():
    # ranks 0 and 1 wait on receives nobody will send; rank 2's death is
    # unrelated -> this is a cyclic wait, not a dead-peer block
    world = make_world(3, crashes=[RankCrash(2, 0.001)])

    def prog(ctx):
        if ctx.rank == 2:
            yield Compute(1.0)
        else:
            req = ctx.irecv(1 - ctx.rank, nbytes=64, tag=9)
            yield Wait(req)

    world.launch(prog)
    with pytest.raises(DeadlockError) as ei:
        world.run()
    assert "dead rank(s): [2]" in str(ei.value)


def test_blocked_report_names_a_skipped_agreement():
    """A live member that skips an ``agree`` stalls the others inside it;
    the report names the agreement and how many live members joined."""
    world = make_world(4)
    comm = world.comm_world

    def prog(ctx):
        yield Compute(0.001)
        if ctx.rank != 3:
            yield from comm.agree(ctx, 1, op="min")

    world.launch(prog)
    with pytest.raises(DeadlockError) as ei:
        world.run()
    agreement = (f"agree(comm={comm.comm_id}, instance=0, op=min, "
                 f"3/4 live contributed)")
    for rank in (0, 1, 2):
        assert f"rank {rank}: waiting on 1 item(s): {agreement}" in str(ei.value)
    assert "_AgreeHandle" not in str(ei.value)


def test_hard_barrier_releases_over_live_ranks():
    world = make_world(3, crashes=[RankCrash(2, 0.001)])
    done = []

    def prog(ctx):
        if ctx.rank == 2:
            yield Compute(1.0)
        else:
            from repro.sim import Barrier

            yield Compute(0.005)
            yield Barrier()
            done.append(ctx.rank)

    world.launch(prog)
    world.run()
    assert sorted(done) == [0, 1]


def test_messages_to_dead_rank_become_dead_letters():
    # the eager send is posted while rank 1 is alive; rank 1 dies while
    # the message is in flight -> it is dropped on arrival, not matched
    world = make_world(2, crashes=[RankCrash(1, 2e-7)])

    def prog(ctx):
        if ctx.rank == 0:
            req = ctx.isend(1, nbytes=16, tag=1)  # eager: completes locally
            yield Wait(req)
            yield Compute(1e-4)  # stay alive until the message lands
        else:
            yield Compute(1.0)

    world.launch(prog)
    world.run()
    assert world.dead_letters >= 1


# ---------------------------------------------------------------------------
# revoke / shrink / agree
# ---------------------------------------------------------------------------


#: a crash inside the ring: on whale the crash-free ring ends at ~0.15 ms
#: of virtual time
RING_CRASH = RankCrash(2, 5e-5)


def _ring(crashes):
    """A 4-rank ring (receive from rank-1, send to rank+1) whose ranks
    agree on whether it completed, then shrink: ``(world, run result,
    rank -> (flag, shrunk ranks, shrunk comm))``."""
    world = make_world(4, crashes=crashes)
    comm = world.comm_world
    out = {}

    def prog(ctx):
        try:
            r = ctx.irecv((ctx.rank - 1) % 4, nbytes=256 * 1024, tag=5)
            s = ctx.isend((ctx.rank + 1) % 4, nbytes=256 * 1024, tag=5)
            yield Wait([r, s])
            ok = 1
        except (RankFailedError, CommRevokedError):
            ok = 0
            comm.revoke(ctx)
        flag = yield from comm.agree(ctx, ok)
        sc = comm.shrink()
        out[ctx.rank] = (flag, tuple(sc.ranks), sc)

    world.launch(prog)
    return world, world.run(), out


def test_a_crash_free_ring_agrees_it_completed():
    _, result, out = _ring(())
    assert sorted(out) == [0, 1, 2, 3]
    assert {v[0] for v in out.values()} == {1}
    assert {v[1] for v in out.values()} == {(0, 1, 2, 3)}
    # the crash below strikes while this ring is still moving data
    assert result.makespan > RING_CRASH.t


def test_recovery_revoke_agree_shrink_ring():
    world, _, out = _ring([RING_CRASH])
    assert sorted(out) == [0, 1, 3]
    flags = {v[0] for v in out.values()}
    assert flags == {0}  # uniform completion test failed everywhere
    ranks = {v[1] for v in out.values()}
    assert ranks == {(0, 1, 3)}
    # shrink is memoized: every survivor got the *same* communicator
    comms = {id(v[2]) for v in out.values()}
    assert len(comms) == 1
    sc = next(iter(out.values()))[2]
    assert [sc.local_rank(r) for r in sc.ranks] == [0, 1, 2]
    assert sc.comm_id != world.comm_world.comm_id


def test_agree_excludes_mid_protocol_death_and_supports_ops():
    # rank 1 contributes, then crashes before the others join; the
    # decision must exclude it and never block on it
    world = make_world(4, crashes=[RankCrash(1, 0.002)])
    comm = world.comm_world
    out = {}

    def prog(ctx):
        if ctx.rank != 1:
            yield Compute(0.005)  # join well after rank 1 died
        v = yield from comm.agree(ctx, ctx.rank + 10, op="max")
        out[ctx.rank] = v

    world.launch(prog)
    world.run()
    assert sorted(out) == [0, 2, 3]
    assert set(out.values()) == {13}  # max over live contributions


def test_agree_works_on_revoked_comm():
    world = make_world(3, crashes=[RankCrash(0, 0.001)])
    comm = world.comm_world
    out = {}

    def prog(ctx):
        if ctx.rank == 0:
            yield Compute(1.0)
        else:
            yield Compute(0.004)
            comm.revoke(ctx)
            v = yield from comm.agree(ctx, 1)
            out[ctx.rank] = v

    world.launch(prog)
    world.run()
    assert out == {1: 1, 2: 1}


def test_revoke_interrupts_blocked_member():
    world = make_world(3)
    comm = world.comm_world
    out = {}

    def prog(ctx):
        if ctx.rank == 0:
            try:
                req = ctx.irecv(1, nbytes=256 * 1024, tag=3)
                yield Wait(req)
                out[0] = "completed"
            except CommRevokedError:
                out[0] = "revoked"
        elif ctx.rank == 1:
            yield Compute(0.002)
            comm.revoke(ctx)
            out[1] = "did-revoke"
        else:
            yield Compute(0.001)
            out[2] = "bystander"

    world.launch(prog)
    world.run()
    assert out == {0: "revoked", 1: "did-revoke", 2: "bystander"}


def test_post_on_revoked_comm_raises():
    world = make_world(2)
    comm = world.comm_world
    seen = {}

    def prog(ctx):
        if ctx.rank == 0:
            comm.revoke(ctx)
            with pytest.raises(CommRevokedError):
                ctx.isend(1, nbytes=64, tag=1)
            seen["ok"] = True
        yield Compute(0.0001)

    world.launch(prog)
    world.run()
    assert seen["ok"]


def test_respawn_delay_is_recorded_not_resurrecting():
    crash = RankCrash(1, 0.001, respawn_delay=0.5)
    world = make_world(2, crashes=[crash])

    def prog(ctx):
        yield Compute(2.0)

    world.launch(prog)
    world.run()
    # within one simulation the rank stays dead; the delay is accounting
    assert world.dead_ranks == frozenset({1})
    assert world.faults.ranks_crashed == 1
    assert crash.respawn_delay == 0.5


# ---------------------------------------------------------------------------
# the open-request index behind crash and revoke sweeps
# ---------------------------------------------------------------------------

_RDV = 256 * 1024  # rendezvous-sized: requests stay open until the peer acts


def _post_to_three_peers(ctx, comms):
    """Rank 0's open requests to peers 1, 2 and 3, interleaved; none of
    the peers ever answers.  Returns ``(peer, comm, request)`` in post
    order."""
    posted = []
    for tag, (peer, comm, kind) in enumerate([
            (1, 0, "recv"), (2, 0, "recv"), (3, 1, "send"), (3, 0, "recv"),
            (2, 1, "send"), (1, 1, "recv"), (2, 0, "recv"), (3, 1, "recv")]):
        post = ctx.isend if kind == "send" else ctx.irecv
        posted.append((peer, comm, post(peer, _RDV, tag, comms[comm])))
    return posted


def _spy_failures(world, monkeypatch):
    """Record every request the world fails, in the order it fails them."""
    failed = []
    orig = world._fail_request

    def spy(st, req, exc, notify=True):
        failed.append((st.id, req))
        orig(st, req, exc, notify)

    monkeypatch.setattr(world, "_fail_request", spy)
    return failed


def test_crash_fails_exactly_the_dead_peers_requests_in_post_order(
        monkeypatch):
    world = make_world(4, crashes=[RankCrash(2, 0.001)])
    comms = (world.comm_world, world.make_comm(range(4)))
    failed = _spy_failures(world, monkeypatch)
    seen = {}

    def prog(ctx):
        if ctx.rank != 0:
            yield Compute(0.003)
            return
        posted = _post_to_three_peers(ctx, comms)
        yield Compute(0.002)  # rank 2 dies meanwhile; no syscall checks
        seen["posted"] = posted
        seen["open"] = list(world._ranks[0].open)
        try:
            yield Progress()  # the sticky notification is delivered here
        except RankFailedError:
            seen["notified"] = True

    world.launch(prog)
    world.run()
    posted = seen["posted"]
    to_dead = [req for peer, _, req in posted if peer == 2]
    assert failed == [(0, req) for req in to_dead]
    assert all(isinstance(req.failed, RankFailedError) for req in to_dead)
    assert all(req.failed is None for peer, _, req in posted if peer != 2)
    assert seen["open"] == [req for peer, _, req in posted if peer != 2]
    assert seen["notified"]


def test_revoke_fails_exactly_that_comms_open_requests(monkeypatch):
    world = make_world(4)
    comms = (world.comm_world, world.make_comm(range(4)))
    failed = _spy_failures(world, monkeypatch)
    seen = {}

    def prog(ctx):
        if ctx.rank == 3:
            yield Compute(0.001)
            comms[1].revoke(ctx)
            return
        if ctx.rank != 0:
            yield Compute(0.003)
            return
        posted = _post_to_three_peers(ctx, comms)
        yield Compute(0.002)
        seen["posted"] = posted
        seen["open"] = list(world._ranks[0].open)
        try:
            yield Progress()
        except CommRevokedError:
            seen["notified"] = True

    world.launch(prog)
    world.run()
    posted = seen["posted"]
    on_revoked = [req for _, comm, req in posted if comm == 1]
    assert failed == [(0, req) for req in on_revoked]
    assert all(isinstance(req.failed, CommRevokedError) for req in on_revoked)
    assert all(req.failed is None for _, comm, req in posted if comm == 0)
    assert seen["open"] == [req for _, comm, req in posted if comm == 0]
    assert seen["notified"]


def test_blocked_report_after_a_crash_sweep():
    """A survivor that caught the crash and then blocks on its remaining
    peers is a genuine deadlock; the report lists what it waits on."""
    world = make_world(4, crashes=[RankCrash(2, 0.001)])
    comms = (world.comm_world, world.make_comm(range(4)))

    def prog(ctx):
        if ctx.rank != 0:
            yield Compute(0.003)
            return
        posted = _post_to_three_peers(ctx, comms)
        try:
            yield Wait([req for _, _, req in posted])
        except RankFailedError:
            pass
        yield Wait([req for peer, _, req in posted if peer != 2])

    world.launch(prog)
    with pytest.raises(DeadlockError) as ei:
        world.run()
    assert world.blocked_report() == (
        "  dead rank(s): [2]\n"
        "  rank 0: waiting on 5 item(s): "
        "recv(from=1, tag=0, comm=1, 262144B); "
        "send(to=3, tag=2, comm=2, 262144B); "
        "recv(from=3, tag=3, comm=1, 262144B); "
        "recv(from=1, tag=5, comm=2, 262144B); "
        "recv(from=3, tag=7, comm=2, 262144B)"
    )
    assert world.blocked_report() in str(ei.value)
