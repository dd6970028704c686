"""Integration tests for the simulated MPI point-to-point layer."""

from array import array

import numpy as np
import pytest

from repro.errors import CommRevokedError, DeadlockError, RankFailedError
from repro.nbc.coll import start_ialltoall
from repro.sim import (
    Compute,
    DropRule,
    FaultPlan,
    NoiseModel,
    Progress,
    RankCrash,
    SimWorld,
    Wait,
    get_platform,
)
from repro.units import KiB, MiB


def make_world(nprocs=2, platform="whale", **kw):
    return SimWorld(get_platform(platform), nprocs=nprocs, **kw)


def run_programs(world, factory):
    world.launch(factory)
    return world.run()


def test_eager_pingpong_delivers_payload():
    world = make_world()
    payload = np.arange(16, dtype=np.int64)
    received = {}

    def program(ctx):
        if ctx.rank == 0:
            req = ctx.isend(1, tag=5, data=payload)
            yield Wait(req)
        else:
            req = ctx.irecv(0, nbytes=payload.nbytes, tag=5)
            yield Wait(req)
            received["data"] = req.data

    res = run_programs(world, program)
    np.testing.assert_array_equal(received["data"], payload)
    assert res.makespan > 0


def test_send_buffer_snapshot_semantics():
    """Mutating the send buffer after isend must not affect delivery."""
    world = make_world()
    payload = np.ones(8, dtype=np.float64)
    received = {}

    def program(ctx):
        if ctx.rank == 0:
            req = ctx.isend(1, tag=1, data=payload)
            payload[:] = -1.0  # reuse the buffer immediately
            yield Wait(req)
        else:
            req = ctx.irecv(0, nbytes=64, tag=1)
            yield Wait(req)
            received["data"] = req.data

    run_programs(world, program)
    np.testing.assert_array_equal(received["data"], np.ones(8))


def test_bytes_like_payload_is_snapshotted_and_sized_in_bytes():
    """A bytes-like payload is copied at post time, like an ndarray, and
    sized in bytes, not items: reusing a ``bytearray`` after ``Wait``
    leaves a late receive its old bytes, and two doubles are 16 bytes."""
    world = make_world()
    reused = bytearray(b"abcd")
    doubles = memoryview(array("d", [1.0, 2.0]))
    got = {}

    def program(ctx):
        if ctx.rank == 0:
            sends = [ctx.isend(1, tag=1, data=reused),
                     ctx.isend(1, tag=2, data=doubles)]
            got["posted"] = [req.nbytes for req in sends]
            for req in sends:
                yield Wait(req)
            reused[:] = b"XXXX"
        else:
            yield Compute(1e-3)  # both messages wait unexpected by now
            recvs = [ctx.irecv(0, nbytes=4, tag=1),
                     ctx.irecv(0, nbytes=16, tag=2)]
            for req in recvs:
                yield Wait(req)
            got["received"] = [req.data for req in recvs]

    run_programs(world, program)
    assert got["posted"] == [4, 16]
    assert got["received"] == [b"abcd", array("d", [1.0, 2.0]).tobytes()]


def test_unexpected_message_matches_late_recv():
    world = make_world()
    done = {}

    def program(ctx):
        if ctx.rank == 0:
            req = ctx.isend(1, nbytes=256, tag=3)
            yield Wait(req)
        else:
            # compute long enough that the message arrives unexpected
            yield Compute(1.0)
            req = ctx.irecv(0, nbytes=256, tag=3)
            yield Wait(req)
            done["t"] = req.complete_time

    run_programs(world, program)
    # matched out of the unexpected queue: completes at post time (~1s)
    assert done["t"] == pytest.approx(1.0, rel=0.01)


def test_rendezvous_requires_receiver_progress():
    """A large message cannot complete while the receiver only computes."""
    platform = get_platform("whale")
    big = 2 * MiB
    times = {}

    def program_with_progress(ctx):
        if ctx.rank == 0:
            req = ctx.isend(1, nbytes=big, tag=9)
            yield Wait(req)
        else:
            req = ctx.irecv(0, nbytes=big, tag=9)
            for _ in range(10):
                yield Compute(0.01)
                yield Progress()
            yield Wait(req)
            times["with"] = ctx.now

    def program_without_progress(ctx):
        if ctx.rank == 0:
            req = ctx.isend(1, nbytes=big, tag=9)
            yield Wait(req)
        else:
            req = ctx.irecv(0, nbytes=big, tag=9)
            yield Compute(0.1)  # same total compute, no progress calls
            yield Wait(req)
            times["without"] = ctx.now

    w1 = SimWorld(platform, 2, placement="cyclic")
    w1.launch(program_with_progress)
    w1.run()
    w2 = SimWorld(platform, 2, placement="cyclic")
    w2.launch(program_without_progress)
    w2.run()
    transfer = platform.params.inter.transfer_time(big)
    # with progress calls the transfer overlaps the compute; without them
    # the handshake stalls until the final wait and the transfer happens
    # entirely after the compute
    assert times["with"] < times["without"]
    assert times["without"] >= 0.1 + 0.8 * transfer


def test_eager_flows_without_receiver_progress():
    """Small messages complete even if the receiver never progresses."""
    platform = get_platform("whale")
    times = {}

    def program(ctx):
        if ctx.rank == 0:
            req = ctx.isend(1, nbytes=1 * KiB, tag=2)
            yield Wait(req)
        else:
            req = ctx.irecv(0, nbytes=1 * KiB, tag=2)
            yield Compute(0.5)
            yield Wait(req)
            times["t"] = ctx.now

    world = SimWorld(platform, 2)
    world.launch(program)
    world.run()
    # completes essentially at the end of the compute phase
    assert times["t"] == pytest.approx(0.5, rel=0.01)


def test_message_order_preserved_per_tagged_stream():
    world = make_world()
    seen = []

    def program(ctx):
        if ctx.rank == 0:
            reqs = [ctx.isend(1, tag=t, data=np.array([t])) for t in range(5)]
            yield Wait(reqs)
        else:
            reqs = [ctx.irecv(0, nbytes=8, tag=t) for t in range(5)]
            yield Wait(reqs)
            seen.extend(int(r.data[0]) for r in reqs)

    run_programs(world, program)
    assert seen == [0, 1, 2, 3, 4]


def test_deadlock_detection():
    world = make_world()

    def program(ctx):
        if ctx.rank == 0:
            req = ctx.irecv(1, nbytes=8, tag=1)  # never sent
            yield Wait(req)
        else:
            yield Compute(0.001)

    world.launch(program)
    with pytest.raises(DeadlockError):
        world.run()


def test_intra_node_faster_than_inter_node():
    platform = get_platform("whale")  # 8 cores/node

    def timed_pingpong(world, peer):
        t = {}

        def program(ctx):
            if ctx.rank == 0:
                req = ctx.isend(peer, nbytes=4 * KiB, tag=1)
                yield Wait(req)
                rr = ctx.irecv(peer, nbytes=4 * KiB, tag=2)
                yield Wait(rr)
                t["rtt"] = ctx.now
            elif ctx.rank == peer:
                rr = ctx.irecv(0, nbytes=4 * KiB, tag=1)
                yield Wait(rr)
                req = ctx.isend(0, nbytes=4 * KiB, tag=2)
                yield Wait(req)
            else:
                return
                yield  # pragma: no cover

        world.launch(program)
        world.run()
        return t["rtt"]

    rtt_intra = timed_pingpong(SimWorld(platform, 16), peer=1)   # same node
    rtt_inter = timed_pingpong(SimWorld(platform, 16), peer=8)   # next node
    assert rtt_intra < rtt_inter


def test_nic_serialization_creates_incast_contention():
    """Many senders to one receiver serialize on the receiver's NIC."""
    platform = get_platform("whale")
    size = 8 * KiB
    t_many = {}
    t_one = {}

    def incast(nsenders, out):
        world = SimWorld(platform, (nsenders + 1) * 8)  # rank 0 alone per node

        def program(ctx):
            if ctx.rank == 0:
                reqs = [
                    ctx.irecv(8 * s, nbytes=size, tag=s)
                    for s in range(1, nsenders + 1)
                ]
                yield Wait(reqs)
                out["t"] = ctx.now
            elif ctx.rank % 8 == 0:
                s = ctx.rank // 8
                req = ctx.isend(0, nbytes=size, tag=s)
                yield Wait(req)
            else:
                return
                yield  # pragma: no cover

        world.launch(program)
        world.run()

    incast(1, t_one)
    incast(6, t_many)
    ser = platform.params.inter.serialization_time(size)
    assert t_many["t"] >= t_one["t"] + 4 * ser


def test_noise_perturbs_compute_but_stays_reproducible():
    def program(ctx):
        yield Compute(1.0)

    def makespan(seed):
        world = SimWorld(get_platform("whale"), 2,
                         noise=NoiseModel(sigma=0.05, seed=seed))
        world.launch(program)
        return world.run().makespan

    a, b, c = makespan(1), makespan(1), makespan(2)
    assert a == b            # same seed -> identical run
    assert a != c            # different seed -> different jitter
    assert abs(a - 1.0) < 0.5


def test_run_result_reports_all_ranks():
    world = make_world(nprocs=4)

    def program(ctx):
        yield Compute(0.1 * (ctx.rank + 1))

    world.launch(program)
    res = world.run()
    assert len(res.finish_times) == 4
    assert res.makespan == pytest.approx(0.4, rel=0.01)
    assert res.events > 0


def test_fastlane_batches_around_a_queued_timer(monkeypatch):
    """A timer scheduled before the first yield does not stop the fast
    lane from draining the rank's later syscalls inline: it stays queued
    and the results match the lane-off run."""

    def run(lane):
        monkeypatch.setenv("REPRO_ARRAY_ENGINE", "1" if lane else "0")
        world = make_world(nprocs=1)

        def program(ctx):
            ctx.world.sim.post(100.0, lambda: None)
            yield Compute(1e-3)
            yield Compute(1e-3)
            yield Compute(1e-3)

        res = run_programs(world, program)
        return ([t.hex() for t in res.finish_times], res.events,
                world.sim.batched_syscalls, world.sim.pending())

    times, events, batched, pending = run(lane=True)
    assert batched == 2  # batched after the first yield
    assert pending == 1  # the timer is still queued
    assert (times, events) == run(lane=False)[:2]


@pytest.mark.xfail(strict=True, reason=(
    "known fast-lane defect: SimWorld._batch pulls the rank's next "
    "generator step at once, so the barrier posts made in that step run "
    "ahead of other ranks' events timed before this rank's busy_until; "
    "_defer replays only the yielded syscall, not the posts"))
def test_fastlane_raw_pairs_then_message_barrier_match_evented(monkeypatch):
    """A raw (Compute, Progress) program whose last Progress is followed
    by a message-based barrier must time the same with the fast lane on
    and off.  The drift shows at the iteration start after the barrier."""
    nprocs = 3

    def run(lane):
        monkeypatch.setenv("REPRO_ARRAY_ENGINE", "1" if lane else "0")
        world = make_world(nprocs=nprocs)
        starts = []

        def program(ctx):
            for it in range(2):
                starts.append((it, ctx.rank, ctx.now.hex()))
                if ctx.rank == 0:
                    reqs = [ctx.isend(p, tag=1, nbytes=1 * KiB)
                            for p in range(1, nprocs)]
                else:
                    reqs = [ctx.irecv(0, nbytes=1 * KiB, tag=1)]
                yield Compute(1e-3)
                yield Progress(reqs)
                yield Wait(reqs)
                # dissemination barrier
                k = 1
                while k < nprocs:
                    send = ctx.isend((ctx.rank + k) % nprocs, tag=2, nbytes=0)
                    recv = ctx.irecv((ctx.rank - k) % nprocs, nbytes=0, tag=2)
                    yield Wait([send, recv])
                    k *= 2

        res = run_programs(world, program)
        return sorted(starts), [t.hex() for t in res.finish_times], res.events

    assert run(lane=True) == run(lane=False)


# -- a rank blocked in Wait answers RTS and CTS on arrival --------------------


def _guard_blocked_arrivals(world):
    """Wrap ``world``'s RTS and CTS arrival handlers with the invariant
    the inline answer relies on: a rank blocked in Wait has no queued
    protocol work.  Returns the kinds (``"RTS"``/``"CTS"``) of the
    arrivals that reached a blocked rank."""
    checked = []

    def guard(handler, end, kind):
        def arrival(msg):
            st = world._ranks[getattr(msg, end)]
            if st.waiting is not None:
                assert not st.pending_cts and not st.pending_data, (
                    f"rank {st.id} is blocked in Wait with queued work: "
                    f"{len(st.pending_cts)} CTS, {len(st.pending_data)} data")
                checked.append(kind)
            handler(msg)
        return arrival

    world._on_rts_arrival = guard(world._on_rts_arrival, "peer", "RTS")
    world._on_cts_arrival = guard(world._on_cts_arrival, "src", "CTS")
    return checked


def _compute_through_arrivals(ctx):
    """Rank 0 exchanges a rendezvous message each way with every other
    rank, then computes: the RTSs and CTSs of ranks 1 and 2 arrive
    while it computes and are queued, rank 3's once it blocks in Wait."""
    nbytes = 256 * KiB
    if ctx.rank == 0:
        reqs = [ctx.isend(r, nbytes, tag=0) for r in (1, 2, 3)]
        reqs += [ctx.irecv(r, nbytes, tag=1) for r in (1, 2, 3)]
        yield Compute(2.5e-4)
    else:
        reqs = [ctx.irecv(0, nbytes, tag=0)]
        yield Compute(ctx.rank * 1e-4)
        reqs.append(ctx.isend(0, nbytes, tag=1))
    yield Wait(reqs)


def _alltoall(ctx):
    req = start_ialltoall(ctx, 64 * KiB, "pairwise")
    yield Compute(1e-4)
    yield Progress([req])
    yield Compute(1e-4)
    yield Wait(req)


def _ulfm_ring(ctx):
    """A rendezvous ring that loses rank 2, then repairs by revoke, agree
    and shrink and runs the ring again on the survivors."""
    comm = ctx.comm_world
    for _ in range(2):
        me = comm.local_rank(ctx.rank)
        try:
            r = ctx.irecv((me - 1) % comm.size, 256 * KiB, tag=5, comm=comm)
            s = ctx.isend((me + 1) % comm.size, 256 * KiB, tag=5, comm=comm)
            yield Compute(1e-4)
            yield Wait([r, s])
            ok = 1
        except (RankFailedError, CommRevokedError):
            ok = 0
            comm.revoke(ctx)
        yield from comm.agree(ctx, ok)
        comm = comm.shrink()


@pytest.mark.parametrize("program, nprocs, faults", [
    (_alltoall, 8, None),
    (_compute_through_arrivals, 4, None),
    (_compute_through_arrivals, 4,
     FaultPlan(drops=(DropRule(prob=1.0, t_end=5e-4),))),
    (_ulfm_ring, 4, FaultPlan(crashes=(RankCrash(2, 1.5e-4),))),
], ids=["alltoall", "compute-then-wait", "drop-retransmit", "ulfm-crash"])
def test_a_blocked_rank_has_no_queued_protocol_work(program, nprocs, faults):
    """An RTS or CTS reaching a rank blocked in Wait is answered at once,
    which is exact only because Wait drained the rank's queued CTSs and
    data injections before it blocked."""
    world = make_world(nprocs, placement="cyclic", faults=faults)
    checked = _guard_blocked_arrivals(world)
    run_programs(world, program)
    assert checked
    if faults is not None and faults.drops:
        assert world.retransmits >= 1
    if faults is not None and faults.crashes:
        assert world._dead == {2}
