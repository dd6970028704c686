"""Where payloads land, when bad buffers fail, and when a wait is retried.

* A receive posted with a destination view (``ctx.irecv(..., buf=view)``)
  leaves the view untouched until the receive completes and holds the
  payload afterwards; a receive failed by a rank crash never touches it.
  The transport paths (eager expected, eager late match, rendezvous,
  crash) are pinned on raw receives, then every data-capable ``start_*``
  family of ``test_buffer_lifetime.py`` runs with all messages eager and
  with all of them rendezvous.
* An undersized caller buffer fails in ``start_plan``, before a single
  message is posted, and the transport rejects a payload whose byte size
  differs from the posted size.
* A completion whose notify returns ``False`` (an NBC round with ops
  still in flight) skips re-evaluating the blocked wait.  That changes
  nothing a simulation can observe: finish times, event counts and the
  errors thrown into rank programs equal a run that always retries.
"""

import dataclasses
from collections import defaultdict

import numpy as np
import pytest

from repro import nbc
from repro.errors import (
    MatchingError,
    RankFailedError,
    ScheduleError,
    SimulationError,
)
from repro.nbc.request import NBCRequest
from repro.sim import (
    Compute,
    FaultPlan,
    Progress,
    RankCrash,
    SimWorld,
    Wait,
    get_platform,
)
from repro.sim.mpi import MPIContext
from repro.units import KiB, MiB

from .test_buffer_lifetime import CASES, M, P

SENTINEL = 0xAB


def _rendezvous_only(platform):
    """``platform`` with every non-empty message taking rendezvous."""
    params = platform.params
    params = dataclasses.replace(
        params,
        inter=dataclasses.replace(params.inter, eager_threshold=0),
        intra=dataclasses.replace(params.intra, eager_threshold=0),
    )
    return dataclasses.replace(platform, params=params)


PLATFORMS = {
    "eager": get_platform("whale"),
    "rendezvous": _rendezvous_only(get_platform("whale")),
}


# ---------------------------------------------------------------------------
# the transport paths, on raw receives
# ---------------------------------------------------------------------------


def _pair(program, crashes=()):
    faults = FaultPlan(crashes=tuple(crashes)) if crashes else None
    world = SimWorld(get_platform("whale"), 2, faults=faults)
    world.launch(program)
    return world


def test_eager_expected_message_lands_at_delivery():
    payload = np.arange(8, dtype=np.float64)
    seen = {}

    def program(ctx):
        if ctx.rank == 0:
            yield Wait(ctx.isend(1, tag=1, data=payload))
        else:
            buf = np.full(payload.nbytes, SENTINEL, dtype=np.uint8)
            req = ctx.irecv(0, nbytes=payload.nbytes, tag=1, buf=buf)
            seen["pending"] = (req.done, bool((buf == SENTINEL).all()))
            yield Wait(req)
            seen["done"] = (buf.view(np.float64).copy(), req.data)

    _pair(program).run()
    assert seen["pending"] == (False, True)
    landed, data = seen["done"]
    np.testing.assert_array_equal(landed, payload)
    assert data is None  # the payload lives in the view, not on the request


def test_eager_late_match_lands_at_post():
    payload = np.arange(16, dtype=np.int32)
    seen = {}

    def program(ctx):
        if ctx.rank == 0:
            yield Wait(ctx.isend(1, tag=2, data=payload))
        else:
            yield Compute(1e-3)  # the message is parked unexpected by now
            # a typed 2-D destination takes the payload's bytes
            buf = np.full((4, 4), -1, dtype=np.int32)
            req = ctx.irecv(0, nbytes=payload.nbytes, tag=2, buf=buf)
            seen["at_post"] = (req.done, buf.reshape(-1).copy())
            yield Wait(req)

    _pair(program).run()
    done, landed = seen["at_post"]
    assert done
    np.testing.assert_array_equal(landed, payload)


@pytest.mark.parametrize("make", [bytearray, lambda n: memoryview(bytearray(n))],
                         ids=["bytearray", "memoryview"])
@pytest.mark.parametrize("platform", list(PLATFORMS))
def test_bytes_like_buffer_is_filled_in_place(make, platform):
    payload = bytes(range(48))
    buf = make(len(payload))

    def program(ctx):
        if ctx.rank == 0:
            yield Wait(ctx.isend(1, tag=6, data=payload))
        else:
            yield Wait(ctx.irecv(0, nbytes=len(payload), tag=6, buf=buf))

    world = SimWorld(PLATFORMS[platform], 2)
    world.launch(program)
    world.run()
    assert bytes(buf) == payload


def test_rendezvous_message_lands_only_at_delivery():
    payload = np.arange(64 * KiB, dtype=np.uint8) % 251
    seen = {"pending_polls": 0, "touched_early": False}

    def program(ctx):
        if ctx.rank == 0:
            yield Wait(ctx.isend(1, tag=3, data=payload))
        else:
            buf = np.full(payload.nbytes, SENTINEL, dtype=np.uint8)
            req = ctx.irecv(0, nbytes=payload.nbytes, tag=3, buf=buf)
            while not req.done:
                seen["pending_polls"] += 1
                if not (buf == SENTINEL).all():
                    seen["touched_early"] = True
                yield Compute(1e-6)
                yield Progress()
            seen["landed"] = buf.copy()

    _pair(program).run()
    assert seen["pending_polls"] > 1
    assert not seen["touched_early"]
    np.testing.assert_array_equal(seen["landed"], payload)


def test_receive_failed_by_a_crash_never_lands():
    """The sender dies while its rendezvous data is on the wire: the
    receive fails, the data still arrives, and the view stays as it was."""
    nbytes = 4 * MiB
    bufs = {}
    caught = []
    failed_deliveries = []

    def program(ctx):
        if ctx.rank == 0:
            yield Wait(ctx.isend(1, tag=4, data=np.ones(nbytes, np.uint8)))
        else:
            buf = bufs["recv"] = np.full(nbytes, SENTINEL, dtype=np.uint8)
            req = ctx.irecv(0, nbytes=nbytes, tag=4, buf=buf)
            try:
                yield Wait(req)
            except RankFailedError as exc:
                caught.append((exc, req.failed is not None))
            # stay alive past the data's arrival
            yield Compute(0.01)

    world = _pair(program, crashes=[RankCrash(0, 1e-3)])
    complete = world._complete

    def spy(st, req, t, data=None):
        if data is not None and req.failed is not None:
            failed_deliveries.append(t)
        complete(st, req, t, data)

    world._complete = spy
    world.run()
    assert len(caught) == 1 and caught[0][1]
    assert failed_deliveries and failed_deliveries[0] > 1e-3
    assert (bufs["recv"] == SENTINEL).all()


def test_transport_rejects_payload_size_mismatch():
    world = SimWorld(get_platform("whale"), 2)
    rejected = []
    clock = []

    def program(ctx):
        if ctx.rank == 0:
            for post in (
                lambda: ctx.isend(1, nbytes=16, tag=1, data=np.zeros(8, np.uint8)),
                lambda: ctx.irecv(1, nbytes=16, tag=1, buf=np.zeros(8, np.uint8)),
                lambda: ctx.irecv(1, nbytes=16, tag=1,
                                  buf=np.zeros((4, 4), np.uint8)[:, :2]),
                # bytes-like buffers: read-only, mis-sized, non-contiguous
                lambda: ctx.irecv(1, nbytes=16, tag=1, buf=bytes(16)),
                lambda: ctx.irecv(1, nbytes=16, tag=1, buf=bytearray(8)),
                lambda: ctx.irecv(1, nbytes=16, tag=1,
                                  buf=memoryview(bytearray(32))[::2]),
            ):
                with pytest.raises(SimulationError):
                    post()
                rejected.append(post)
            # nothing was posted: no CPU time was charged for it
            clock.append(ctx.now)
        yield Compute(0.0)

    world.launch(program)
    world.run()
    assert len(rejected) == 6 and clock == [0.0]
    assert not world.context(0)._st.open


def test_payload_larger_than_its_receive_view_is_a_matching_error():
    def program(ctx):
        if ctx.rank == 0:
            yield Wait(ctx.isend(1, tag=5, data=np.zeros(16, np.uint8)))
        else:
            buf = np.zeros(8, np.uint8)
            yield Wait(ctx.irecv(0, nbytes=8, tag=5, buf=buf))

    with pytest.raises(MatchingError, match="16-byte payload"):
        _pair(program).run()


# ---------------------------------------------------------------------------
# every data-capable collective family
# ---------------------------------------------------------------------------


def _as_bytes(arr):
    return np.ascontiguousarray(arr).reshape(-1).view(np.uint8).copy()


@pytest.mark.parametrize("protocol", sorted(PLATFORMS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_collective_receives_land_at_completion(monkeypatch, case, protocol):
    """Instrument every post: each receive view must hold the matching
    send's payload when its completion is reported, and every receive
    still pending at any post or completion must be untouched."""
    post, _ = CASES[case]
    isend, irecv = MPIContext.isend, MPIContext.irecv
    sent = defaultdict(list)   # (src, dst, tag, comm) -> payloads in order
    pending = []               # [request or None while posting, view, snapshot]
    landed = []
    problems = []

    def check_pending():
        for req, view, snapshot in pending:
            if req is not None and not req.done and req.failed is None:
                if not np.array_equal(view, snapshot):
                    problems.append(f"view of pending {req!r} changed")

    def spy_isend(self, dest, nbytes=None, tag=0, comm=None, data=None,
                  notify=None):
        check_pending()
        comm = comm or self.comm_world
        key = (self.rank, comm.ranks[dest], tag, comm.comm_id)
        sent[key].append(None if data is None else _as_bytes(data))
        return isend(self, dest, nbytes, tag, comm, data, notify)

    def spy_irecv(self, source, nbytes=0, tag=0, comm=None, buf=None,
                  notify=None):
        check_pending()
        comm = comm or self.comm_world
        key = (comm.ranks[source], self.rank, tag, comm.comm_id)
        entry = [None, buf, None if buf is None else buf.copy()]

        def on_complete(req, t):
            check_pending()
            payload = sent[key].pop(0)
            if buf is not None:
                expect = entry[2] if payload is None else payload
                if not np.array_equal(buf, expect):
                    problems.append(f"{req!r} did not land its payload")
                landed.append(req)
            return notify(req, t)

        if buf is not None:
            pending.append(entry)
        entry[0] = irecv(self, source, nbytes, tag, comm, buf, on_complete)
        return entry[0]

    monkeypatch.setattr(MPIContext, "isend", spy_isend)
    monkeypatch.setattr(MPIContext, "irecv", spy_irecv)
    world = SimWorld(PLATFORMS[protocol], P)

    def body(ctx):
        yield Wait(post(ctx))

    world.launch(body)
    world.run()
    assert not problems, problems[:5]
    assert landed, "no receive carried a destination view"
    assert all(req.done for req, _view, _snap in pending)


# ---------------------------------------------------------------------------
# fail fast on bad payloads
# ---------------------------------------------------------------------------


def _count_posts(monkeypatch):
    posts = []
    isend, irecv = MPIContext.isend, MPIContext.irecv

    def counting_isend(self, *args, **kwargs):
        posts.append("send")
        return isend(self, *args, **kwargs)

    def counting_irecv(self, *args, **kwargs):
        posts.append("recv")
        return irecv(self, *args, **kwargs)

    monkeypatch.setattr(MPIContext, "isend", counting_isend)
    monkeypatch.setattr(MPIContext, "irecv", counting_irecv)
    return posts


@pytest.mark.parametrize("short", ["send", "recv"])
def test_undersized_buffer_fails_before_any_post(monkeypatch, short):
    """Rank 0's linear all-to-all round posts its receives, then its
    sends; a buffer one byte short of the last block must fail in the
    bind step, not after the earlier ops of the round went out."""
    posts = _count_posts(monkeypatch)
    world = SimWorld(get_platform("whale"), P)
    comm = world.comm_world
    caught = []

    def body(ctx):
        if ctx.rank == 0:
            sizes = {"send": P * M, "recv": P * M}
            sizes[short] -= 1
            with pytest.raises(ScheduleError, match="too small") as ei:
                nbc.start_ialltoall(
                    ctx, M, algorithm="linear",
                    sendbuf=np.zeros(sizes["send"], dtype=np.uint8),
                    recvbuf=np.zeros(sizes["recv"], dtype=np.uint8))
            caught.append(str(ei.value))
        yield Compute(0.0)

    world.launch(body)
    world.run()
    assert caught and f"{short!r}" in caught[0]
    assert posts == []
    # no collective tags were reserved either: the ranks stay in step
    assert comm.next_coll_tag(0) == comm.next_coll_tag(1)


def test_missing_user_buffer_fails_before_any_post(monkeypatch):
    posts = _count_posts(monkeypatch)
    world = SimWorld(get_platform("whale"), P)

    def body(ctx):
        if ctx.rank == 0:
            plan, peers = nbc.compiled_ialltoall(P, 0, M, "linear")
            with pytest.raises(ScheduleError, match="not passed"):
                nbc.start_plan(ctx, ctx.comm_world, 0, plan, peers,
                               send=np.zeros(P * M, dtype=np.uint8))
        yield Compute(0.0)

    world.launch(body)
    world.run()
    assert posts == []


# ---------------------------------------------------------------------------
# skipping the no-op wait retry changes nothing
# ---------------------------------------------------------------------------


def _always_retry(self, req, t):
    """``NBCRequest._child_done`` without the skip signal."""
    self._pending -= 1


def _wait_scenario(crash_at):
    """Every rank blocks on an all-to-all, a broadcast and a raw receive
    from its left neighbour, whose completions interleave; optionally
    rank 3 dies mid-wait and every survivor catches the failure."""
    faults = FaultPlan(crashes=(RankCrash(3, crash_at),)) if crash_at else None
    world = SimWorld(get_platform("whale"), P, faults=faults,
                     placement="cyclic")
    caught = {}

    def body(ctx):
        a = nbc.start_ialltoall(ctx, 24 * KiB, algorithm="pairwise",
                                sendbuf=np.full(P * 24 * KiB, ctx.rank, np.uint8),
                                recvbuf=np.zeros(P * 24 * KiB, np.uint8))
        b = nbc.start_ibcast(ctx, 40 * KiB, root=1, segsize=8 * KiB,
                             buf=np.full(40 * KiB, ctx.rank, np.uint8))
        left, right = (ctx.rank - 1) % P, (ctx.rank + 1) % P
        r = ctx.irecv(left, nbytes=2 * KiB, tag=77)
        # staggered raw sends: their completions fall between the
        # collectives' rounds
        yield Compute(1e-5 * (ctx.rank + 1))
        s = ctx.isend(right, nbytes=2 * KiB, tag=77)
        try:
            yield Wait([a, b, r, s])
        except RankFailedError as exc:
            caught[ctx.rank] = (type(exc).__name__, str(exc), ctx.now.hex())

    world.launch(body)
    res = world.run()
    return {
        "finish": [t.hex() for t in res.finish_times],
        "events": res.events,
        "caught": caught,
    }


@pytest.mark.parametrize("crash_at", [None, 6e-5])
def test_skipped_wait_retries_change_nothing(monkeypatch, crash_at):
    polls = []
    progress = NBCRequest.progress

    def counting_progress(self, ctx):
        polls[-1] += 1
        return progress(self, ctx)

    monkeypatch.setattr(NBCRequest, "progress", counting_progress)
    polls.append(0)
    lean = _wait_scenario(crash_at)
    with monkeypatch.context() as m:
        m.setattr(NBCRequest, "_child_done", _always_retry)
        polls.append(0)
        eager = _wait_scenario(crash_at)
    assert lean == eager
    if crash_at:
        # the crash really hit ranks blocked in the wait
        assert len(lean["caught"]) == P - 1
    # the skipped retries were real: fewer NBC polls for the same run
    assert polls[0] < polls[1]
