"""A collective's scratch is exactly what its plan references, and a
finished collective releases its buffer dict and scratch arrays.

``nbc.coll.start_plan`` hands the request a buffer dict holding flat
views of the caller's arrays plus the scratch the plan's ops reference
(Bruck's ``tmp``/``so``/``si``, the hierarchical leaders' staging
areas, the reductions' ``acc``/``in``), each sized to the largest byte
range any op reaches in it.  The request must drop that dict when its
last round completes, so the scratch dies while the caller still holds
the handle — ADCL keeps handles in lists and rank programs keep them in
frames long after the data moved.
"""

import weakref

import numpy as np
import pytest

from repro import nbc
from repro.adcl.fnsets import scatter_allgather_function
from repro.adcl.function import CollSpec
from repro.nbc.schedule import USER_BUFFERS
from repro.sim import SimWorld, Wait, get_platform

P = 4
M = 16                     # bytes per block (two float64)
GROUPS = ((0, 1), (2, 3))  # two leaders, so the hierarchical paths stage
COUNTS = (8, 16, 8, 24)


def _alltoall(algorithm, groups=None):
    def post(ctx):
        return nbc.start_ialltoall(
            ctx, M, algorithm=algorithm, groups=groups,
            sendbuf=np.full(P * M, ctx.rank, dtype=np.uint8),
            recvbuf=np.zeros(P * M, dtype=np.uint8))
    return post


def _ibcast(fanout, groups=None):
    def post(ctx):
        return nbc.start_ibcast(ctx, 1000, root=0, fanout=fanout, segsize=256,
                                groups=groups,
                                buf=np.full(1000, ctx.rank, dtype=np.uint8))
    return post


def _iallgather(ctx):
    return nbc.start_iallgather(ctx, M, sendbuf=np.full(M, ctx.rank, np.uint8),
                                recvbuf=np.zeros(P * M, dtype=np.uint8))


def _iallgatherv(ctx):
    return nbc.start_iallgatherv(
        ctx, COUNTS, sendbuf=np.full(COUNTS[ctx.rank], ctx.rank, np.uint8),
        recvbuf=np.zeros(sum(COUNTS), dtype=np.uint8))


def _ireduce(ctx):
    return nbc.start_ireduce(ctx, M, buf=np.full(M // 8, float(ctx.rank)))


def _ireduce_scatter(ctx):
    return nbc.start_ireduce_scatter(
        ctx, M, sendbuf=np.full(P * M // 8, float(ctx.rank)),
        recvbuf=np.zeros(M // 8))


def _iallreduce(ctx):
    return nbc.start_iallreduce(ctx, M, buf=np.full(M // 8, float(ctx.rank)))


def _mockup(ctx):
    spec = CollSpec("bcast", ctx.comm_world, 1000)
    return scatter_allgather_function().make(
        ctx, spec, {"data": np.full(1000, ctx.rank, dtype=np.uint8)})


def _referenced_extents(plan) -> dict[str, int]:
    """Non-user buffer name -> largest end offset any op of ``plan``
    reaches in it, read straight off the ops."""
    out: dict[str, int] = {}
    for rnd in plan.rounds:
        for op in rnd:
            for spec in (getattr(op, "src", None), getattr(op, "dst", None)):
                if spec is not None and spec[0] not in USER_BUFFERS:
                    name, offset, nbytes = spec
                    out[name] = max(out.get(name, 0), offset + nbytes)
    return out


#: name -> (post, whether the algorithm allocates scratch on some rank)
CASES = {
    "alltoall-linear": (_alltoall("linear"), False),
    "alltoall-pairwise": (_alltoall("pairwise"), False),
    "alltoall-bruck": (_alltoall("bruck"), True),
    "alltoall-hier": (_alltoall("hier", GROUPS), True),
    "ibcast-binomial": (_ibcast(nbc.BINOMIAL), False),
    "ibcast-hier": (_ibcast("hier", GROUPS), False),
    "iallgather": (_iallgather, False),
    "iallgatherv": (_iallgatherv, False),
    "ireduce": (_ireduce, True),
    "ireduce_scatter": (_ireduce_scatter, True),
    "iallreduce": (_iallreduce, True),
    "ibcast-scatter+allgather": (_mockup, False),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_completed_request_releases_buffers(case):
    post, allocates = CASES[case]
    world = SimWorld(get_platform("whale"), P)
    requests = {}
    scratch = {}
    sizes = {}

    def body(ctx):
        req = post(ctx)
        requests[ctx.rank] = req
        held = {name: arr for name, arr in (req.buffers or {}).items()
                if name not in USER_BUFFERS}
        scratch[ctx.rank] = [weakref.ref(arr) for arr in held.values()]
        if req.buffers is not None:
            sizes[ctx.rank] = {name: arr.nbytes for name, arr in held.items()}
        yield Wait(req)

    world.launch(body)
    world.run()

    assert any(scratch.values()) == allocates
    assert sizes, "no request was still in flight after start"
    for rank, held in sizes.items():
        # every referenced scratch name is present, none is extra, and
        # each is exactly as large as the ops reach
        assert held == _referenced_extents(requests[rank].schedule), \
            f"rank {rank}"
    for rank, req in requests.items():
        assert req.done
        assert req.buffers is None, f"rank {rank} still holds its buffers"
        alive = [ref for ref in scratch[rank] if ref() is not None]
        assert not alive, f"rank {rank}: {len(alive)} scratch arrays alive"


def test_empty_schedule_releases_buffers_at_start():
    """A zero-round schedule completes inside ``start``."""
    world = SimWorld(get_platform("whale"), 1)
    requests = []

    def body(ctx):
        req = nbc.start_ibcast(ctx, 64, buf=np.zeros(64, dtype=np.uint8))
        requests.append(req)
        yield Wait(req)

    world.launch(body)
    world.run()
    (req,) = requests
    assert not req.schedule.rounds
    assert req.done and req.buffers is None
