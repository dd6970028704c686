"""Rotation templates: one plan per algorithm, bound per rank.

Linear, pairwise and Bruck all-to-all, ring and linear all-gather,
pairwise reduce-scatter and the dissemination barrier name every peer,
and every buffer block chosen by peer, by a rank offset.  Each compiles
one template (rank 0's plan) and binds ``rotation_peers(P, rank)``.

The expected digests were recorded from the per-rank builders these
templates replaced, with the serialization below: for every rank, the
plan's name, tag span, scratch and user extents and, per op, its kind,
peer rank, size, tag offset, reduction and the absolute byte range of
each buffer spec.  The payload digests hold every rank's received bytes
and completion time (``float.hex``).  A noisy :class:`NoiseModel` must
draw the values it drew when every model built a ``Generator``.
"""

import tracemalloc

import numpy as np
import pytest

from repro.bench import OverlapConfig, run_overlap
from repro.nbc import (
    compiled_iallgather,
    compiled_ialltoall,
    compiled_ireduce_scatter,
    start_iallgather,
    start_ialltoall,
    start_ibarrier,
    start_ireduce_scatter,
)
from repro.nbc.coll import _barrier_schedule
from repro.nbc.schedule import SCHEDULE_CACHE, rotation_peers, xor_peers
from repro.sim import SimWorld, Wait, get_platform
from repro.sim.noise import NoiseModel, NullNoise

from .conftest import alltoall_sendbuf, concrete, digest

SIZES = (1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 32)
#: bytes per block: three float64 elements, so reductions stay aligned
M = 24

#: (family, algorithm) -> size -> digest of every rank's bound plan
PLAN_DIGESTS = {
    ("alltoall", "linear"): {
        1: "a3a71791fd146e72", 2: "42f250e60d1b43fd", 3: "be8e90a5aa943490",
        4: "21fff10c6e77dd64", 5: "156606eedc9b2e19", 6: "8f2b7091ef62d988",
        7: "30fac7ce43c3ea56", 8: "b99cc66931e46715", 9: "67e5ebdc38ac7b36",
        16: "fd92de207ab32dc4", 32: "922ea8f0f550dc19",
    },
    ("alltoall", "pairwise"): {
        1: "b0a8dd463f17df29", 2: "38d15b6fb9d860fa", 3: "195269cdfade6319",
        4: "45d1d531f2feeeeb", 5: "a851ff473d2b3023", 6: "1034b6162b687001",
        7: "632e5eb8689d7108", 8: "7a30870f35e3bcd4", 9: "eead105a15372a29",
        16: "2f84357067297369", 32: "a89ac8fcbf0cd95b",
    },
    ("alltoall", "bruck"): {
        1: "32f2a12fd9830127", 2: "572d01b3639e76b1", 3: "8b46a689ebe70a22",
        4: "a78f6eaf25511632", 5: "175b3b7925aea76b", 6: "5e113bdbae9a3b7f",
        7: "73f95f172dd0271b", 8: "bbff262c86206c6f", 9: "596e7345a195c66c",
        16: "f4eabff1ae73355f", 32: "0686d51d241bcee5",
    },
    ("allgather", "ring"): {
        1: "9a52f19c04dca3c9", 2: "9277e297f1d8f37c", 3: "471961138bb1ee81",
        4: "47dc3da836ab5b47", 5: "51b4b226c9a05893", 6: "9136a56fa2121646",
        7: "225dc3ceef8347fa", 8: "8a58ac5e91fa9752", 9: "e974c9436837d770",
        16: "7d4c3a76c5793555", 32: "bb098dba76761b26",
    },
    ("allgather", "linear"): {
        1: "1539a16754439fcf", 2: "1eb9097a71a3538c", 3: "c7f6f8f88fa49ffc",
        4: "efc2fba7aa2da054", 5: "e30ae9f453c1f733", 6: "775ea3c1c3ed4539",
        7: "db4cb6a459588125", 8: "5c2060c7b5970b87", 9: "d11e70f9b96321da",
        16: "cc7fb12b10164128", 32: "93c20410a9b1a169",
    },
    ("reduce_scatter", "pairwise"): {
        1: "1b001e47e1f211e0", 2: "ff48e541d79ea9cb", 3: "afa9ab738d316e3d",
        4: "a186c093694b843a", 5: "65b96173ec4c5fe4", 6: "ed8b271fc3903122",
        7: "3a8a91a20bc64c69", 8: "28c5d5f51149ce68", 9: "f91c5ec316279572",
        16: "00191cc4426c945d", 32: "0f70b9d987eecd4c",
    },
    ("barrier", "dissemination"): {
        1: "cc4f610e2637cb77", 2: "eb83f4a7fdd224a3", 3: "59be9e1cdf1fe381",
        4: "22c00502f6c7769d", 5: "145691bf26b07c7f", 6: "971d00c26a27e5e5",
        7: "1154596b8dc5f2c0", 8: "b4ed5dcf57b5646e", 9: "785b9a8e82abbd7e",
        16: "70032037e975441b", 32: "c3b7cdc3381cb794",
    },
}

#: (family, algorithm) -> size -> digest of every rank's received bytes
#: and completion time in a payload run on whale
PAYLOAD_DIGESTS = {
    ("alltoall", "linear"): {
        5: "48e746c304ddd72e", 7: "3a921b5452d8d33f", 8: "d25f26a4329a5a0c",
    },
    ("alltoall", "pairwise"): {
        5: "4a5cb5230a50f805", 7: "46e28fc5bf194c14", 8: "81dc3f43c235cadd",
    },
    ("alltoall", "bruck"): {
        5: "d7023fc025fc9242", 7: "3ceaf8d06f05c341", 8: "a14fc3e9860fe5c3",
    },
    ("allgather", "ring"): {
        5: "21c8974e774a2db1", 7: "83a947d6c712b10e", 8: "b22a840de2b36747",
    },
    ("allgather", "linear"): {
        5: "a8e8b6e354bed534", 7: "b754066df9905f07", 8: "d64efbdf74d301de",
    },
    ("reduce_scatter", "pairwise"): {
        5: "3495fe2e9f8d0287", 7: "8accdef6066c88f4", 8: "8b0ffe28c1c5847f",
    },
}

#: the first three ``perturb(1.0)`` values (``float.hex``) of streams
#: derived from ``NoiseModel(sigma=0.1, outlier_prob=0.05, seed=7)``
NOISE_DRAWS = {
    ("spawn", 0): (
        "0x1.2e0fa04cca62ap+0",
        "0x1.9cc5ff0892ef5p+2",
        "0x1.c23eb9cc7061ep-1",
    ),
    ("jitter_only", 0): (
        "0x1.cb450592f9475p-1",
        "0x1.f7b40c68fe942p-1",
        "0x1.04be363f4aadep+0",
    ),
    ("spawn", 1): (
        "0x1.9ea188b1cafc2p-1",
        "0x1.05bec35c47fb8p+0",
        "0x1.9a5c5990b1578p-1",
    ),
    ("jitter_only", 1): (
        "0x1.11e1f414e44fcp+0",
        "0x1.b8311d3185749p-1",
        "0x1.dd974a9dfc78ep-1",
    ),
    ("spawn", 5): (
        "0x1.4d9f50d1c4c9dp+2",
        "0x1.e37a51899c448p-1",
        "0x1.bd0378bf317a9p-1",
    ),
    ("jitter_only", 5): (
        "0x1.f6e095e19d556p-1",
        "0x1.02f453bf9fd84p+0",
        "0x1.409d054b44b47p+0",
    ),
}


def _barrier(size, rank):
    return _barrier_schedule(size).compile(), rotation_peers(size, rank)


#: (family, algorithm) -> (size, rank) -> (plan, peers)
BOUND = {
    ("alltoall", "linear"):
        lambda s, r: compiled_ialltoall(s, r, M, "linear"),
    ("alltoall", "pairwise"):
        lambda s, r: compiled_ialltoall(s, r, M, "pairwise"),
    ("alltoall", "bruck"):
        lambda s, r: compiled_ialltoall(s, r, M, "bruck"),
    ("allgather", "ring"):
        lambda s, r: compiled_iallgather(s, r, M, "ring"),
    ("allgather", "linear"):
        lambda s, r: compiled_iallgather(s, r, M, "linear"),
    ("reduce_scatter", "pairwise"):
        lambda s, r: compiled_ireduce_scatter(s, r, M, "pairwise"),
    ("barrier", "dissemination"): _barrier,
}


@pytest.fixture
def cache():
    SCHEDULE_CACHE.clear()
    SCHEDULE_CACHE.reset_stats()
    yield SCHEDULE_CACHE
    SCHEDULE_CACHE.clear()
    SCHEDULE_CACHE.reset_stats()


def _name(family) -> str:
    return "/".join(family)


@pytest.mark.parametrize("family", sorted(PLAN_DIGESTS), ids=_name)
def test_bound_template_equals_the_per_rank_plan(cache, family):
    bound = BOUND[family]
    got = {size: digest([concrete(*bound(size, rank))
                          for rank in range(size)])
           for size in SIZES}
    assert got == PLAN_DIGESTS[family]


@pytest.mark.parametrize("family", sorted(PAYLOAD_DIGESTS), ids=_name)
def test_one_template_serves_every_rank(cache, family):
    plans = [BOUND[family](9, rank)[0] for rank in range(9)]
    assert all(plan is plans[0] for plan in plans)
    assert len(cache) == 1


def test_barrier_runs_one_template(cache):
    world = SimWorld(get_platform("whale"), 9)

    def body(ctx):
        for _ in range(2):
            yield Wait(start_ibarrier(ctx))

    world.launch(body)
    world.run()
    assert cache.families() == {"barrier": 1}
    assert (cache.hits, cache.misses) == (17, 1)


def test_rotation_peers_are_shared_rotations():
    assert rotation_peers(5, 0) == (0, 1, 2, 3, 4)
    assert rotation_peers(5, 3) == (3, 4, 0, 1, 2)
    assert rotation_peers(5, 3) is rotation_peers(5, 3)
    assert rotation_peers(1, 0) == (0,)


def _start(ctx, family, algorithm, size):
    """Post one payload collective; returns (request, receive buffer)."""
    rank = ctx.rank
    if family == "alltoall":
        recv = np.zeros(size * M, np.uint8)
        req = start_ialltoall(ctx, M, algorithm,
                              sendbuf=alltoall_sendbuf(rank, size, M),
                              recvbuf=recv)
    elif family == "allgather":
        recv = np.zeros(size * M, np.uint8)
        req = start_iallgather(ctx, M, algorithm,
                               sendbuf=np.full(M, 7 * rank + 1, np.uint8),
                               recvbuf=recv)
    else:
        recv = np.zeros(M // 8, np.float64)
        data = np.arange(size * M // 8, dtype=np.float64) + 100.0 * rank
        req = start_ireduce_scatter(ctx, M, algorithm, sendbuf=data,
                                    recvbuf=recv)
    return req, recv


@pytest.mark.parametrize("family", sorted(PAYLOAD_DIGESTS), ids=_name)
@pytest.mark.parametrize("size", (5, 7, 8))
def test_payload_runs_land_the_same_bytes(family, size):
    world = SimWorld(get_platform("whale"), size)
    out = {}

    def body(ctx):
        req, recv = _start(ctx, *family, size)
        yield Wait(req)
        out[ctx.rank] = (recv.tobytes().hex(), req.complete_time.hex())

    world.launch(body)
    world.run()
    got = digest([out[rank] for rank in range(size)])
    assert got == PAYLOAD_DIGESTS[family][size]


@pytest.mark.parametrize(
    "nprocs, nbytes, iterations, nprogress, evals",
    [(32, 128 * 1024, 30, 5, 2),  # the a2a-tcp-p32 op
     (160, 1024, 4, 1, 1)],       # the shortest brute force that decides
    ids=["p32", "p160"])
def test_alltoall_brute_force_holds_one_plan_per_algorithm(
        cache, nprocs, nbytes, iterations, nprogress, evals):
    cfg = OverlapConfig(platform="whale_tcp", nprocs=nprocs,
                        operation="alltoall", nbytes=nbytes,
                        iterations=iterations, nprogress=nprogress)
    result = run_overlap(cfg, selector="brute_force",
                         evals_per_function=evals)
    assert result.winner is not None
    assert cache.families() == {"alltoall": 3}
    assert cache.misses == 3


def test_alltoall_templates_at_p160_hold_under_1mib(cache):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for algorithm in ("linear", "pairwise", "bruck"):
            for rank in range(160):
                compiled_ialltoall(160, rank, 128 * 1024, algorithm)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(cache) == 3
    assert held < 1024 * 1024


def test_deterministic_noise_holds_no_generator():
    quiet = NoiseModel(seed=3)
    for model in (NullNoise(), quiet, quiet.spawn(4), quiet.jitter_only(4),
                  NoiseModel(outlier_prob=0.5, seed=3).jitter_only(1)):
        assert model.deterministic
        assert not any(isinstance(v, np.random.Generator)
                       for v in vars(model).values())
        assert model.perturb(1.5) == 1.5
    noisy = NoiseModel(sigma=0.1, seed=3)
    assert isinstance(noisy._rng, np.random.Generator)


@pytest.mark.parametrize("stream", sorted(NOISE_DRAWS),
                         ids=lambda s: f"{s[0]}({s[1]})")
def test_noisy_streams_draw_as_before(stream):
    method, offset = stream
    base = NoiseModel(sigma=0.1, outlier_prob=0.05, seed=7)
    model = getattr(base, method)(offset)
    draws = tuple(model.perturb(1.0).hex() for _ in range(3))
    assert draws == NOISE_DRAWS[stream]


def test_recursive_doubling_holds_one_template_per_size(cache):
    for size in (16, 64):
        plans = {compiled_iallgather(size, rank, M, "recursive_doubling")[0]
                 for rank in range(size)}
        assert len(plans) == 1
    assert cache.families() == {"allgather": 2}
    assert xor_peers(8, 5) == (5, 4, 7, 1, 5, 2, 1, 4, 3, 0)
