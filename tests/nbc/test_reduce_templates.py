"""Role templates for the rooted reductions.

A binomial or chain reduce is the broadcast tree walked from the leaves
up, and the tree all-reduces (``reduce_bcast``, ``hier``) reduce up and
broadcast down one tree.  Each compiles one template per tree role and
binds each rank's ``(parent, *children)``.

The expected digests equal the per-rank plans these templates
replaced (with ops on empty blocks dropped, as every plan drops them),
recorded with :func:`~.conftest.concrete`: for every rank,
the plan's name, tag span, scratch and user extents and, per op, its
kind, peer rank, size, tag offset, byte ranges and reduction.  The
payload digests hold every rank's result bytes and completion time
(``float.hex``) in a run on whale.
"""

import tracemalloc

import numpy as np
import pytest

from repro.nbc import (
    as_partition,
    build_iallreduce,
    build_ireduce,
    compiled_iallreduce,
    compiled_ireduce,
    compiled_ireduce_scatter,
    start_iallreduce,
    start_ireduce,
    start_ireduce_scatter,
)
from repro.nbc.schedule import SCHEDULE_CACHE, identity_peers
from repro.sim import SimWorld, Wait, get_platform

from .conftest import bound_rounds, concrete, digest

SIZES = (1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 32, 33)
NBYTES = (0, 8, 196616)
SEGSIZES = (0, 65536)
DTYPE_OPS = (("float64", "sum"), ("int32", "max"))

#: uneven groups, non-power-of-two group counts, a singleton group,
#: interleaved members, and eight even nodes of four
PARTITIONS = (
    ((0, 1, 2, 3), (4, 5), (6,)),
    ((0, 1, 2), (3, 4, 5, 6, 7), (8, 9), (10,), (11, 12)),
    ((0,), (1, 2, 3, 4, 5, 6, 7, 8)),
    ((0, 2, 4), (1, 3), (5, 6, 7, 8), (9,)),
    tuple(tuple(range(n, n + 4)) for n in range(0, 32, 4)),
)

#: BlueGene/P: 4 cores per node, 1024 ranks in block placement
BGP_1024 = tuple(tuple(range(n, n + 4)) for n in range(0, 1024, 4))

#: algorithm -> size -> digest of every rank's plan over ROOTS x NBYTES
#: x SEGSIZES x DTYPE_OPS
REDUCE_DIGESTS = {
    "binomial": {
        1: "a7f3662559584596", 2: "7ed482901b5b4b2f", 3: "c9df6d2e5f4f44f2",
        4: "837215223e4cb1b8", 5: "a7c485488730e23c", 6: "88a2eaa92589bcc0",
        7: "92eede540925dff3", 8: "bbdf1de3728ef110", 9: "0b2d962995f3949c",
        16: "b31199137a989e27", 32: "ca0e87eb8851e442", 33: "53ee3ca7718547eb",
    },
    "chain": {
        1: "33c46761e4c55270", 2: "36b7bbd0a43430f5", 3: "fbf44cec283d080d",
        4: "137d3283784972b6", 5: "524b026cb83173a4", 6: "c1507cc97bfb0215",
        7: "11339d1340ab008c", 8: "997795514a534ff9", 9: "c38b9bacf698598c",
        16: "5f8e1edef86a7c32", 32: "ede2bcec26dba0cd", 33: "cca1b86891efcfe6",
    },
}

#: size -> digest of every rank's reduce_bcast plan over NBYTES x DTYPE_OPS
REDUCE_BCAST_DIGESTS = {
    1: "1467c696dbf7cdd7", 2: "16c8e9dd57d7f882", 3: "204777f9a0ee3691",
    4: "e10f6ef1914710ae", 5: "352cc85d505c536e", 6: "6e3d210c3fc2b340",
    7: "11c388ff966188f6", 8: "8f00f51d12977d53", 9: "5ec116b9e6dddd0b",
    16: "4c02759a59fa23f3", 32: "b8944d4091747614", 33: "c54232f0de25d770",
}

#: PARTITIONS index -> digest of every rank's hier all-reduce plan
HIER_DIGESTS = ("2c8ade31ceb97390", "7f23a9aa347fd715", "b0af32245cae1cd2",
                "655d03b27b669e76", "20dd8d32b4a0540f")

#: size -> digest of every rank's reduce_then_scatter plan over
#: m in (0, 8, 24) x DTYPE_OPS
REDUCE_THEN_SCATTER_DIGESTS = {
    1: "1436ec2259483b7d", 2: "0265530974cf3410", 3: "815e788a478e3286",
    4: "b855e29b7524e775", 5: "180b48308d4928d0", 6: "7b31471a47d2fb28",
    7: "5852a604cd490483", 8: "96151d4ce5d01553", 9: "9bf30a9109f74e6c",
    16: "2471077760a89057", 32: "37ca15ea4bd1d242", 33: "00a831848168eded",
}

#: payload runs: (operation, algorithm, segsize, size, root) -> digest
PAYLOAD_DIGESTS = {
    ("reduce", "binomial", 0, 5, 0): "693bc7107c8bd1e4",
    ("reduce", "binomial", 0, 5, 2): "87913730f8d2694a",
    ("reduce", "binomial", 0, 7, 0): "6c6cae436fd67f57",
    ("reduce", "binomial", 0, 7, 3): "db02c8e064a92abf",
    ("reduce", "binomial", 0, 8, 0): "29d2ba8ce7f88d9f",
    ("reduce", "binomial", 0, 8, 4): "c469f8bfc39e0d04",
    ("reduce", "chain", 0, 5, 0): "3fc3a1941979345b",
    ("reduce", "chain", 0, 5, 2): "cd1ed58dfb62a870",
    ("reduce", "chain", 0, 7, 0): "60f68f4ea4cc1743",
    ("reduce", "chain", 0, 7, 3): "433307ececdbae93",
    ("reduce", "chain", 0, 8, 0): "c759199204398469",
    ("reduce", "chain", 0, 8, 4): "5365517e6d1cf1f5",
    ("reduce", "chain", 64, 5, 0): "0ca5d320f99f3857",
    ("reduce", "chain", 64, 5, 2): "5b79e136bc43f3d1",
    ("reduce", "chain", 64, 7, 0): "95dacb334c53e376",
    ("reduce", "chain", 64, 7, 3): "4139a8faace5ed8a",
    ("reduce", "chain", 64, 8, 0): "b889d2391fe7dd97",
    ("reduce", "chain", 64, 8, 4): "bce06335dffc1662",
    ("allreduce", "reduce_bcast", 0, 5, 0): "5ee746508d594696",
    ("allreduce", "reduce_bcast", 0, 7, 0): "ca9f28fa53ecb046",
    ("allreduce", "reduce_bcast", 0, 8, 0): "9b5589239ccfd28a",
    ("allreduce", "ring", 0, 5, 0): "745081cfa9d81614",
    ("allreduce", "ring", 0, 7, 0): "293534f78890ce5c",
    ("allreduce", "ring", 0, 8, 0): "0bf7e26455c08f1d",
    ("allreduce", "hier", 0, 5, 0): "f0111babe17527a3",
    ("allreduce", "hier", 0, 7, 0): "fcc930f60f118f2e",
    ("allreduce", "hier", 0, 8, 0): "523539a13e0674cf",
    ("reduce_scatter", "reduce_then_scatter", 0, 5, 0): "f5bfd979211bbc71",
    ("reduce_scatter", "reduce_then_scatter", 0, 7, 0): "581ce54ee10ce229",
    ("reduce_scatter", "reduce_then_scatter", 0, 8, 0): "634820830714a51b",
}

#: uneven node partitions of the hier all-reduce payload runs
PAYLOAD_GROUPS = {5: ((0, 1, 2), (3, 4)), 7: ((0,), (1, 2, 3), (4, 5, 6)),
                  8: ((0, 1, 2, 3), (4, 5, 6, 7))}


@pytest.fixture
def cache():
    SCHEDULE_CACHE.clear()
    SCHEDULE_CACHE.reset_stats()
    yield SCHEDULE_CACHE
    SCHEDULE_CACHE.clear()
    SCHEDULE_CACHE.reset_stats()


def _roots(size):
    return sorted({0, size // 2, size - 1})


@pytest.mark.parametrize("algorithm", sorted(REDUCE_DIGESTS))
def test_bound_reduce_template_equals_the_per_rank_plan(cache, algorithm):
    got = {}
    for size in SIZES:
        rows = []
        for root in _roots(size):
            for nbytes in NBYTES:
                for segsize in SEGSIZES:
                    if (algorithm == "chain" and nbytes == segsize == 0
                            and size > 1):
                        continue  # no per-rank plan: see the 0-byte test
                    for dtype, op in DTYPE_OPS:
                        rows.append([concrete(*compiled_ireduce(
                            size, rank, root, nbytes, algorithm, dtype=dtype,
                            op=op, segsize=segsize)) for rank in range(size)])
        got[size] = digest(rows)
    assert got == REDUCE_DIGESTS[algorithm]


def test_bound_reduce_bcast_template_equals_the_per_rank_plan(cache):
    got = {size: digest([[concrete(*compiled_iallreduce(
                              size, rank, nbytes, "reduce_bcast",
                              dtype=dtype, op=op))
                          for rank in range(size)]
                         for nbytes in NBYTES for dtype, op in DTYPE_OPS])
           for size in SIZES}
    assert got == REDUCE_BCAST_DIGESTS


@pytest.mark.parametrize("index", range(len(PARTITIONS)))
def test_bound_hier_allreduce_template_equals_the_per_rank_plan(cache, index):
    groups = PARTITIONS[index]
    size = sum(map(len, groups))
    got = digest([[concrete(*compiled_iallreduce(size, rank, nbytes, "hier",
                                                 dtype=dtype, op=op,
                                                 groups=groups))
                   for rank in range(size)]
                  for nbytes in NBYTES for dtype, op in DTYPE_OPS])
    assert got == HIER_DIGESTS[index]


def test_reduce_then_scatter_posts_the_per_rank_plan(cache):
    got = {size: digest([[concrete(*compiled_ireduce_scatter(
                              size, rank, m, "reduce_then_scatter",
                              dtype=dtype, op=op))
                          for rank in range(size)]
                         for m in (0, 8, 24) for dtype, op in DTYPE_OPS])
           for size in SIZES}
    assert got == REDUCE_THEN_SCATTER_DIGESTS


@pytest.mark.parametrize("algorithm", ("binomial", "chain"))
def test_bound_reduce_template_equals_build_ireduce(cache, algorithm):
    for size in (1, 6, 13):
        for root in range(size):
            for rank in range(size):
                plan, peers = compiled_ireduce(size, rank, root, 5000,
                                               algorithm, segsize=1024)
                built = build_ireduce(size, rank, root, 5000, algorithm,
                                      segsize=1024)
                assert plan.tag_span == built.tag_span
                assert (bound_rounds(plan, peers)
                        == bound_rounds(built, identity_peers(size)))


@pytest.mark.parametrize("algorithm", ("reduce_bcast", "hier"))
def test_bound_allreduce_template_equals_build_iallreduce(cache, algorithm):
    groups = PARTITIONS[1]
    size = sum(map(len, groups))
    for rank in range(size):
        plan, peers = compiled_iallreduce(size, rank, 64, algorithm,
                                          groups=groups)
        built = build_iallreduce(size, rank, 64, algorithm, groups=groups)
        assert (bound_rounds(plan, peers)
                == bound_rounds(built, identity_peers(size)))


def test_reduce_role_key_holds_the_upward_step(cache):
    # at P=6 ranks 2 and 4 both have a parent and one child, but send
    # up on binomial steps 1 and 2
    two, _ = compiled_ireduce(6, 2, 0, 8, "binomial")
    four, _ = compiled_ireduce(6, 4, 0, 8, "binomial")
    assert two is not four
    assert [op.tagoff for rnd in two.rounds for op in rnd
            if op.kind == "send"] == [1]
    assert [op.tagoff for rnd in four.rounds for op in rnd
            if op.kind == "send"] == [2]


def _start(ctx, operation, algorithm, segsize, size, root):
    """Post one payload collective; returns (request, result buffer)."""
    if operation == "reduce_scatter":
        recv = np.zeros(3, np.float64)
        data = np.arange(size * 3, dtype=np.float64) + 100.0 * ctx.rank
        return start_ireduce_scatter(ctx, 24, algorithm, sendbuf=data,
                                     recvbuf=recv), recv
    buf = np.arange(40, dtype=np.float64) * (ctx.rank + 1) + ctx.rank
    if operation == "reduce":
        req = start_ireduce(ctx, buf.nbytes, root=root, algorithm=algorithm,
                            buf=buf, segsize=segsize)
    else:
        groups = PAYLOAD_GROUPS[size] if algorithm == "hier" else None
        req = start_iallreduce(ctx, buf.nbytes, algorithm=algorithm, buf=buf,
                               groups=groups)
    return req, buf


@pytest.mark.parametrize("case", sorted(PAYLOAD_DIGESTS),
                         ids=lambda c: "/".join(map(str, c)))
def test_payload_runs_land_the_same_bytes(case):
    size = case[3]
    world = SimWorld(get_platform("whale"), size)
    out = {}

    def body(ctx):
        req, result = _start(ctx, *case)
        yield Wait(req)
        out[ctx.rank] = (result.tobytes().hex(), req.complete_time.hex())

    world.launch(body)
    world.run()
    assert digest([out[rank] for rank in range(size)]) == PAYLOAD_DIGESTS[case]


@pytest.mark.parametrize("algorithm", ("binomial", "chain"))
def test_zero_byte_unsegmented_reduce_completes(cache, algorithm):
    # chain with segsize 0 once divided the payload by a zero segment
    for size in (1, 2, 4, 7):
        for rank in range(size):
            plan, peers = compiled_ireduce(size, rank, 0, 0, algorithm)
            assert plan.tag_span == (max(1, (size - 1).bit_length())
                                     if algorithm == "binomial" else 1)
            assert (bound_rounds(plan, peers)
                    == bound_rounds(build_ireduce(size, rank, 0, 0, algorithm),
                                    identity_peers(size)))
        world = SimWorld(get_platform("whale"), size)
        done = []

        def body(ctx):
            buf = np.zeros(0)
            yield Wait(start_ireduce(ctx, 0, algorithm=algorithm, buf=buf,
                                     segsize=0))
            yield Wait(start_ireduce(ctx, 0, algorithm=algorithm, segsize=0))
            done.append(ctx.rank)

        world.launch(body)
        world.run()
        assert sorted(done) == list(range(size))


def _p1024_lookups(kind, algorithm, segsize, part):
    for rank in range(1024):
        if kind == "reduce":
            compiled_ireduce(1024, rank, 0, 1 << 20, algorithm,
                             segsize=segsize)
        else:
            compiled_iallreduce(1024, rank, 1 << 20, algorithm, groups=part)


#: (kind, algorithm, segsize) -> most plans at P=1024 on BlueGene/P
P1024_PLANS = {
    ("reduce", "binomial", 0): 11,
    ("reduce", "binomial", 64 * 1024): 11,
    ("reduce", "chain", 0): 3,
    ("reduce", "chain", 64 * 1024): 3,
    ("allreduce", "reduce_bcast", 0): 11,
    ("allreduce", "hier", 0): 10,
}


def test_rooted_reductions_at_p1024_hold_one_plan_per_role(cache):
    part = as_partition(BGP_1024)
    for candidate, most in P1024_PLANS.items():
        cache.clear()
        _p1024_lookups(*candidate, part)
        assert len(cache) <= most, candidate
    cache.clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for candidate in P1024_PLANS:
            _p1024_lookups(*candidate, part)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert cache.families() == {"allreduce": 11, "hier-allreduce": 10,
                                "reduce": 28}
    assert held < 1024 * 1024
