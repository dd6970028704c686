"""Per-rank plans: every rank's bound plan, pinned by digest.

The algorithms here depend on the rank through more than a rotation or
a tree role (variable block sizes, a ring over ``counts``, a root that
scatters, a node partition), so each rank compiles its own plan bound
to :func:`~repro.nbc.schedule.identity_peers`; recursive doubling
(``rank XOR 2^k`` partners) is one template bound to
:func:`~repro.nbc.schedule.xor_peers`, and its digests are those of the
per-rank plans it replaced.  A refactor of the emitters that build
them must leave every digest below unchanged.

The digests were recorded with :func:`~.conftest.concrete`: for every
rank, the plan's name, tag span, scratch and user extents and, per op,
its kind, peer rank, size, tag offset, byte ranges and reduction.
"""

import pytest

from repro.nbc import (
    balanced_counts,
    compiled_iallgather,
    compiled_iallgatherv,
    compiled_iallreduce,
    compiled_ialltoall,
    compiled_ibcast,
    compiled_ireduce_scatter,
)
from repro.nbc.schedule import SCHEDULE_CACHE

from .conftest import concrete, digest

SIZES = (1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16)

#: uneven groups, non-power-of-two group counts, a singleton group,
#: interleaved members, and four even nodes of four
PARTITIONS = (
    ((0, 1, 2, 3), (4, 5), (6,)),
    ((0, 1, 2), (3, 4, 5, 6, 7), (8, 9), (10,), (11, 12)),
    ((0,), (1, 2, 3, 4, 5, 6, 7, 8)),
    ((0, 2, 4), (1, 3), (5, 6, 7, 8), (9,)),
    tuple(tuple(range(n, n + 4)) for n in range(0, 16, 4)),
)


def allgatherv_counts(size):
    """Count vectors for ``size`` ranks: balanced ones that divide
    evenly or not, all zero, and ones with zero blocks between
    non-empty ones (a ring round with nothing to move)."""
    return (
        balanced_counts(0, size),
        balanced_counts(5, size),
        balanced_counts(24 * size, size),
        balanced_counts(1001, size),
        tuple(8 * (i % 3) for i in range(size)),
        tuple(16 if i == size - 1 else 0 for i in range(size)),
    )


#: (nbytes, dtype, op) of the ring all-reduce: empty, one element,
#: sizes P does not divide, and int32 elements
ALLREDUCE_CASES = tuple(
    (nbytes, dtype, op)
    for dtype, op, sizes in (("float64", "sum", (0, 8, 24, 200, 4104)),
                             ("int32", "max", (0, 4, 12, 100, 1028)))
    for nbytes in sizes
)


def mockup_geometries(size):
    """Payload sizes of the scatter+allgather mock-up whose ceil split
    gives every rank a non-empty block."""
    for nbytes in (*range(1, 4 * size + 3), 1000, 65543):
        if nbytes > (size - 1) * -(-nbytes // size):
            yield nbytes


def _allgatherv(algorithm, size):
    return [[concrete(*compiled_iallgatherv(size, rank, counts, algorithm))
             for rank in range(size)] for counts in allgatherv_counts(size)]


def _allreduce_ring(size):
    return [[concrete(*compiled_iallreduce(size, rank, nbytes, "ring",
                                           dtype=dtype, op=op))
             for rank in range(size)] for nbytes, dtype, op in ALLREDUCE_CASES]


def _reduce_then_scatter(size):
    return [[concrete(*compiled_ireduce_scatter(
                 size, rank, m, "reduce_then_scatter", dtype=dtype, op=op))
             for rank in range(size)]
            for m in (0, 8, 24)
            for dtype, op in (("float64", "sum"), ("int32", "max"))]


def _mockup(size):
    return [[concrete(*compiled_ibcast(size, rank, root, nbytes,
                                       "scatter_allgather", 0))
             for rank in range(size)]
            for root in range(size) for nbytes in mockup_geometries(size)]


def _recursive_doubling(size):
    return [[concrete(*compiled_iallgather(size, rank, m,
                                           "recursive_doubling"))
             for rank in range(size)] for m in (0, 8, 24)]


#: (family, algorithm) -> size -> every rank's plan over that family's
#: parameter grid
PER_SIZE = {
    ("allgatherv", "linear"): lambda s: _allgatherv("linear", s),
    ("allgatherv", "ring"): lambda s: _allgatherv("ring", s),
    ("allreduce", "ring"): _allreduce_ring,
    ("reduce_scatter", "reduce_then_scatter"): _reduce_then_scatter,
    ("bcast", "scatter+allgather"): _mockup,
    ("allgather", "recursive_doubling"): _recursive_doubling,
}

#: the sizes each family compiles for (recursive doubling needs 2^k)
FAMILY_SIZES = {
    ("allgather", "recursive_doubling"): (1, 2, 4, 8, 16),
}


def _allgatherv_hier(groups):
    size = sum(map(len, groups))
    return [[concrete(*compiled_iallgatherv(size, rank, counts, "hier",
                                            groups))
             for rank in range(size)] for counts in allgatherv_counts(size)]


def _alltoall_hier(groups):
    size = sum(map(len, groups))
    return [[concrete(*compiled_ialltoall(size, rank, m, "hier",
                                          groups=groups))
             for rank in range(size)] for m in (0, 8, 24)]


#: (family, algorithm) -> partition -> every rank's plan
PER_PARTITION = {
    ("allgatherv", "hier"): _allgatherv_hier,
    ("alltoall", "hier"): _alltoall_hier,
}

#: (family, algorithm) -> size -> digest of every rank's plan
PLAN_DIGESTS = {
    ("allgather", "recursive_doubling"): {
        1: "6d93343f15a80d70", 2: "4db923e9c4810bb3", 4: "fd9c2d4207872b42",
        8: "ddb61d46b9095cea", 16: "b373e4bf75e669db",
    },
    ("allgatherv", "linear"): {
        1: "1f17147af80cdddc", 2: "635557e55ef8ebb5", 3: "751b29aae3281875",
        4: "0a6c328952f72628", 5: "22b2913fe64ee2f0", 6: "6e4f4a463e7e2eed",
        7: "3cb8ac4c39732224", 8: "47cf1bf421570fed", 9: "ccb4f31e1125ee09",
        12: "786f9e4a3a7b444e", 16: "79fd4a1cd158df38",
    },
    ("allgatherv", "ring"): {
        1: "0780f0728db023d5", 2: "54fc4bc427d55c72", 3: "6d8e0e87de1002d0",
        4: "d0d549a5ec251afa", 5: "b45b49d7c6c976e9", 6: "a511d923a21e8add",
        7: "91a29aa71f705d20", 8: "d902392c0eb4252a", 9: "29eda423df68d91e",
        12: "939ed9042129f7c6", 16: "0abc01caae874d41",
    },
    ("allreduce", "ring"): {
        1: "9d6ef7dd54006a85", 2: "960a5d5a0a2fc49f", 3: "8645149adfc18ded",
        4: "483322c5c7f60e1f", 5: "56f92c7667e8cbb5", 6: "89480b1975e05940",
        7: "fa5b3389c3a5804a", 8: "aa2a16e12ab8954e", 9: "c8af11714c9b1d1d",
        12: "5148a1a564df5a93", 16: "e664578c421a2922",
    },
    ("bcast", "scatter+allgather"): {
        1: "6445794a5af894cc", 2: "880d8f37893f785a", 3: "e4fa6e4455480dbc",
        4: "6d72b67bb6b77b58", 5: "1406ddfba2c64047", 6: "15116c29076817d9",
        7: "d08b77a48983d57c", 8: "d41c7f78be107022", 9: "babf22972b53bfab",
        12: "72f2a176fe68cd8d", 16: "9f0b82430b3de1cd",
    },
    ("reduce_scatter", "reduce_then_scatter"): {
        1: "1436ec2259483b7d", 2: "0265530974cf3410", 3: "815e788a478e3286",
        4: "b855e29b7524e775", 5: "180b48308d4928d0", 6: "7b31471a47d2fb28",
        7: "5852a604cd490483", 8: "96151d4ce5d01553", 9: "9bf30a9109f74e6c",
        12: "a9dab17bc6b8ccad", 16: "2471077760a89057",
    },
}

#: (family, algorithm) -> PARTITIONS index -> digest of every rank's plan
HIER_DIGESTS = {
    ("allgatherv", "hier"): (
        "aeb17c9013b66cb8", "9e06b3bdcb918679", "55208603f365618d",
        "813415ce1e9a62b8", "f7956a436f2b1a1d",
    ),
    ("alltoall", "hier"): (
        "2eacd26863eee400", "18a734cd9bb48254", "06f44d5ecf3d45a3",
        "a0cf13af9ff84d95", "5c7568ad3e8b5fd0",
    ),
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


def size_digests(family):
    plans = PER_SIZE[family]
    return {size: digest(plans(size))
            for size in FAMILY_SIZES.get(family, SIZES)}


def partition_digests(family):
    return tuple(digest(PER_PARTITION[family](groups))
                 for groups in PARTITIONS)


@pytest.mark.parametrize("family", sorted(PER_SIZE), ids=_name)
def test_every_ranks_plan_is_pinned(cache, family):
    assert size_digests(family) == PLAN_DIGESTS[family]


@pytest.mark.parametrize("family", sorted(PER_PARTITION), ids=_name)
def test_every_ranks_two_level_plan_is_pinned(cache, family):
    assert partition_digests(family) == HIER_DIGESTS[family]


def test_every_per_rank_family_is_pinned():
    assert set(PLAN_DIGESTS) == set(PER_SIZE)
    assert set(HIER_DIGESTS) == set(PER_PARTITION)
