"""Per-rank plans: every rank's bound plan, pinned by digest.

The algorithms here depend on the rank through more than a rotation or
a tree role (variable block sizes, a ring over ``counts``, a root that
scatters, ``rank XOR 2^k`` partners, a node partition), so each rank
compiles its own plan bound to
:func:`~repro.nbc.schedule.identity_peers`.  A refactor of the emitters
that build them must leave every digest below unchanged.

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
    compiled_ireduce_scatter,
)
from repro.nbc.compose import compiled_scatter_allgather
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
    return [[concrete(*compiled_scatter_allgather(size, rank, root, nbytes))
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
        1: "3648e63d0d10b198", 2: "bafc0585a7cd3f78", 4: "e529f34fc2081572",
        8: "f60c7b2839fee029", 16: "d0d606bc76e043af",
    },
    ("allgatherv", "linear"): {
        1: "15fa4869dc894d69", 2: "5109e38a9ecb6bb8", 3: "4657da9d4a958222",
        4: "b69cef7af27874d4", 5: "36f259f0aa76889f", 6: "5e253816f4734da5",
        7: "b8b37b204ea5f886", 8: "41704704f804ba9d", 9: "61683ca1af5986e7",
        12: "01be71a1f90fb3d1", 16: "149ae7aca6e119f5",
    },
    ("allgatherv", "ring"): {
        1: "7828ea75cfacb4f5", 2: "f9df760066a24875", 3: "854348f29ca205ce",
        4: "a63ea9cadf53ed54", 5: "9269e51eb460af98", 6: "46c0ef3788a3df22",
        7: "5345dfa414d188bb", 8: "e5ee6c0542526a3a", 9: "7578127c269705b7",
        12: "a45eec86373fdcb6", 16: "557d5b209262e7bb",
    },
    ("allreduce", "ring"): {
        1: "e62fe789ebd776d1", 2: "e77d60cbd92617d5", 3: "28eeabb8a76481a4",
        4: "bc92eeaa6046a9b1", 5: "f7481d5837deaaca", 6: "88fe27329974c139",
        7: "bf88ba68b8a64787", 8: "44b6d6111c862840", 9: "598eb9d23e136dfc",
        12: "4667f45e17bd3e1c", 16: "de948147bad86994",
    },
    ("bcast", "scatter+allgather"): {
        1: "6445794a5af894cc", 2: "880d8f37893f785a", 3: "e4fa6e4455480dbc",
        4: "6d72b67bb6b77b58", 5: "1406ddfba2c64047", 6: "15116c29076817d9",
        7: "d08b77a48983d57c", 8: "d41c7f78be107022", 9: "babf22972b53bfab",
        12: "72f2a176fe68cd8d", 16: "9f0b82430b3de1cd",
    },
    ("reduce_scatter", "reduce_then_scatter"): {
        1: "1a25cbc0f174c891", 2: "82020d4bcd3f7dc1", 3: "5cbfe23f67f0ed77",
        4: "f862b7a6feec74a8", 5: "b38e6f8f029c8d7d", 6: "cb3779cd6a8f6a6f",
        7: "4413733fdb0534c5", 8: "cac79bad212fa6a8", 9: "ba73ec4113acc762",
        12: "c919f23c0617bf3d", 16: "9d5fd2bb8e08bbc3",
    },
}

#: (family, algorithm) -> PARTITIONS index -> digest of every rank's plan
HIER_DIGESTS = {
    ("allgatherv", "hier"): (
        "c816fe802db0d686", "31fd996a1be6a7ed", "4d38d8c15eb5b5ee",
        "5c5d9f107fc43edb", "a3ed5fc15107bf8b",
    ),
    ("alltoall", "hier"): (
        "32eb9abf4058fa8f", "afbb745d1f80f798", "126b0a6ffacef16c",
        "c07865aa7a411eb0", "31a160dcfeb02ceb",
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
