"""Role-keyed broadcast templates.

A tree broadcast compiles one template per tree role (has a parent,
number of children) and binds each rank's ``(parent, *children)`` peer
table when the request is made.  These tests pin that the bound
template posts exactly what the per-rank builder does, that the plan
count grows with the number of roles rather than with P, and that the
cached plans stay small.
"""

import math
import tracemalloc

import pytest

from repro.adcl.fnsets import IBCAST_SEGSIZES
from repro.errors import ScheduleError
from repro.nbc import ialltoall
from repro.nbc.hier import HIER, as_partition
from repro.nbc.ialltoall import compiled_ialltoall
from repro.nbc.ibcast import IBCAST_FANOUTS, build_ibcast, compiled_ibcast
from repro.nbc.schedule import SCHEDULE_CACHE, identity_peers

from .conftest import bound_rounds

SIZES = (1, 2, 3, 5, 8, 13, 16, 33)

#: hand-made partitions: uneven groups, non-power-of-two group counts,
#: a singleton leader group and interleaved members.  Every root is
#: tried, so most roots are not their group's first member.
PARTITIONS = (
    ((0, 1, 2, 3), (4, 5), (6,)),
    ((0, 1, 2), (3, 4, 5, 6, 7), (8, 9), (10,), (11, 12)),
    ((0,), (1, 2, 3, 4, 5, 6, 7, 8)),
    ((0, 2, 4), (1, 3), (5, 6, 7, 8), (9,)),
)

#: BlueGene/P: 4 cores per node, 1024 ranks in block placement
BGP_1024 = tuple(tuple(range(n, n + 4)) for n in range(0, 1024, 4))


@pytest.fixture
def cache():
    SCHEDULE_CACHE.clear()
    SCHEDULE_CACHE.reset_stats()
    yield SCHEDULE_CACHE
    SCHEDULE_CACHE.clear()
    SCHEDULE_CACHE.reset_stats()


@pytest.mark.parametrize("fanout", IBCAST_FANOUTS)
def test_bound_flat_template_equals_build_ibcast(cache, fanout):
    nbytes = 5000  # not a multiple of either segment size
    for size in SIZES:
        for root in range(size):
            for segsize in (1024, 4096):
                for rank in range(size):
                    plan, peers = compiled_ibcast(size, rank, root, nbytes,
                                                  fanout, segsize)
                    built = build_ibcast(size, rank, root, nbytes, fanout,
                                         segsize)
                    assert plan.name == built.name
                    assert plan.tag_span == built.tag_span
                    assert (bound_rounds(plan, peers)
                            == bound_rounds(built, identity_peers(size)))


@pytest.mark.parametrize("groups", PARTITIONS)
def test_bound_hier_template_equals_build_hier_ibcast(cache, groups):
    size = sum(len(g) for g in groups)
    nbytes = 5000
    for root in range(size):
        for segsize in (1024, 4096):
            for rank in range(size):
                plan, peers = compiled_ibcast(size, rank, root, nbytes,
                                              HIER, segsize, groups)
                built = build_ibcast(size, rank, root, nbytes, HIER, segsize,
                                     groups)
                assert plan.name == built.name
                assert plan.tag_span == built.tag_span
                assert (bound_rounds(plan, peers)
                        == bound_rounds(built, identity_peers(size)))


def test_hier_templates_are_per_role_not_per_rank(cache):
    part = as_partition(BGP_1024)
    for rank in range(1024):
        compiled_ibcast(1024, rank, 0, 1024 * 1024, HIER, 32 * 1024, part)
    # root, 8 leader roles (1..8 leader children + 3 members), members
    assert len(cache) == 10
    assert cache.families() == {"hier-bcast": 10}


def test_one_pass_of_21_candidates_at_p1024_fits_without_flushing(cache):
    size = 1024
    for fanout in IBCAST_FANOUTS:
        for segsize in IBCAST_SEGSIZES:
            for rank in range(size):
                compiled_ibcast(size, rank, 0, 128 * 1024, fanout, segsize)
    assert cache.flushes == 0
    assert len(cache) <= 21 * (math.ceil(math.log2(size)) + 3)


def _traced_plan_bytes(lookups) -> int:
    """Bytes still allocated after ``lookups()`` ran on a cold cache."""
    SCHEDULE_CACHE.clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        lookups()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_hier_bcast_plans_at_p1024_hold_under_1mib(cache):
    part = as_partition(BGP_1024)

    def lookups():
        for rank in range(1024):
            compiled_ibcast(1024, rank, 0, 1024 * 1024, HIER, 32 * 1024, part)

    assert _traced_plan_bytes(lookups) < 1024 * 1024


def test_21_candidate_flat_plans_at_p256_hold_under_1mib(cache):
    def lookups():
        for fanout in IBCAST_FANOUTS:
            for segsize in IBCAST_SEGSIZES:
                for rank in range(256):
                    compiled_ibcast(256, rank, 0, 128 * 1024, fanout, segsize)

    assert _traced_plan_bytes(lookups) < 1024 * 1024


def test_partitions_are_interned_and_validated_once():
    groups = ((0, 1, 2, 3), (4, 5), (6,))
    part = as_partition(groups)
    assert as_partition(tuple(tuple(g) for g in groups)) is part
    assert as_partition(part, 7) is part
    assert part.group_of == (0, 0, 0, 0, 1, 1, 2)
    with pytest.raises(ScheduleError):
        as_partition(groups, 8)
    with pytest.raises(ScheduleError):
        as_partition(((0, 1), (1, 2)))


def test_hier_alltoall_keys_on_the_partition_token(cache):
    groups = ((0, 1, 2), (3, 4))
    plan, peers = compiled_ialltoall(5, 3, 16, HIER, groups)
    # an equal partition spelled as a fresh tuple hits the same plan
    fresh = tuple(map(tuple, groups))
    assert compiled_ialltoall(5, 3, 16, HIER, fresh)[0] is plan
    assert plan.key == ("alltoall", "hier", 5, 3, 16, as_partition(groups))
    assert plan.key[-1] is as_partition(groups)
    assert peers is identity_peers(5)
    _, emit = ialltoall._ALGORITHMS[HIER]
    assert (bound_rounds(plan, peers)
            == bound_rounds(emit(5, 3, 16, as_partition(groups)),
                            identity_peers(5)))


def test_hier_bcast_keys_on_the_role_only(cache):
    groups = ((0, 1, 2), (3, 4))
    plan, peers = compiled_ibcast(5, 3, 0, 5000, HIER, 1024, groups)
    # rank 3 leads the second node: parent 0, one member child
    assert peers == (0, 4)
    assert plan.key == ("bcast", "hier", 5, 5000, 1024, True, 1)
    assert compiled_ibcast(5, 3, 0, 5000, HIER, 1024,
                           as_partition(groups)) == (plan, peers)


def test_partition_for_comm_is_memoized_and_shared_across_worlds():
    from repro.nbc.hier import partition_for_comm
    from repro.sim import SimWorld, get_platform

    # whale: 8 cores per node, so 16 block-placed ranks fill two nodes
    worlds = [SimWorld(get_platform("whale"), 16) for _ in range(2)]
    parts = [partition_for_comm(w.comm_world, w.topology) for w in worlds]
    assert partition_for_comm(worlds[0].comm_world, worlds[0].topology) is parts[0]
    # two worlds with the same placement share one interned partition
    assert parts[0] is parts[1]
    assert len(parts[0].groups) == 2
