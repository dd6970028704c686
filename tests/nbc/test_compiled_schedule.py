"""Unit tests for CompiledSchedule and the schedule cache."""

from unittest import mock

import pytest

from repro.errors import ScheduleError
from repro.nbc.ialltoall import build_ialltoall
from repro.nbc.ibcast import build_ibcast, compiled_ibcast
from repro.nbc.schedule import (
    SCHEDULE_CACHE,
    USER_BUFFERS,
    CompiledSchedule,
    Schedule,
    ScheduleCache,
    identity_peers,
)

from .conftest import bound_rounds


@pytest.fixture
def global_cache():
    """Clean slate on the process-global cache; restore afterwards."""
    SCHEDULE_CACHE.clear()
    SCHEDULE_CACHE.reset_stats()
    yield SCHEDULE_CACHE
    SCHEDULE_CACHE.clear()
    SCHEDULE_CACHE.reset_stats()


def test_compile_freezes_structure():
    sched = build_ibcast(size=8, rank=3, root=0, nbytes=64 * 1024,
                         fanout=2, segsize=16 * 1024)
    plan = sched.compile(key=("k",))
    assert isinstance(plan, CompiledSchedule)
    assert plan.key == ("k",)
    assert plan.nrounds == sched.nrounds
    assert plan.tag_span == sched.tag_span
    assert plan.count_ops() == sched.count_ops()
    assert plan.count_ops("send") == sched.count_ops("send")
    assert plan.total_send_bytes() == sched.total_send_bytes()
    # frozen: rounds are tuples of the *same* op objects
    assert isinstance(plan.rounds, tuple)
    for frozen, original in zip(plan.rounds, sched.rounds):
        assert isinstance(frozen, tuple)
        assert list(frozen) == original


@pytest.mark.parametrize("rank", range(5))
def test_plan_derives_its_scratch_layout(rank):
    """Bruck at P=5: ``tmp`` holds all five blocks, the staging areas the
    largest round's two; ``send``/``recv`` are the caller's."""
    sched = build_ialltoall(5, rank, 8, "bruck")
    plan = sched.compile()
    assert plan.scratch == {"tmp": 40, "so": 16, "si": 16}
    assert not set(plan.scratch) & set(USER_BUFFERS)
    assert sched.scratch == plan.scratch
    assert build_ialltoall(5, rank, 8, "pairwise").compile().scratch == {}


def test_compile_validates_first():
    bad = Schedule("bad")
    bad.round()  # empty round
    with pytest.raises(ScheduleError):
        bad.compile()


def test_cache_hit_returns_same_plan_object():
    cache = ScheduleCache()
    built = []

    def builder():
        built.append(1)
        return Schedule("x").send(1, 100)

    first = cache.get(("a",), builder)
    second = cache.get(("a",), builder)
    assert first is second
    assert isinstance(first, CompiledSchedule)
    assert built == [1]
    assert (cache.hits, cache.misses) == (1, 1)
    assert cache.hit_rate == 0.5
    assert len(cache) == 1


def test_cache_flushes_wholesale_at_maxsize():
    cache = ScheduleCache(maxsize=2)
    for i in range(3):
        cache.get((i,), lambda: Schedule("x").send(1, 100))
    assert cache.flushes == 1
    assert len(cache) <= 2
    # the flushed key rebuilds as a miss, not a wrong answer
    cache.get((0,), lambda: Schedule("x").send(1, 100))
    assert cache.hits == 0


def test_cache_clear_keeps_stats_and_reset_stats_keeps_plans():
    cache = ScheduleCache()
    cache.get(("a",), lambda: Schedule("x").send(1, 100))
    cache.get(("a",), lambda: Schedule("x").send(1, 100))
    cache.clear()
    assert len(cache) == 0
    assert cache.hits == 1
    cache.get(("b",), lambda: Schedule("y").send(1, 100))
    cache.reset_stats()
    assert (cache.hits, cache.misses, cache.flushes) == (0, 0, 0)
    assert len(cache) == 1


def test_cache_rejects_nonpositive_maxsize():
    with pytest.raises(ScheduleError):
        ScheduleCache(maxsize=0)


def test_cache_holds_a_p256_ibcast_brute_force(global_cache):
    """All 21 Ibcast candidates x 256 ranks fit: a second pass over the
    same plans (the next op of the same run) neither misses nor flushes."""
    from repro.adcl.fnsets import IBCAST_SEGSIZES
    from repro.nbc.ibcast import IBCAST_FANOUTS

    geometries = [(fanout, segsize) for fanout in IBCAST_FANOUTS
                  for segsize in IBCAST_SEGSIZES]
    assert len(geometries) == 21
    for _ in range(2):
        global_cache.reset_stats()
        for fanout, segsize in geometries:
            for rank in range(256):
                compiled_ibcast(256, rank, 0, 128 * 1024, fanout, segsize)
    assert (global_cache.misses, global_cache.flushes) == (0, 0)
    assert global_cache.hits == 21 * 256


def test_compiled_ibcast_memoizes_per_geometry(global_cache):
    a, a_peers = compiled_ibcast(8, 3, 0, 64 * 1024, 2, 16 * 1024)
    b, b_peers = compiled_ibcast(8, 3, 0, 64 * 1024, 2, 16 * 1024)
    # rank 4 is a leaf of the 2-ary tree, rank 3 an interior node
    other, other_peers = compiled_ibcast(8, 4, 0, 64 * 1024, 2, 16 * 1024)
    assert a is b
    assert a_peers == b_peers
    assert bound_rounds(a, a_peers) != bound_rounds(other, other_peers)
    assert global_cache.hits == 1
    assert global_cache.misses == 2


def test_same_role_shares_a_template_but_binds_its_own_peers(global_cache):
    # ranks 4 and 5 are leaves of the 2-ary tree, under parents 1 and 2
    a, a_peers = compiled_ibcast(8, 4, 0, 64 * 1024, 2, 16 * 1024)
    b, b_peers = compiled_ibcast(8, 5, 0, 64 * 1024, 2, 16 * 1024)
    assert a is b
    assert a_peers != b_peers
    assert bound_rounds(a, a_peers) != bound_rounds(b, b_peers)
    assert (global_cache.hits, global_cache.misses) == (1, 1)


def test_compiled_plan_matches_builder_output(global_cache):
    plan, peers = compiled_ibcast(16, 5, 0, 128 * 1024, 4, 64 * 1024)
    fresh = build_ibcast(16, 5, 0, 128 * 1024, fanout=4, segsize=64 * 1024)
    assert plan.name == fresh.name
    assert plan.nrounds == fresh.nrounds
    assert plan.tag_span == fresh.tag_span
    assert plan.total_send_bytes() == fresh.total_send_bytes()
    assert bound_rounds(plan, peers) == bound_rounds(fresh, identity_peers(16))


def test_cached_and_uncached_runs_bit_identical(global_cache):
    """The acceptance-criterion determinism check, tier-1 sized."""
    from repro.bench.overlap import OverlapConfig, run_overlap

    cfg = OverlapConfig(platform="whale", nprocs=8, operation="bcast",
                        nbytes=32 * 1024, iterations=8, nprogress=3,
                        noise_sigma=0.01, noise_outlier_prob=0.02, seed=5)

    def fingerprint(res):
        return (res.winner, res.decided_at, res.makespan.hex(),
                tuple(r.seconds.hex() for r in res.records), res.events)

    cached = run_overlap(cfg, evals_per_function=2)
    # every lookup rebuilds its plan
    with mock.patch.object(global_cache, "get",
                           lambda key, build: build().compile(key)):
        uncached = run_overlap(cfg, evals_per_function=2)
    assert fingerprint(cached) == fingerprint(uncached)
