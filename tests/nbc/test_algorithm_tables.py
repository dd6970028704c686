"""Every family's algorithm table, checked entry point by entry point.

Each collective family declares its algorithms once, in one table, and
every ``build_*``/``compiled_*`` entry point goes through that table and
the binders of :mod:`repro.nbc.schedule`.  These tests enumerate the
entry points and algorithms rather than sample them: the exported
algorithm tuples are the tables' keys in their declared order, a bad
argument raises the same :class:`ScheduleError` through every entry
point of a family (and caches nothing), and every compiled plan is
frozen.
"""

import pytest

from repro.errors import ScheduleError
from repro.nbc import (
    ALLGATHER_ALGORITHMS,
    ALLGATHERV_ALGORITHMS,
    ALLREDUCE_ALGORITHMS,
    ALLTOALL_ALGORITHMS,
    BINOMIAL,
    IBCAST_FANOUTS,
    REDUCE_ALGORITHMS,
    REDUCE_SCATTER_ALGORITHMS,
    build_iallreduce,
    build_ibcast,
    build_ireduce,
    compiled_iallgather,
    compiled_iallgatherv,
    compiled_iallreduce,
    compiled_ialltoall,
    compiled_ibcast,
    compiled_ireduce,
    compiled_ireduce_scatter,
    iallgather,
    iallgatherv,
    iallreduce,
    ialltoall,
    ibcast,
    ireduce,
    ireduce_scatter,
    start_ibarrier,
)
from repro.nbc.compose import compiled_scatter_allgather
from repro.nbc.hier import (
    build_hier_ialltoall,
    build_hier_ibcast,
    compiled_hier_ialltoall,
    compiled_hier_ibcast,
)
from repro.nbc.schedule import SCHEDULE_CACHE
from repro.sim import SimWorld, Wait, get_platform

P = 4
GROUPS = ((0, 1), (2, 3))

#: family -> (exported tuple, the table it derives from, the order the
#: algorithms had before they were declared in tables)
TABLES = {
    "alltoall": (ALLTOALL_ALGORITHMS, ialltoall._ALGORITHMS,
                 ("linear", "pairwise", "bruck")),
    "allgather": (ALLGATHER_ALGORITHMS, iallgather._ALGORITHMS,
                  ("ring", "recursive_doubling", "linear")),
    "allgatherv": (ALLGATHERV_ALGORITHMS, iallgatherv._ALGORITHMS,
                   ("linear", "ring", "hier")),
    "allreduce": (ALLREDUCE_ALGORITHMS, iallreduce._ALGORITHMS,
                  ("reduce_bcast", "ring", "hier")),
    "bcast": (IBCAST_FANOUTS, ibcast._ALGORITHMS,
              (0, 1, 2, 3, 4, 5, BINOMIAL)),
    "reduce": (REDUCE_ALGORITHMS, ireduce._ALGORITHMS, ("binomial", "chain")),
    "reduce_scatter": (REDUCE_SCATTER_ALGORITHMS, ireduce_scatter._ALGORITHMS,
                       ("pairwise", "reduce_then_scatter")),
}

#: (family, entry point, its algorithms or None when it takes no
#: algorithm argument, call(rank, nbytes, algorithm))
ENTRIES = [
    ("alltoall", "compiled_ialltoall", ALLTOALL_ALGORITHMS,
     lambda r, n, a: compiled_ialltoall(P, r, n, a)),
    ("alltoall", "compiled_hier_ialltoall", None,
     lambda r, n, a: compiled_hier_ialltoall(P, r, n, GROUPS)),
    ("alltoall", "build_hier_ialltoall", None,
     lambda r, n, a: build_hier_ialltoall(P, r, n, GROUPS)),
    ("allgather", "compiled_iallgather", ALLGATHER_ALGORITHMS,
     lambda r, n, a: compiled_iallgather(P, r, n, a)),
    ("allgatherv", "compiled_iallgatherv", ALLGATHERV_ALGORITHMS,
     lambda r, n, a: compiled_iallgatherv(P, r, (8, n, 8, 8), a, GROUPS)),
    ("allreduce", "compiled_iallreduce", ALLREDUCE_ALGORITHMS,
     lambda r, n, a: compiled_iallreduce(P, r, n, a, groups=GROUPS)),
    ("allreduce", "build_iallreduce", ALLREDUCE_ALGORITHMS,
     lambda r, n, a: build_iallreduce(P, r, n, a, groups=GROUPS)),
    ("bcast", "compiled_ibcast", IBCAST_FANOUTS,
     lambda r, n, a: compiled_ibcast(P, r, 1, n, a, 1024)),
    ("bcast", "build_ibcast", IBCAST_FANOUTS,
     lambda r, n, a: build_ibcast(P, r, 1, n, a, 1024)),
    ("bcast", "compiled_hier_ibcast", None,
     lambda r, n, a: compiled_hier_ibcast(P, r, 1, n, 1024, GROUPS)),
    ("bcast", "build_hier_ibcast", None,
     lambda r, n, a: build_hier_ibcast(P, r, 1, n, 1024, GROUPS)),
    ("bcast", "compiled_scatter_allgather", None,
     lambda r, n, a: compiled_scatter_allgather(P, r, 1, n)),
    ("reduce", "compiled_ireduce", REDUCE_ALGORITHMS,
     lambda r, n, a: compiled_ireduce(P, r, 1, n, a, segsize=1024)),
    ("reduce", "build_ireduce", REDUCE_ALGORITHMS,
     lambda r, n, a: build_ireduce(P, r, 1, n, a, segsize=1024)),
    ("reduce_scatter", "compiled_ireduce_scatter", REDUCE_SCATTER_ALGORITHMS,
     lambda r, n, a: compiled_ireduce_scatter(P, r, n, a)),
]


def _cases(with_algorithm_only=False):
    """One case per entry point and algorithm it takes."""
    return [
        pytest.param(family, call, algorithm,
                     id=f"{name}[{algorithm}]" if algorithms else name)
        for family, name, algorithms, call in ENTRIES
        if algorithms or not with_algorithm_only
        for algorithm in (algorithms or (None,))
    ]


@pytest.fixture
def cache():
    SCHEDULE_CACHE.clear()
    SCHEDULE_CACHE.reset_stats()
    yield SCHEDULE_CACHE
    SCHEDULE_CACHE.clear()
    SCHEDULE_CACHE.reset_stats()


def _error(call, *args) -> str:
    with pytest.raises(ScheduleError) as info:
        call(*args)
    return str(info.value)


@pytest.mark.parametrize("family", sorted(TABLES))
def test_algorithm_tuples_are_the_tables_keys_in_order(family):
    exported, table, before = TABLES[family]
    assert exported == tuple(table) == before


def test_every_entry_point_with_an_algorithm_is_checked_here():
    covered = {family for family, _, algorithms, _ in ENTRIES if algorithms}
    assert covered == set(TABLES)


@pytest.mark.parametrize("family, call, algorithm", _cases(True))
def test_unknown_algorithm_raises_the_familys_error(cache, family, call,
                                                    algorithm):
    bad = 7 if family == "bcast" else "nope"
    assert _error(call, 0, 8, bad) == (
        f"unknown {family} algorithm {bad!r}; "
        f"expected one of {TABLES[family][0]}")
    assert len(cache) == 0


@pytest.mark.parametrize("family, call, algorithm", _cases())
@pytest.mark.parametrize("rank", (-1, P))
def test_out_of_range_rank_raises_the_familys_error(cache, family, call,
                                                    algorithm, rank):
    for _ in range(2):  # nothing was cached, so the retry raises again
        assert _error(call, rank, 8, algorithm) == (
            f"bad {family} geometry size={P} rank={rank}")
    assert len(cache) == 0


@pytest.mark.parametrize("family, call, algorithm", _cases())
def test_negative_size_raises_the_familys_error(cache, family, call,
                                                algorithm):
    for _ in range(2):
        assert _error(call, 0, -8, algorithm) == f"negative {family} size -8"
    assert len(cache) == 0


def _barrier_plan():
    world = SimWorld(get_platform("whale"), P)
    plans = []

    def body(ctx):
        req = start_ibarrier(ctx)
        plans.append(req.schedule)
        yield Wait(req)

    world.launch(body)
    world.run()
    return plans[0]


COMPILED = [case for case in _cases() if "compiled_" in case.id]


@pytest.mark.parametrize(
    "plan", [lambda c=case: c.values[1](0, 8, c.values[2])[0]
             for case in COMPILED] + [_barrier_plan],
    ids=[case.id for case in COMPILED] + ["start_ibarrier"])
def test_compiled_plans_are_frozen(cache, plan):
    plan = plan()
    assert type(plan.rounds) is tuple
    assert all(type(rnd) is tuple for rnd in plan.rounds)
    with pytest.raises(ScheduleError, match="frozen"):
        plan.round()
    with pytest.raises(ScheduleError, match="frozen"):
        plan.send(0, 8)
    assert plan.nrounds == len(plan.rounds)
