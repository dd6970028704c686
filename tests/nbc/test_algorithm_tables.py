"""Every family's algorithm table, checked entry point by entry point.

Each collective family declares its algorithms once, in one table, and
every ``build_*``/``compiled_*`` entry point goes through that table and
the binders of :mod:`repro.nbc.schedule`.  These tests enumerate the
entry points and algorithms rather than sample them: the exported
algorithm tuples are the tables' keys in their declared order, a bad
argument raises the same :class:`ScheduleError` through every entry
point of a family (and caches nothing), a bad root the same error
through every rooted one (and a whole-tree table names the root alone),
a two-level row without its node partition, or given it as lists, one
error in every family, every compiled plan is frozen, and every row
runs an empty payload without a single message.  The broadcast table's
scatter+allgather row (the guideline mock-up) also has cases of its
own, named ``*scatter_allgather`` and ``mock-up``.
"""

from functools import partial

import pytest

from repro.errors import ScheduleError
from repro.nbc import (
    ALLGATHER_ALGORITHMS,
    ALLGATHERV_ALGORITHMS,
    ALLREDUCE_ALGORITHMS,
    ALLTOALL_ALGORITHMS,
    BCAST_ALGORITHMS,
    BINOMIAL,
    HIER,
    IBCAST_FANOUTS,
    REDUCE_ALGORITHMS,
    REDUCE_SCATTER_ALGORITHMS,
    as_partition,
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
    start_plan,
)
from repro.nbc.schedule import SCHEDULE_CACHE
from repro.obs import recording
from repro.sim import SimWorld, Wait, get_platform

P = 4
GROUPS = ((0, 1), (2, 3))

#: family -> (exported tuple, the table it derives from, its order: the
#: order of the family's ADCL function-set)
TABLES = {
    "alltoall": (ALLTOALL_ALGORITHMS, ialltoall._ALGORITHMS,
                 ("linear", "bruck", "pairwise", "hier")),
    "allgather": (ALLGATHER_ALGORITHMS, iallgather._ALGORITHMS,
                  ("ring", "linear", "recursive_doubling")),
    "allgatherv": (ALLGATHERV_ALGORITHMS, iallgatherv._ALGORITHMS,
                   ("linear", "ring", "hier")),
    "allreduce": (ALLREDUCE_ALGORITHMS, iallreduce._ALGORITHMS,
                  ("reduce_bcast", "ring", "hier")),
    "bcast": (BCAST_ALGORITHMS, ibcast._ALGORITHMS,
              (0, 1, 2, 3, 4, 5, BINOMIAL, "hier", "scatter_allgather")),
    "reduce": (REDUCE_ALGORITHMS, ireduce._ALGORITHMS, ("binomial", "chain")),
    "reduce_scatter": (REDUCE_SCATTER_ALGORITHMS, ireduce_scatter._ALGORITHMS,
                       ("pairwise", "reduce_then_scatter")),
}

#: the all-to-all's flat rows: its two-level row has an entry of its own
FLAT_ALLTOALL = tuple(a for a in ALLTOALL_ALGORITHMS if a != HIER)

#: (family, case name, its algorithms or None when it takes no
#: algorithm argument, call(rank, nbytes, algorithm)); the all-to-all's
#: and the broadcast's two-level rows (on GROUPS) are the cases named
#: ``*_hier_*`` after the entry point they call
ENTRIES = [
    ("alltoall", "compiled_ialltoall", FLAT_ALLTOALL,
     lambda r, n, a: compiled_ialltoall(P, r, n, a)),
    ("alltoall", "compiled_hier_ialltoall", None,
     lambda r, n, a: compiled_ialltoall(P, r, n, HIER, groups=GROUPS)),
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
     lambda r, n, a: compiled_ibcast(P, r, 1, n, HIER, 1024, GROUPS)),
    ("bcast", "build_hier_ibcast", None,
     lambda r, n, a: build_ibcast(P, r, 1, n, HIER, 1024, GROUPS)),
    ("bcast", "compiled_scatter_allgather", None,
     lambda r, n, a: compiled_ibcast(P, r, 1, n, "scatter_allgather", 0)),
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


#: (case name, family, its algorithms, call(rank, root, algorithm,
#: nbytes)): every entry point that takes a root
ROOTED = [
    ("compiled_ibcast", "bcast", BCAST_ALGORITHMS,
     lambda r, root, a, n: compiled_ibcast(P, r, root, n, a, 1024, GROUPS)),
    ("build_ibcast", "bcast", BCAST_ALGORITHMS,
     lambda r, root, a, n: build_ibcast(P, r, root, n, a, 1024, GROUPS)),
    ("compiled_ireduce", "reduce", REDUCE_ALGORITHMS,
     lambda r, root, a, n: compiled_ireduce(P, r, root, n, a)),
    ("build_ireduce", "reduce", REDUCE_ALGORITHMS,
     lambda r, root, a, n: build_ireduce(P, r, root, n, a)),
    ("compiled_scatter_allgather", "bcast", (None,),
     lambda r, root, a, n: compiled_ibcast(P, r, root, n,
                                           "scatter_allgather", 0)),
]


@pytest.mark.parametrize("also_bad", (None, "rank", "size"))
@pytest.mark.parametrize("family, call, algorithm", [
    pytest.param(family, call, algorithm, id=f"{name}[{algorithm}]")
    for name, family, algorithms, call in ROOTED
    for algorithm in algorithms
])
@pytest.mark.parametrize("root", (-1, P))
def test_bad_root_raises_one_error_on_every_rooted_path(
        cache, family, call, algorithm, root, also_bad):
    """A bad root alone raises the rooted error; with a bad rank or a
    negative size as well, the family's rank or size error comes first."""
    cases = {
        None: [(rank, 8, f"bad rooted geometry size={P} rank={rank} "
                         f"root={root}") for rank in (0, 2)],
        "rank": [(rank, 8, f"bad {family} geometry size={P} rank={rank}")
                 for rank in (-1, P)],
        "size": [(0, -8, f"negative {family} size -8")],
    }[also_bad]
    for rank, nbytes, expected in cases:
        for _ in range(2):
            assert _error(call, rank, root, algorithm, nbytes) == expected
    assert len(cache) == 0


#: family -> call(groups) of its two-level row, one per entry point
TWO_LEVEL = [
    ("alltoall", lambda g: compiled_ialltoall(P, 0, 8, HIER, groups=g)),
    ("allgatherv",
     lambda g: compiled_iallgatherv(P, 0, (8,) * P, HIER, groups=g)),
    ("allreduce", lambda g: compiled_iallreduce(P, 0, 8, HIER, groups=g)),
    ("allreduce", lambda g: build_iallreduce(P, 0, 8, HIER, groups=g)),
    ("bcast", lambda g: compiled_ibcast(P, 0, 0, 8, HIER, 1024, groups=g)),
    ("bcast", lambda g: build_ibcast(P, 0, 0, 8, HIER, 1024, groups=g)),
]


@pytest.mark.parametrize("family, call", TWO_LEVEL,
                         ids=[f"{family}{i}" for i, (family, _)
                              in enumerate(TWO_LEVEL)])
def test_a_two_level_row_without_groups_names_the_missing_partition(
        cache, family, call):
    for groups in (None, ()):
        assert _error(call, groups) == (
            "the 'hier' algorithm needs the node partition: pass groups=")
    assert len(cache) == 0
    call(GROUPS)  # the same call with the partition builds its plan


@pytest.mark.parametrize("family, call", TWO_LEVEL,
                         ids=[f"{family}{i}" for i, (family, _)
                              in enumerate(TWO_LEVEL)])
def test_a_two_level_row_given_lists_names_the_tuple_form(cache, family,
                                                          call):
    for groups in ([[0, 1], [2, 3]], ((0, 1), [2, 3])):
        assert _error(call, groups) == (
            "groups must be a tuple of per-node rank tuples, "
            f"e.g. ((0, 1), (2, 3)); got {groups!r}")
    assert len(cache) == 0


@pytest.mark.parametrize("root", (-1, P))
def test_a_whole_tree_table_names_the_bad_root_and_no_rank(root):
    expected = f"bad rooted geometry size={P} root={root}"
    for fanout in IBCAST_FANOUTS:
        assert _error(ibcast.tree_peers, P, root, fanout) == expected
    assert _error(ibcast.two_level_tree, as_partition(GROUPS),
                  root) == expected


#: (case name, call(groups)) of every flat row of the families that
#: also have a two-level row
FLAT_ROWS = [
    (f"{name}[{a}]", partial(call, a))
    for name, algorithms, call in (
        ("compiled_ialltoall", FLAT_ALLTOALL,
         lambda a, g: compiled_ialltoall(P, 0, 8, a, groups=g)),
        ("compiled_iallgatherv", ALLGATHERV_ALGORITHMS,
         lambda a, g: compiled_iallgatherv(P, 0, (8,) * P, a, groups=g)),
        ("compiled_iallreduce", ALLREDUCE_ALGORITHMS,
         lambda a, g: compiled_iallreduce(P, 0, 8, a, groups=g)),
        ("compiled_ibcast", IBCAST_FANOUTS,
         lambda a, g: compiled_ibcast(P, 0, 0, 8, a, 1024, groups=g)),
    )
    for a in algorithms if a != HIER
]


@pytest.mark.parametrize("call", [call for _, call in FLAT_ROWS],
                         ids=[name for name, _ in FLAT_ROWS])
def test_flat_rows_do_not_key_on_groups(cache, call):
    plan, peers = call(None)
    assert call(GROUPS) == (plan, peers)
    assert call(GROUPS)[0] is plan
    assert (cache.misses, len(cache)) == (1, 1)


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


#: family -> plan(size, rank, algorithm, groups) of its collective at
#: an empty payload (rooted ones at root ``size // 2``); the mock-up is
#: the broadcast table's scatter+allgather row
EMPTY = {
    "alltoall": lambda p, r, a, g: compiled_ialltoall(p, r, 0, a, g),
    "allgather": lambda p, r, a, g: compiled_iallgather(p, r, 0, a),
    "allgatherv": lambda p, r, a, g: compiled_iallgatherv(p, r, (0,) * p, a,
                                                          g),
    "allreduce": lambda p, r, a, g: compiled_iallreduce(p, r, 0, a, groups=g),
    "bcast": lambda p, r, a, g: compiled_ibcast(p, r, p // 2, 0, a, 1024, g),
    "reduce": lambda p, r, a, g: compiled_ireduce(p, r, p // 2, 0, a,
                                                  segsize=1024),
    "reduce_scatter": lambda p, r, a, g: compiled_ireduce_scatter(p, r, 0, a),
    "mock-up": lambda p, r, a, g: compiled_ibcast(p, r, p // 2, 0,
                                                  "scatter_allgather", 0),
}


def _empty_cases():
    """Every row of every table, and the mock-up, for P = 1..8
    (recursive doubling on powers of two)."""
    return [
        pytest.param(plan, size, algorithm, id=f"{family}[{algorithm}]-{size}")
        for family, plan in EMPTY.items()
        for algorithm in (TABLES[family][0] if family in TABLES else (None,))
        for size in range(1, 9)
        if algorithm != "recursive_doubling" or not size & (size - 1)
    ]


def test_every_family_runs_at_an_empty_payload():
    assert set(EMPTY) == set(TABLES) | {"mock-up"}


@pytest.mark.parametrize("plan, size, algorithm", _empty_cases())
def test_an_empty_collective_posts_no_message(cache, plan, size, algorithm):
    # the two-level rows run on nodes of two ranks
    groups = (tuple(tuple(range(n, min(n + 2, size)))
                    for n in range(0, size, 2))
              if algorithm == HIER else None)
    plans = [plan(size, rank, algorithm, groups) for rank in range(size)]
    assert [p.rounds for p, _ in plans] == [()] * size
    done = []

    def body(ctx):
        yield Wait(start_plan(ctx, ctx.comm_world, ctx.rank,
                              *plans[ctx.rank]))
        done.append(ctx.rank)

    with recording() as rec:
        world = SimWorld(get_platform("whale"), size)
        world.launch(body)
        world.run()
    assert sorted(done) == list(range(size))
    assert not [ev for ev in rec.events if ev[4] == "msg.post"]
