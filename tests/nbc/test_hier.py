"""Hierarchical collectives and the new function-set operations.

Correctness is checked with real payloads on deliberately *asymmetric*
geometries — non-power-of-two process counts and hand-made node
partitions with uneven group sizes — because those are where two-level
schemes typically break (leader promotion, midpoint exchange rounds,
zero-size blocks).  Reductions use integer-valued float64 payloads so
candidate-dependent combine orders still produce exact results.
"""

import numpy as np
import pytest

from repro import nbc
from repro.errors import ScheduleError
from repro.nbc.hier import as_partition, validate_groups
from repro.nbc.ibcast import two_level_tree
from repro.sim import Compute, FaultPlan, RankCrash, SimWorld, Wait, get_platform
from repro.sim.faults import DropRule

from .conftest import alltoall_expected, alltoall_sendbuf

# uneven partitions keyed by process count: one fat node, one pair, and
# (for P=7) a singleton — exercises leaders with 1, 2 and 4 members
PARTITIONS = {
    6: ((0, 1, 2, 3), (4, 5)),
    7: ((0, 1, 2, 3), (4, 5), (6,)),
    8: ((0, 1, 2), (3, 4, 5), (6, 7)),
}


# ---------------------------------------------------------------------------
# tree shape
# ---------------------------------------------------------------------------


def test_hier_bcast_tree_is_a_spanning_tree():
    for size, groups in PARTITIONS.items():
        for root in (0, size - 1):
            tree = two_level_tree(as_partition(groups), root)
            parents = {r: tree[r][0] for r in range(size)}
            children = {r: tree[r][1:] for r in range(size)}
            assert parents[root] == -1
            # every non-root has exactly one parent that lists it as child
            for r in range(size):
                if r == root:
                    continue
                assert r in children[parents[r]]
            # and the edge sets agree: sum of child lists covers all
            listed = [c for cs in children.values() for c in cs]
            assert sorted(listed) == sorted(r for r in range(size) if r != root)


def test_hier_bcast_tree_promotes_root_to_leader():
    groups = ((0, 1, 2, 3), (4, 5))
    # root 2 is not its group's first member, but must still be the
    # global tree root with no intra-node hop above it
    tree = two_level_tree(as_partition(groups), 2)
    parent, *children = tree[2]
    assert parent == -1
    assert set(children) >= {0, 1, 3}  # its node members hang off it
    assert tree[0][0] == 2


def test_validate_groups_rejects_non_partitions():
    with pytest.raises(ScheduleError):
        validate_groups(4, ((0, 1), (1, 2, 3)))  # duplicate
    with pytest.raises(ScheduleError):
        validate_groups(4, ((0, 1),))  # incomplete
    with pytest.raises(ScheduleError):
        validate_groups(2, ((0, 1), ()))  # empty group


# ---------------------------------------------------------------------------
# hierarchical broadcast / all-to-all payload correctness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nprocs", sorted(PARTITIONS))
@pytest.mark.parametrize("root", [0, 2])
def test_hier_ibcast_matches_flat(run_collective, nprocs, root):
    nbytes = 777  # not a multiple of the segment size
    groups = PARTITIONS[nprocs]

    def body(ctx, out):
        buf = np.full(nbytes, ctx.rank, dtype=np.uint8)
        if ctx.rank == root:
            buf[:] = np.arange(nbytes) % 251
        req = nbc.start_ibcast(ctx, nbytes, root=root, fanout="hier",
                               segsize=256, buf=buf, groups=groups)
        yield Wait(req)
        out["buf"] = buf

    results = run_collective(nprocs, body)
    expected = (np.arange(nbytes) % 251).astype(np.uint8)
    for rank in range(nprocs):
        np.testing.assert_array_equal(results[rank]["buf"], expected)


def test_hier_ibcast_topology_derived_groups(run_collective):
    # no explicit partition: groups come from the simulated placement
    nprocs, nbytes = 8, 512

    def body(ctx, out):
        buf = np.zeros(nbytes, dtype=np.uint8)
        if ctx.rank == 0:
            buf[:] = np.arange(nbytes) % 251
        req = nbc.start_ibcast(ctx, nbytes, root=0, fanout="hier",
                               segsize=128, buf=buf)
        yield Wait(req)
        out["buf"] = buf

    results = run_collective(nprocs, body, placement="cyclic")
    expected = (np.arange(nbytes) % 251).astype(np.uint8)
    for rank in range(nprocs):
        np.testing.assert_array_equal(results[rank]["buf"], expected)


@pytest.mark.parametrize("nprocs", sorted(PARTITIONS))
def test_hier_ialltoall_matches_flat(run_collective, nprocs):
    m = 48
    groups = PARTITIONS[nprocs]

    def body(ctx, out):
        sendbuf = alltoall_sendbuf(ctx.rank, nprocs, m)
        recvbuf = np.zeros(nprocs * m, dtype=np.uint8)
        req = nbc.start_ialltoall(ctx, m, algorithm="hier", sendbuf=sendbuf,
                                  recvbuf=recvbuf, groups=groups)
        yield Wait(req)
        out["recv"] = recvbuf

    results = run_collective(nprocs, body)
    for rank in range(nprocs):
        np.testing.assert_array_equal(
            results[rank]["recv"], alltoall_expected(rank, nprocs, m),
            err_msg=f"hier alltoall wrong at rank {rank}",
        )


# ---------------------------------------------------------------------------
# the new function-set operations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("algorithm", nbc.ALLGATHERV_ALGORITHMS)
def test_iallgatherv_uneven_counts(run_collective, algorithm):
    nprocs = 7
    counts = (13, 0, 40, 7, 0, 25, 1)  # zero-size contributions are legal
    total = sum(counts)
    offs = np.concatenate(([0], np.cumsum(counts)))
    groups = PARTITIONS[nprocs]

    def body(ctx, out):
        sendbuf = np.full(counts[ctx.rank], ctx.rank + 1, dtype=np.uint8)
        recvbuf = np.zeros(total, dtype=np.uint8)
        req = nbc.start_iallgatherv(ctx, counts, algorithm=algorithm,
                                    sendbuf=sendbuf, recvbuf=recvbuf,
                                    groups=groups)
        yield Wait(req)
        out["recv"] = recvbuf

    results = run_collective(nprocs, body)
    expected = np.zeros(total, dtype=np.uint8)
    for r in range(nprocs):
        expected[offs[r]:offs[r + 1]] = r + 1
    for rank in range(nprocs):
        np.testing.assert_array_equal(
            results[rank]["recv"], expected,
            err_msg=f"{algorithm} wrong at rank {rank}",
        )


def test_balanced_counts_covers_total_unevenly():
    counts = nbc.balanced_counts(100, 7)
    assert sum(counts) == 100
    assert max(counts) - min(counts) == 1


@pytest.mark.parametrize("algorithm", nbc.REDUCE_SCATTER_ALGORITHMS)
@pytest.mark.parametrize("nprocs", [2, 5, 8])
def test_ireduce_scatter_exact_sums(run_collective, algorithm, nprocs):
    n = 4  # float64 elements per block
    m = n * 8

    def body(ctx, out):
        data = np.empty(nprocs * n)
        for blk in range(nprocs):
            data[blk * n:(blk + 1) * n] = float(ctx.rank + 1) * (blk + 1)
        recv = np.zeros(n)
        req = nbc.start_ireduce_scatter(ctx, m, algorithm=algorithm,
                                        sendbuf=data, recvbuf=recv)
        yield Wait(req)
        out["recv"] = recv

    results = run_collective(nprocs, body)
    ranksum = nprocs * (nprocs + 1) // 2
    for rank in range(nprocs):
        np.testing.assert_array_equal(
            results[rank]["recv"], np.full(n, float(ranksum * (rank + 1))),
            err_msg=f"{algorithm} wrong at rank {rank}",
        )


@pytest.mark.parametrize("algorithm", nbc.ALLREDUCE_ALGORITHMS)
@pytest.mark.parametrize("nprocs", sorted(PARTITIONS))
def test_iallreduce_exact_sums(run_collective, algorithm, nprocs):
    n = 9  # odd element count: ring blocks are uneven
    groups = PARTITIONS[nprocs]

    def body(ctx, out):
        buf = (np.arange(n) + 1.0) * (ctx.rank + 1)
        req = nbc.start_iallreduce(ctx, buf.nbytes, algorithm=algorithm,
                                   buf=buf, groups=groups)
        yield Wait(req)
        out["buf"] = buf

    results = run_collective(nprocs, body)
    ranksum = nprocs * (nprocs + 1) // 2
    expected = (np.arange(n) + 1.0) * ranksum
    for rank in range(nprocs):
        np.testing.assert_array_equal(
            results[rank]["buf"], expected,
            err_msg=f"{algorithm} wrong at rank {rank}",
        )


def test_iallreduce_max(run_collective):
    nprocs, n = 6, 5

    def body(ctx, out):
        buf = np.full(n, float((ctx.rank * 5) % 7))
        req = nbc.start_iallreduce(ctx, buf.nbytes, algorithm="ring",
                                   buf=buf, op="max")
        yield Wait(req)
        out["buf"] = buf

    results = run_collective(nprocs, body)
    expected = max(float((r * 5) % 7) for r in range(nprocs))
    for rank in range(nprocs):
        np.testing.assert_array_equal(results[rank]["buf"],
                                      np.full(n, expected))


# ---------------------------------------------------------------------------
# behaviour under fault plans
# ---------------------------------------------------------------------------


def test_hier_bcast_repairs_after_crash():
    """ULFM recovery works for hierarchical schedules: a leader crash is
    detected, the communicator is shrunk, and the retry (over the
    re-derived groups of the survivor communicator) completes."""
    plan = FaultPlan(crashes=(RankCrash(3, 0.00201),))
    world = SimWorld(get_platform("whale"), 8, faults=plan)
    results = {}

    def prog(ctx):
        yield Compute(0.002)
        req, comm, repairs = yield from nbc.ft_collective(
            ctx, lambda c, cm: nbc.start_ibcast(c, 64 * 1024, root=0,
                                                fanout="hier", comm=cm))
        results[ctx.rank] = (repairs, tuple(comm.ranks))

    world.launch(prog)
    world.run()
    assert sorted(results) == [0, 1, 2, 4, 5, 6, 7]
    outcomes = set(results.values())
    assert len(outcomes) == 1
    repairs, ranks = outcomes.pop()
    assert repairs >= 1
    assert ranks == (0, 1, 2, 4, 5, 6, 7)


def test_resilient_hier_run_is_not_misclassified_under_drops():
    """Message drops with a reliable transport slow a hierarchical run
    down but must not be misread as deadlock or trigger restarts."""
    from repro.adcl.resilience import Resilience
    from repro.bench.overlap import OverlapConfig, run_overlap

    plan = FaultPlan(drops=(DropRule(0.5, 0.005, 0.02),), seed=3)
    cfg = OverlapConfig(nprocs=8, operation="bcast_hier", nbytes=64 * 1024,
                        compute_total=2.0, iterations=8, placement="cyclic",
                        faults=plan)
    res = run_overlap(cfg, selector=5, evals_per_function=1,
                      recovery=Resilience(deadline=5.0))
    assert res.restarts == 0
    assert res.aborts == []
    assert len(res.records) == cfg.iterations


def test_resilient_quarantine_still_triggers_with_hier_candidates(monkeypatch):
    """A deadlocking candidate inside the hierarchical function-set is
    quarantined and the tuner still decides among the healthy ones."""
    from repro.adcl.function import CollFunction, FunctionSet
    from repro.adcl.fnsets import ibcast_function_set
    from repro.adcl.resilience import Resilience
    from repro.bench.overlap import OverlapConfig, run_overlap
    from repro.sim.process import Waitable
    import repro.bench.overlap as ov

    class _Stuck(Waitable):
        def __init__(self):
            super().__init__()
            self.done = False

    full = ibcast_function_set(hierarchical=True)
    hier = [f for f in full if "hier" in f.name]
    assert len(hier) == 3
    toy = FunctionSet("toy_hier", [
        full[0],  # linear (safe fallback)
        CollFunction(name="stuck", maker=lambda c, s, b: _Stuck()),
        hier[0],
    ])
    monkeypatch.setattr(ov, "function_set_for", lambda op: toy)
    cfg = OverlapConfig(nprocs=8, operation="bcast_hier", nbytes=64 * 1024,
                        compute_total=2.0, iterations=12, placement="cyclic")
    res = run_overlap(cfg, evals_per_function=2,
                      recovery=Resilience(deadline=1.0))
    assert res.restarts == 1
    assert [i for i, _ in res.quarantine_log] == [1]
    assert "stuck" not in res.fn_names
    assert res.winner in (full[0].name, hier[0].name)
    assert len(res.records) == cfg.iterations
