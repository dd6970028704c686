"""Property-based tests on the collective schedule builders.

These check global invariants across *all ranks'* schedules without
running the simulator:

* **pairing** — every send (peer, size, tag) posted by rank a towards b
  is matched by exactly one recv posted by b from a, and vice versa;
* **conservation** — all-to-all moves exactly (P-1) blocks in and out
  of every rank; broadcast delivers exactly ``nbytes`` to every
  non-root;
* **round-count laws** — linear is single-round, pairwise has P-1
  exchange rounds, Bruck ceil(log2 P) exchanges, trees have the
  expected depth.
"""

import math
from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.nbc import (
    ALLGATHER_ALGORITHMS,
    ALLGATHERV_ALGORITHMS,
    ALLREDUCE_ALGORITHMS,
    ALLTOALL_ALGORITHMS,
    BCAST_ALGORITHMS,
    BINOMIAL,
    IBCAST_FANOUTS,
    REDUCE_ALGORITHMS,
    REDUCE_SCATTER_ALGORITHMS,
    bcast_tree,
    build_ibcast,
    build_ireduce,
    compiled_iallgather,
    compiled_iallgatherv,
    compiled_iallreduce,
    compiled_ialltoall,
    compiled_ibcast,
    compiled_ireduce,
    compiled_ireduce_scatter,
)

from .conftest import bind

sizes = st.integers(2, 17)
blocks = st.integers(1, 4096)


def multiset_of_messages(schedules, kind):
    """(src, dst, nbytes, tagoff) multiset over all ranks' schedules."""
    out = Counter()
    for rank, sched in enumerate(schedules):
        for rnd in sched.rounds:
            for op in rnd:
                if op.kind == kind:
                    out[(rank, op.peer, op.nbytes, op.tagoff)] += 1
    return out


def assert_sends_match_recvs(schedules):
    sends = multiset_of_messages(schedules, "send")
    recvs = multiset_of_messages(schedules, "recv")
    flipped = Counter({(dst, src, n, t): c for (src, dst, n, t), c in recvs.items()})
    assert sends == flipped


# ---------------------------------------------------------------------------
# alltoall
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(size=sizes, m=blocks, algorithm=st.sampled_from(["linear", "pairwise", "bruck"]))
def test_alltoall_sends_match_recvs(size, m, algorithm):
    schedules = [bind(*compiled_ialltoall(size, r, m, algorithm))
                 for r in range(size)]
    assert_sends_match_recvs(schedules)


@settings(max_examples=30, deadline=None)
@given(size=sizes, m=blocks)
def test_alltoall_direct_algorithms_move_exactly_p_minus_1_blocks(size, m):
    for algorithm in ("linear", "pairwise"):
        for rank in range(size):
            sched = bind(*compiled_ialltoall(size, rank, m, algorithm))
            assert sched.count_ops("send") == size - 1
            assert sched.count_ops("recv") == size - 1
            assert sched.total_send_bytes() == (size - 1) * m


@settings(max_examples=30, deadline=None)
@given(size=sizes, m=blocks)
def test_bruck_round_count_and_volume(size, m):
    nrounds = math.ceil(math.log2(size))
    expected_bytes = sum(
        len([j for j in range(size) if j & (1 << k)]) * m for k in range(nrounds)
    )
    for rank in range(size):
        sched = bind(*compiled_ialltoall(size, rank, m, "bruck"))
        assert sched.count_ops("send") == nrounds
        assert sched.total_send_bytes() == expected_bytes


@settings(max_examples=30, deadline=None)
@given(size=sizes, m=blocks)
def test_pairwise_rounds_have_one_exchange_each(size, m):
    sched, _ = compiled_ialltoall(size, 0, m, "pairwise")
    exchange_rounds = [
        rnd for rnd in sched.rounds
        if any(op.kind in ("send", "recv") for op in rnd)
    ]
    assert len(exchange_rounds) == size - 1
    for rnd in exchange_rounds:
        kinds = sorted(op.kind for op in rnd if op.kind != "copy")
        assert kinds == ["recv", "send"]


# ---------------------------------------------------------------------------
# bcast
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    size=sizes,
    root=st.integers(0, 16),
    nbytes=st.integers(1, 500_000),
    fanout=st.sampled_from(IBCAST_FANOUTS),
    segsize=st.sampled_from([1 << 12, 1 << 15, 1 << 17]),
)
def test_bcast_sends_match_recvs_and_deliver_everything(size, root, nbytes,
                                                        fanout, segsize):
    root = root % size
    schedules = [
        build_ibcast(size, r, root, nbytes, fanout, segsize) for r in range(size)
    ]
    assert_sends_match_recvs(schedules)
    for rank, sched in enumerate(schedules):
        recv_bytes = sum(
            op.nbytes for rnd in sched.rounds for op in rnd if op.kind == "recv"
        )
        assert recv_bytes == (0 if rank == root else nbytes)


@settings(max_examples=40, deadline=None)
@given(size=sizes, fanout=st.sampled_from(IBCAST_FANOUTS))
def test_bcast_tree_is_a_spanning_tree(size, fanout):
    parents = {}
    for v in range(size):
        parent, children = bcast_tree(size, v, fanout)
        for c in children:
            assert c not in parents, "child claimed twice"
            parents[c] = v
        if v == 0:
            assert parent == -1
    # every non-root vertex has exactly one parent and can reach the root
    assert set(parents) == set(range(1, size))
    for v in range(1, size):
        seen = set()
        while v != 0:
            assert v not in seen, "cycle in bcast tree"
            seen.add(v)
            v = parents[v]


@settings(max_examples=25, deadline=None)
@given(size=sizes)
def test_binomial_tree_depth_is_logarithmic(size):
    def depth(v):
        d = 0
        while v != 0:
            parent, _ = bcast_tree(size, v, BINOMIAL)
            v = parent
            d += 1
        return d

    assert max(depth(v) for v in range(size)) <= math.ceil(math.log2(size))


# ---------------------------------------------------------------------------
# allgather / reduce
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(size=sizes, m=blocks, algorithm=st.sampled_from(["ring", "linear"]))
def test_allgather_sends_match_recvs(size, m, algorithm):
    schedules = [bind(*compiled_iallgather(size, r, m, algorithm))
                 for r in range(size)]
    assert_sends_match_recvs(schedules)
    for sched in schedules:
        assert sum(
            op.nbytes for rnd in sched.rounds for op in rnd if op.kind == "recv"
        ) == (size - 1) * m


@settings(max_examples=20, deadline=None)
@given(exp=st.integers(1, 4), m=blocks)
def test_allgather_recursive_doubling_matches(exp, m):
    size = 1 << exp
    schedules = [
        bind(*compiled_iallgather(size, r, m, "recursive_doubling"))
        for r in range(size)
    ]
    assert_sends_match_recvs(schedules)


@settings(max_examples=30, deadline=None)
@given(size=sizes, root=st.integers(0, 16), nbytes=st.integers(8, 100_000),
       algorithm=st.sampled_from(["binomial", "chain"]))
def test_reduce_sends_match_recvs(size, root, nbytes, algorithm):
    root = root % size
    nbytes -= nbytes % 8  # combine ops need dtype-aligned sizes
    nbytes = max(nbytes, 8)
    schedules = [
        build_ireduce(size, r, root, nbytes, algorithm) for r in range(size)
    ]
    assert_sends_match_recvs(schedules)
    # only the root contributes no upward send
    for rank, sched in enumerate(schedules):
        sends = sched.count_ops("send")
        if rank == root:
            assert sends == 0
        else:
            assert sends >= 1


# ---------------------------------------------------------------------------
# tag-span uniformity (regression: consecutive collectives must not
# desynchronize the per-rank tag counters)
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(size=sizes, nbytes=st.one_of(st.just(0), st.integers(1, 12_500)),
       counts=st.lists(st.sampled_from((0, 0, 5, 8, 1001)), min_size=17,
                       max_size=17),
       node=st.integers(1, 4), root=st.integers(0, 16))
@example(size=6, nbytes=0, counts=[0] * 17, node=2, root=3)
@example(size=5, nbytes=3, counts=[8, 0, 0, 5, 0] + [0] * 12, node=3, root=4)
def test_tag_span_is_rank_independent_for_every_builder(size, nbytes, counts,
                                                         node, root):
    """Every rank of every row of every table (the broadcast's includes
    the scatter+allgather mock-up) reserves the same tag span, also when ranks drop the ops of their
    empty blocks (an empty payload, or the all-gather-v blocks
    ``counts`` leaves empty)."""
    nbytes *= 8
    m = nbytes // size
    counts = counts[:size]
    groups = tuple(tuple(range(n, min(n + node, size)))
                   for n in range(0, size, node))
    root %= size
    rows = [
        (ALLTOALL_ALGORITHMS,
         lambda r, a: compiled_ialltoall(size, r, m, a, groups)),
        (ALLGATHER_ALGORITHMS,
         lambda r, a: compiled_iallgather(size, r, m, a)),
        (ALLGATHERV_ALGORITHMS,
         lambda r, a: compiled_iallgatherv(size, r, counts, a, groups)),
        (ALLREDUCE_ALGORITHMS,
         lambda r, a: compiled_iallreduce(size, r, nbytes, a, groups=groups)),
        (BCAST_ALGORITHMS,
         lambda r, a: compiled_ibcast(size, r, root, nbytes, a, 1 << 15,
                                      groups)),
        (REDUCE_ALGORITHMS,
         lambda r, a: compiled_ireduce(size, r, root, nbytes, a,
                                       segsize=1 << 14)),
        (REDUCE_SCATTER_ALGORITHMS,
         lambda r, a: compiled_ireduce_scatter(size, r, m - m % 8, a)),
    ]
    for algorithms, plan in rows:
        for a in algorithms:
            if a == "recursive_doubling" and size & (size - 1):
                continue
            spans = {plan(r, a)[0].tag_span for r in range(size)}
            assert len(spans) == 1, f"{a}: rank-dependent tag span {spans}"


def test_consecutive_reduces_do_not_mismatch_tags():
    """Regression: leaves reserve as many tags as interior nodes, so a
    second reduce on the same communicator still matches correctly."""
    import numpy as np

    from repro.nbc import start_ireduce
    from repro.sim import SimWorld, Wait, get_platform

    world = SimWorld(get_platform("whale"), 4)
    results = {}

    def prog(ctx):
        buf1 = np.full(4, float(ctx.rank + 1))
        req = start_ireduce(ctx, buf1.nbytes, algorithm="binomial", buf=buf1)
        yield Wait(req)
        buf2 = np.full(4, 2.0 * (ctx.rank + 1))
        req = start_ireduce(ctx, buf2.nbytes, algorithm="binomial", buf=buf2)
        yield Wait(req)
        if ctx.rank == 0:
            results["first"] = buf1[0]
            results["second"] = buf2[0]

    world.launch(prog)
    world.run()
    assert results["first"] == 10.0   # 1+2+3+4
    assert results["second"] == 20.0  # 2+4+6+8
