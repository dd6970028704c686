"""Structural tests for the predefined function-sets (§III-E)."""

from functools import partial

import numpy as np
import pytest

from repro.adcl import (
    CollSpec,
    iallgather_function_set,
    ialltoall_extended_function_set,
    ialltoall_function_set,
    ibcast_function_set,
    ireduce_function_set,
)
from repro.adcl.fnsets import (
    IBCAST_SEGSIZES,
    iallgatherv_function_set,
    iallreduce_function_set,
    ireduce_scatter_function_set,
)
from repro.bench.overlap import OPERATION_KINDS, function_set_for
from repro.errors import AdclError
from repro.nbc import (
    ALLGATHER_ALGORITHMS,
    ALLGATHERV_ALGORITHMS,
    ALLREDUCE_ALGORITHMS,
    ALLTOALL_ALGORITHMS,
    BCAST_ALGORITHMS,
    HIER,
    REDUCE_ALGORITHMS,
    REDUCE_SCATTER_ALGORITHMS,
)
from repro.nbc.hier import partition_for_comm
from repro.nbc.iallgatherv import balanced_counts
from repro.nbc.ibcast import IBCAST_FANOUTS
from repro.sim import SimWorld, Wait, get_platform
from repro.units import KiB


def test_ibcast_set_has_paper_shape():
    fnset = ibcast_function_set()
    assert len(fnset) == 21  # 7 fan-outs x 3 segment sizes
    assert fnset.attribute_set == {
        "fanout": IBCAST_FANOUTS, "segsize": IBCAST_SEGSIZES}
    assert list(fnset.attribute_set) == ["fanout", "segsize"]
    # every combination appears exactly once
    for fanout in IBCAST_FANOUTS:
        for segsize in IBCAST_SEGSIZES:
            assert len(fnset.subset_where(fanout=fanout, segsize=segsize)) == 1


def test_ibcast_function_names_follow_convention():
    fnset = ibcast_function_set()
    names = {f.name for f in fnset}
    assert "linear_seg32KB" in names
    assert "chain_seg64KB" in names
    assert "binomial_seg128KB" in names
    assert "3ary_seg32KB" in names


def test_ialltoall_set_matches_paper():
    fnset = ialltoall_function_set()
    assert [f.name for f in fnset] == ["linear", "dissemination", "pairwise"]
    assert not any(f.blocking for f in fnset)


def test_extended_set_adds_blocking_variants():
    fnset = ialltoall_extended_function_set()
    assert len(fnset) == 6
    blocking = {f.name for f in fnset if f.blocking}
    assert blocking == {
        "blocking_linear", "blocking_dissemination", "blocking_pairwise"
    }
    assert set(fnset.attribute_set) == {"algorithm", "blocking"}


def test_iallgather_set_respects_power_of_two():
    assert len(iallgather_function_set(size=8)) == 3
    assert len(iallgather_function_set(size=6)) == 2
    names6 = {f.name for f in iallgather_function_set(size=6)}
    assert "recursive_doubling" not in names6


def test_ireduce_set_cross_product():
    fnset = ireduce_function_set()
    assert len(fnset) == 4  # 2 algorithms x 2 segment settings
    assert [len(v) for v in fnset.attribute_set.values()] == [2, 2]


#: function-set -> (factory, its family's table keys, the rows the set
#: leaves out on purpose)
TABLE_SETS = {
    # the two-level row joins only the hierarchical sets
    "ialltoall": (ialltoall_function_set, ALLTOALL_ALGORITHMS, {HIER}),
    "ialltoall_hier": (partial(ialltoall_function_set, hierarchical=True),
                       ALLTOALL_ALGORITHMS, set()),
    "ialltoall_ext": (ialltoall_extended_function_set, ALLTOALL_ALGORITHMS,
                      {HIER}),
    # the scatter+allgather row is the guideline mock-up, not a candidate
    "ibcast": (ibcast_function_set, BCAST_ALGORITHMS,
               {HIER, "scatter_allgather"}),
    "ibcast_hier": (partial(ibcast_function_set, hierarchical=True),
                    BCAST_ALGORITHMS, {"scatter_allgather"}),
    "iallgather": (partial(iallgather_function_set, size=8),
                   ALLGATHER_ALGORITHMS, set()),
    # recursive doubling needs a power-of-two size
    "iallgather_size5": (partial(iallgather_function_set, size=5),
                         ALLGATHER_ALGORITHMS, {"recursive_doubling"}),
    "ireduce": (ireduce_function_set, REDUCE_ALGORITHMS, set()),
    "iallgatherv": (iallgatherv_function_set, ALLGATHERV_ALGORITHMS, set()),
    "ireduce_scatter": (ireduce_scatter_function_set,
                        REDUCE_SCATTER_ALGORITHMS, set()),
    "iallreduce": (iallreduce_function_set, ALLREDUCE_ALGORITHMS, set()),
}


@pytest.mark.parametrize("name", sorted(TABLE_SETS))
def test_every_table_row_reaches_its_function_set(name):
    factory, table, excluded = TABLE_SETS[name]
    assert excluded <= set(table)
    # each maker is partial(family maker, algorithm, ...)
    bound = list(dict.fromkeys(f.maker.args[0] for f in factory()))
    assert bound == [a for a in table if a not in excluded]


def test_index_of_and_errors():
    fnset = ialltoall_function_set()
    assert fnset.index_of("pairwise") == 2
    with pytest.raises(AdclError):
        fnset.index_of("alltoallw")


@pytest.mark.parametrize("factory,kind,nbytes", [
    (ialltoall_function_set, "alltoall", 1 * KiB),
    (ialltoall_extended_function_set, "alltoall", 1 * KiB),
    (ibcast_function_set, "bcast", 8 * KiB),
    (lambda: iallgather_function_set(size=4), "allgather", 1 * KiB),
    (ireduce_function_set, "reduce", 1 * KiB),
] + [
    pytest.param(partial(function_set_for, op), kind, 1 * KiB, id=op)
    for op, kind in sorted(OPERATION_KINDS.items())
])
def test_every_function_runs_to_completion(factory, kind, nbytes):
    """Smoke: every maker in every set produces a runnable schedule."""
    fnset = factory()
    world = SimWorld(get_platform("whale"), 4)
    spec = CollSpec(kind, world.comm_world, nbytes)

    def program(ctx):
        for fn in fnset:
            handle = fn.maker(ctx, spec, None)
            yield Wait(handle)

    world.launch(program)
    world.run()  # raises on deadlock / structural problems


# ---------------------------------------------------------------------------
# data path: every maker moves real buffers to the numpy reference result
# ---------------------------------------------------------------------------

#: five ranks on BlueGene/P's 4-core nodes: a 2-node partition {0..3}, {4}
P = 5
DATA_PLATFORM = "bluegene_p"
#: not its node's first member, so the rooted makers must pass it through
ROOT = 2


def _bytes(rank: int, n: int) -> np.ndarray:
    """``n`` payload bytes that differ per rank and per position."""
    return ((np.arange(n) * 7 + rank * 31 + 1) % 251).astype(np.uint8)


def _ints(rank: int, n: int) -> np.ndarray:
    """Integer-valued float64 vector: sums are exact in any order."""
    return np.arange(n, dtype=np.float64) * (rank + 1) + rank


def _alltoall_case(m=13):
    def buffers(rank):
        return {"send": _bytes(rank, P * m), "recv": np.zeros(P * m, np.uint8)}

    def expect(rank):
        return "recv", np.concatenate(
            [_bytes(src, P * m)[rank * m:(rank + 1) * m] for src in range(P)])

    return m, buffers, expect


def _bcast_case(nbytes=70_001):  # three 32 KB segments, the last partial
    def buffers(rank):
        return {"data": _bytes(ROOT, nbytes) if rank == ROOT
                else np.zeros(nbytes, np.uint8)}

    return nbytes, buffers, lambda rank: ("data", _bytes(ROOT, nbytes))


def _allgather_case(m=13):
    def buffers(rank):
        return {"send": _bytes(rank, m), "recv": np.zeros(P * m, np.uint8)}

    return m, buffers, lambda rank: (
        "recv", np.concatenate([_bytes(src, m) for src in range(P)]))


def _allgatherv_case(total=23):
    counts = balanced_counts(total, P)
    assert len(set(counts)) == 2  # uneven: the v-path is exercised

    def buffers(rank):
        return {"send": _bytes(rank, counts[rank]),
                "recv": np.zeros(total, np.uint8)}

    return total, buffers, lambda rank: (
        "recv", np.concatenate([_bytes(src, counts[src]) for src in range(P)]))


def _reduce_scatter_case(n=3):  # n float64 per block
    def buffers(rank):
        return {"data": _ints(rank, P * n), "recv": np.zeros(n)}

    def expect(rank):
        return "recv", sum(_ints(src, P * n) for src in range(P))[
            rank * n:(rank + 1) * n]

    return 8 * n, buffers, expect


def _allreduce_case(n=7):
    return 8 * n, lambda rank: {"data": _ints(rank, n)}, lambda rank: (
        "data", sum(_ints(src, n) for src in range(P)))


def _reduce_case(n=7):
    def expect(rank):
        if rank != ROOT:
            return None
        return "data", sum(_ints(src, n) for src in range(P))

    return 8 * n, lambda rank: {"data": _ints(rank, n)}, expect


DATA_CASES = {
    "alltoall": _alltoall_case,
    "bcast": _bcast_case,
    "allgather": _allgather_case,
    "allgatherv": _allgatherv_case,
    "reduce_scatter": _reduce_scatter_case,
    "allreduce": _allreduce_case,
    "reduce": _reduce_case,
}


@pytest.mark.parametrize("factory,kind", [
    pytest.param(partial(function_set_for, op), kind, id=op)
    for op, kind in sorted(OPERATION_KINDS.items())
] + [
    pytest.param(partial(iallgather_function_set, size=P), "allgather",
                 id="allgather"),
    pytest.param(ireduce_function_set, "reduce", id="reduce"),
])
def test_every_function_moves_data(factory, kind):
    """Every maker maps its buffer dict onto the collective and the
    result matches the numpy reference, on an uneven two-node P=5."""
    fnset = factory()
    nbytes, buffers, expect = DATA_CASES[kind]()
    world = SimWorld(get_platform(DATA_PLATFORM), P)
    assert len(partition_for_comm(world.comm_world, world.topology).groups) == 2
    spec = CollSpec(kind, world.comm_world, nbytes, root=ROOT)
    wrong = []

    def program(ctx):
        rank = ctx.rank
        for fn in fnset:
            bufs = buffers(rank)
            yield Wait(fn.maker(ctx, spec, bufs))
            want = expect(rank)
            if want is not None and not np.array_equal(bufs[want[0]], want[1]):
                wrong.append((fn.name, rank))

    world.launch(program)
    world.run()
    assert not wrong


def test_spec_validation():
    world = SimWorld(get_platform("whale"), 4)
    with pytest.raises(AdclError):
        CollSpec("alltoall", world.comm_world, -1)
    with pytest.raises(AdclError):
        CollSpec("bcast", world.comm_world, 16, root=9)
    spec = CollSpec("alltoall", world.comm_world, 64)
    assert "P4" in spec.signature() and "B64" in spec.signature()
