"""The broadcast table's scatter+allgather row (the Bcast ≼
Scatter+Allgather mock-up) on payloads that leave blocks empty.

Its blocks are the ``ceil(n/P)``-byte segments of the payload, so when
``n`` runs out before the ranks do, the last blocks are empty (P=12,
n=11) and, for some sizes, more than one (P=4, n=5: 2+2+1+0).  These
geometries used to raise on a negative block or send 0-byte messages;
an empty block must move no message in either phase, and every rank
must still end with the root's bytes.
"""

import numpy as np
import pytest

from repro.nbc import compiled_ibcast, start_plan
from repro.sim import Wait

#: (nranks, nbytes) whose ceil split leaves at least one empty block
#: (an empty payload leaves them all empty); the composition guideline
#: PG-COMP-BCAST-SCATTER-ALLGATHER applies at P=7, n=22
GEOMETRIES = ((4, 5), (7, 22), (5, 12), (12, 11), (5, 11), (3, 0))


def _payload(nbytes):
    return (np.arange(nbytes) * 7 + 3).astype(np.uint8)


@pytest.mark.parametrize("size, nbytes", GEOMETRIES)
def test_every_rank_and_root_compiles_without_empty_messages(size, nbytes):
    for root in range(size):
        for rank in range(size):
            plan, _ = compiled_ibcast(size, rank, root, nbytes,
                                      "scatter_allgather", 0)
            assert plan.tag_span == size
            assert all(op.nbytes > 0 for rnd in plan.rounds for op in rnd
                       if op.kind in ("send", "recv"))


@pytest.mark.parametrize("size, nbytes", GEOMETRIES)
def test_every_rank_ends_with_the_roots_bytes(run_collective, size, nbytes):
    want = _payload(nbytes)
    for root in range(size):
        def body(ctx, out, root=root):
            data = (want.copy() if ctx.rank == root
                    else np.full(nbytes, 0xFF, dtype=np.uint8))
            plan, peers = compiled_ibcast(size, ctx.rank, root, nbytes,
                                          "scatter_allgather", 0)
            yield Wait(start_plan(ctx, ctx.comm_world, ctx.rank, plan, peers,
                                  data=data))
            out["data"] = data

        results = run_collective(size, body)
        for rank in range(size):
            assert results[rank]["data"].tobytes() == want.tobytes(), (
                root, rank)
