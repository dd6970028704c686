"""Shared helpers for running collectives to completion in a fresh world."""

import numpy as np
import pytest

from repro.sim import SimWorld, Wait, get_platform


@pytest.fixture
def run_collective():
    """Run one collective across ``nprocs`` ranks and collect results.

    The supplied ``body(ctx, out)`` is a generator taking the context
    and a per-rank result dict; results are returned indexed by rank.
    """

    def _run(nprocs, body, platform="whale", placement="block"):
        world = SimWorld(get_platform(platform), nprocs, placement=placement)
        results = {}

        def factory(ctx):
            out = results.setdefault(ctx.rank, {})
            return body(ctx, out)

        world.launch(factory)
        world.run()
        return results

    return _run


def alltoall_sendbuf(rank, size, m):
    """Deterministic per-rank all-to-all payload: block j = rank*size + j."""
    blocks = [
        np.full(m, (rank * size + j) % 251, dtype=np.uint8) for j in range(size)
    ]
    return np.concatenate(blocks)


def alltoall_expected(rank, size, m):
    """recv block j must contain sender j's block addressed to ``rank``."""
    blocks = [
        np.full(m, (j * size + rank) % 251, dtype=np.uint8) for j in range(size)
    ]
    return np.concatenate(blocks)


def bound_rounds(sched, peers):
    """A schedule's rounds with every peer slot resolved through ``peers``.

    Two plans that bind to equal results post the same operations, in
    the same order, to the same ranks.
    """
    return [
        [(op.kind, peers[op.peer], op.nbytes, op.tagoff, op.src)
         if op.kind == "send" else
         (op.kind, peers[op.peer], op.nbytes, op.tagoff, op.dst)
         if op.kind == "recv" else
         (op.kind, op.nbytes, op.src, op.dst)
         for op in rnd]
        for rnd in sched.rounds
    ]
