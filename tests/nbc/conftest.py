"""Shared helpers for running collectives to completion in a fresh world."""

import hashlib

import numpy as np
import pytest

from repro.nbc.schedule import Schedule
from repro.sim import SimWorld, get_platform


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


def byte_range(spec, peers):
    """A buffer spec as the absolute ``(name, offset, nbytes)`` range it
    names when bound to ``peers`` (a slot-relative spec names block
    ``peers[slot]``)."""
    if spec is None or len(spec) == 3:
        return spec
    name, slot, nbytes, _ = spec
    return (name, peers[slot] * nbytes, nbytes)


def digest(obj) -> str:
    """A short stable digest of ``repr(obj)``."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def concrete(plan, peers):
    """Everything one rank's bound plan does, as plain data: its name,
    tag span, scratch and user extents and, per op, its kind, peer rank,
    size, tag offset, absolute byte ranges and reduction."""
    return (
        plan.name, plan.tag_span,
        sorted(plan.scratch.items()), sorted(plan.user_extents.items()),
        [[(op.kind,
           peers[op.peer] if op.kind in ("send", "recv") else None,
           op.nbytes, getattr(op, "tagoff", None),
           byte_range(getattr(op, "src", None), peers),
           byte_range(getattr(op, "dst", None), peers),
           getattr(op, "dtype", None), getattr(op, "op", None))
          for op in rnd] for rnd in plan.rounds],
    )


def bound_rounds(sched, peers):
    """A schedule's rounds bound to ``peers`` (see :func:`bind`), as
    plain tuples.

    Two plans that bind to equal results post the same operations, in
    the same order, to the same ranks, on the same bytes.
    """
    return [
        [(op.kind, op.peer, op.nbytes, op.tagoff, op.src)
         if op.kind == "send" else
         (op.kind, op.peer, op.nbytes, op.tagoff, op.dst)
         if op.kind == "recv" else
         (op.kind, op.nbytes, op.src, op.dst)
         for op in rnd]
        for rnd in bind(sched, peers).rounds
    ]


def bind(plan, peers) -> Schedule:
    """One rank's concrete schedule: ``plan`` bound to ``peers``.

    Every peer slot becomes the rank it names and every slot-relative
    block its absolute byte range, so per-rank properties (who sends
    what to whom) read straight off the ops.  Tests that need one
    rank's ops of a template bind it through here.
    """
    out = Schedule(plan.name)
    out.tag_span = plan.tag_span
    for rnd in plan.rounds:
        out.round()
        for op in rnd:
            if op.kind == "send":
                out.send(peers[op.peer], op.nbytes, op.tagoff,
                         byte_range(op.src, peers))
            elif op.kind == "recv":
                out.recv(peers[op.peer], op.nbytes, op.tagoff,
                         byte_range(op.dst, peers))
            elif op.kind == "copy":
                out.copy(op.nbytes, byte_range(op.src, peers),
                         byte_range(op.dst, peers))
            else:
                out.combine(op.nbytes, byte_range(op.src, peers),
                            byte_range(op.dst, peers), op.dtype, op.op)
    return out
