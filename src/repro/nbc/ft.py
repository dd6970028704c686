"""Fault-tolerant execution of NBC collectives (ULFM recovery pattern).

A non-blocking collective schedule is built against a fixed communicator
size, so a rank crash mid-collective leaves the survivors holding rounds
that can never complete.  :func:`ft_loop` is the one User-Level Failure
Mitigation recovery loop; :func:`ft_collective` (one collective) and the
overlap driver's ``ULFM`` mode (a tuning loop) both run through it:

1. a member that catches :class:`~repro.errors.RankFailedError` /
   :class:`~repro.errors.CommRevokedError` **revokes** the communicator,
   which interrupts every other member's pending operations, and
   contributes the :data:`RECOVERING` marker to an **agree**;
2. a member that finished contributes its result to the same
   *finishing agreement* (``min``) — the uniform-completion test: a
   member may complete locally (a broadcast subtree, the last barrier)
   while others saw the failure, and :data:`RECOVERING` tells it so;
3. then everybody **shrinks** to the same dense survivor communicator,
   repairs against it and re-enters the loop, retrying the work.

Stale messages of an aborted attempt can never match the retry: the
shrunken communicator has a fresh ``comm_id``, and within one
communicator every attempt reserves a fresh collective tag block.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..errors import CommRevokedError, RankFailedError
from ..sim.mpi import MPIContext, SimComm
from ..sim.process import Wait
from .request import NBCRequest

__all__ = ["RECOVERING", "ft_collective", "ft_loop"]

#: agreement contribution of a member that saw a failure; finishing
#: members contribute values above it, so ``min`` reports any recovery
RECOVERING = -2


def ft_loop(ctx: MPIContext, comm: SimComm, step: Callable,
            done: Callable[[SimComm], bool], value: Callable[[], int],
            on_repair: Callable[[SimComm], None],
            max_repairs: Optional[int] = None):
    """Run generator ``step(ctx, comm)`` until ``done(comm)``, with repair.

    Every live member of ``comm`` calls this collectively.  A finished
    member contributes ``value()`` (above :data:`RECOVERING`);
    ``on_repair(newcomm)`` runs on every survivor after each shrink.
    Returns ``(agreed, comm, repairs)``: the ``min`` of the survivors'
    ``value()``, the final communicator and the number of repairs.
    Raises the last failure once ``max_repairs`` is exhausted.
    """
    repairs = 0
    last_exc: Optional[BaseException] = None
    while True:
        try:
            while not done(comm):
                yield from step(ctx, comm)
            mine = value()
        except (RankFailedError, CommRevokedError) as exc:
            last_exc = exc
            # interrupt everyone still blocked on the dead work
            comm.revoke(ctx)
            mine = RECOVERING
        agreed = yield from comm.agree(ctx, mine, op="min")
        if agreed != RECOVERING:
            return agreed, comm, repairs
        repairs += 1
        if max_repairs is not None and repairs > max_repairs:
            raise last_exc or RankFailedError(
                f"rank {ctx.rank}: max_repairs={max_repairs} is exhausted",
                ctx.dead_ranks)
        comm.revoke(ctx)
        comm = comm.shrink()
        on_repair(comm)


def ft_collective(
    ctx: MPIContext,
    start: Callable[[MPIContext, SimComm], NBCRequest],
    comm: Optional[SimComm] = None,
    max_repairs: Optional[int] = None,
):
    """Run ``start(ctx, comm)`` under :func:`ft_loop` (generator).

    ``start`` must build *and post* the collective against the
    communicator it is given (e.g. ``lambda ctx, comm:
    start_ibcast(ctx, nbytes, comm=comm)``); it is re-invoked against
    the shrunken communicator after every repair.  Every live member of
    ``comm`` calls this collectively.  Returns ``(request, comm,
    repairs)``: the completed request, the communicator it completed on
    and the number of repairs.  Use as ``req, comm, repairs = yield
    from ft_collective(ctx, ...)``.
    """
    completed: dict[int, NBCRequest] = {}  # comm_id -> finished request

    def step(ctx, comm):
        req = start(ctx, comm)
        yield Wait(req)
        completed[comm.comm_id] = req

    _, comm, repairs = yield from ft_loop(
        ctx, comm or ctx.comm_world, step,
        lambda comm: comm.comm_id in completed, lambda: 1,
        lambda comm: None, max_repairs,
    )
    return completed[comm.comm_id], comm, repairs
