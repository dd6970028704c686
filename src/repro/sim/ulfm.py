"""ULFM-style process-failure handling, mixed into ``SimComm``/``SimWorld``.

:class:`ULFMComm` holds the communicator primitives (revoke, shrink,
agree); :class:`ULFMWorld` the world's reaction to a rank crash, the
revoke sweep, the agreement commit, and the sticky failure notices that
are thrown into rank programs at their next MPI syscall.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from ..errors import CommRevokedError, RankFailedError, SimulationError
from .process import RecvRequest, Wait, Waitable

if TYPE_CHECKING:
    from .faults import RankCrash
    from .mpi import SimComm, _RankState
    from .transport import MPIContext


class _AgreeHandle(Waitable):
    """Completion handle of one rank's :meth:`SimComm.agree` call.

    Waits on it are *uninterruptible*: agreement must complete even when
    new failures are reported mid-protocol (the ULFM guarantee), so the
    sticky failure-notification machinery skips ranks blocked on one.
    """

    __slots__ = ("comm", "inst", "state")

    def __init__(self, comm: SimComm, inst: int, state: _AgreeState):
        super().__init__()
        self.comm, self.inst, self.state = comm, inst, state


class _AgreeState:
    """Shared state of one :meth:`SimComm.agree` instance (internal)."""

    __slots__ = ("op", "contrib", "waiters", "decided", "result")

    def __init__(self, op: str):
        self.op = op
        #: world rank -> contributed value
        self.contrib: dict[int, int] = {}
        #: ``(world_rank, handle)`` pairs blocked on the decision
        self.waiters: list[tuple[int, Waitable]] = []
        self.decided = False
        self.result: Optional[int] = None


class ULFMComm:
    """The failure-handling half of :class:`SimComm` (a mixin)."""

    def live_ranks(self) -> list[int]:
        """World ranks of this communicator that are still alive."""
        dead = self.world._dead
        if not dead:
            return list(self.ranks)
        return [r for r in self.ranks if r not in dead]

    def failed_ranks(self) -> list[int]:
        """World ranks of this communicator known to have crashed."""
        dead = self.world._dead
        if not dead:
            return []
        return [r for r in self.ranks if r in dead]

    def revoke(self, ctx: Optional[MPIContext] = None) -> None:
        """Revoke the communicator (``MPIX_Comm_revoke``).

        Idempotent.  Every member's pending operations on this
        communicator fail with :class:`~repro.errors.CommRevokedError`,
        blocked members are interrupted, and any further post on it
        raises — so all survivors converge into the recovery path
        instead of hanging on a half-dead collective.

        Pass the calling rank's ``ctx`` when revoking from a recovery
        path: the initiator's own leftover requests on the communicator
        are then failed *silently* (no new failure notification — it
        already knows, it is the one recovering).
        """
        if self.revoked:
            return
        self.revoked = True
        initiator = ctx.rank if ctx is not None else None
        self.world._revoke_sweep(self, initiator)

    def shrink(self) -> SimComm:
        """New dense communicator over the survivors (``MPIX_Comm_shrink``).

        The surviving ranks keep their relative order and are renumbered
        densely from 0.  Memoized on the dead subset: every member that
        shrinks after the same set of failures receives the *same*
        communicator object (the replicated-state equivalent of shrink's
        agreement on the failed group), with a fresh ``comm_id`` so
        stale messages from the revoked parent can never match.
        """
        dead = frozenset(self.failed_ranks())
        got = self._shrunk.get(dead)
        if got is None:
            got = self.world.make_comm(r for r in self.ranks if r not in dead)
            self._shrunk[dead] = got
        return got

    def agree(self, ctx: MPIContext, value: int, op: str = "and"):
        """Fault-tolerant agreement (generator, ``MPIX_Comm_agree``).

        Every live member must call this collectively (in the same order
        relative to other ``agree`` calls on this communicator); each
        contributes ``value`` and all receive the same result: the
        bitwise AND (or ``min``/``max``) over the contributions of the
        ranks still alive when the decision commits.  Ranks that die
        mid-protocol are excluded and never block the decision; the call
        works on revoked communicators (recovery needs it).

        The protocol is modeled at the same level as the hard
        :class:`~repro.sim.process.Barrier`: the decision commits on
        shared replicated state once every live member contributed
        (crashes re-trigger the commit check), and completion is charged
        the cost of an up-and-down sweep of a binomial tree over the
        survivor group.  Use ``yield from comm.agree(ctx, v)``.
        """
        if op not in ("and", "min", "max"):
            raise SimulationError(f"unknown agree op {op!r}")
        local = self.local_rank(ctx.rank)
        inst = self._agree_seq[local]
        self._agree_seq[local] = inst + 1
        state = self._agree_state.get(inst)
        if state is None:
            state = _AgreeState(op)
            self._agree_state[inst] = state
        elif state.op != op:
            raise SimulationError(
                f"agree op mismatch: rank {ctx.rank} used {op!r}, "
                f"others used {state.op!r}"
            )
        state.contrib[ctx.rank] = int(value)
        handle = _AgreeHandle(self, inst, state)
        ctx.charge(self.world.params.o_send)  # entering the protocol
        self.world._agree_join(self, state, ctx.rank, handle)
        yield Wait(handle)
        return state.result


class ULFMWorld:
    """Rank crashes, revoke sweeps and agreement commits of
    :class:`SimWorld` (a mixin over the world's rank states)."""

    @staticmethod
    def _interruptible(items) -> bool:
        """Whether a failure may be thrown into a rank waiting on ``items``.

        Agreement waits are exempt: ULFM guarantees ``agree`` completes
        despite failures reported mid-protocol, so pending notifications
        stay queued until the agreement finishes (where they are
        consumed — see :meth:`_agree_finish`).
        """
        return not all(isinstance(i, _AgreeHandle) for i in items)

    def _deliver_failure(self, st: _RankState) -> None:
        """Interrupt a *blocked* rank holding unreported failures."""
        if st.dead or st.finished or not st.failed_excs:
            return
        if st.waiting is None:
            return  # not blocked: it learns at its next MPI syscall
        if not self._interruptible(st.waiting):
            return  # blocked inside agree: immune until it completes
        self._throw(st.id, st.failed_excs[0])

    def _fail_request(self, st: _RankState, req, exc: BaseException,
                      notify: bool = True) -> None:
        """Permanently fail one of ``st``'s open requests.

        The request leaves the open-request index.  With ``notify=False``
        it is marked failed but no sticky failure notification is queued
        — used when the owning rank itself triggered the failure (it
        revoked the communicator) and a notification would only
        re-interrupt its recovery.
        """
        del st.open[req]
        req.failed = exc
        if notify:
            st.failed_excs.append(exc)
        st.n_active -= 1
        if isinstance(req, RecvRequest):
            key = (req.peer, req.tag, req.comm_id)
            queue = st.posted.get(key)
            if queue and req in queue:
                queue.remove(req)
                if not queue:
                    del st.posted[key]

    def _on_rank_crash(self, crash: RankCrash) -> None:
        """A :class:`~repro.sim.faults.RankCrash` fired: kill the rank.

        The dead rank's program is closed and its driver state wiped;
        every survivor's open request that depends on it is failed with
        :class:`~repro.errors.RankFailedError`, blocked survivors are
        interrupted immediately, the hard barrier is re-evaluated over
        the live group, and pending agreements re-check their commit
        condition (a dead rank must never block a decision).
        """
        rank = crash.rank
        st = self._ranks[rank]
        if st.dead or st.finished:
            return  # already dead, or finished before the crash hit
        now = self.sim.now
        st.dead = True
        self._dead.add(rank)
        if self._obs is not None:
            self._obs.instant("fault", "fault.crash", rank, now,
                              {"respawn_delay": crash.respawn_delay})
            self._obs.metrics.counter("sim.ranks_crashed").inc()
        st.finish_time = now
        st.waiting = None
        st.wait_t0 = None
        st.failed_excs.clear()
        st.pending_cts.clear()
        st.pending_data.clear()
        st.posted.clear()
        st.unexpected.clear()
        st.open.clear()
        st.n_active = 0
        if st.gen is not None:
            st.gen.close()
            st.gen = None
            st.gen_send = None
            self._n_unfinished -= 1
            if self._n_unfinished == 0:
                self.sim.halt()
        if rank in self._barrier_waiting:
            self._barrier_waiting.remove(rank)
        self._barrier_maybe_release()
        exc = RankFailedError(
            f"rank {rank} crashed at t={now:.6f}s", frozenset(self._dead)
        )
        for other in self._ranks:
            if other.dead or other.finished:
                continue
            # the dead peer's requests, in post order
            for req in [r for r in other.open if r.peer == rank]:
                self._fail_request(other, req, exc)
        if self._agree_pending:
            still = []
            for comm, state in self._agree_pending:
                if not state.decided:
                    self._agree_try_commit(comm, state)
                if not state.decided:
                    still.append((comm, state))
            self._agree_pending = still
        for other in list(self._ranks):
            self._deliver_failure(other)

    def _revoke_sweep(self, comm: SimComm,
                      initiator: Optional[int] = None) -> None:
        """Fail every live rank's pending operations on a revoked comm.

        Interrupting blocked members is deferred by a zero-delay event so
        a revoke issued from inside one rank's program frame never drives
        another rank's generator reentrantly.  The ``initiator`` rank
        (the one that called revoke, already in its recovery path) has
        its leftover requests failed without queueing a notification.
        """
        cid = comm.comm_id
        now = self.sim.now
        for st in self._ranks:
            if st.dead or st.finished:
                continue
            notify = st.id != initiator
            doomed = [req for req in st.open if req.comm_id == cid]
            for req in doomed:
                self._fail_request(st, req, CommRevokedError(
                    f"communicator {cid} revoked at t={now:.6f}s"
                ), notify=notify)
            if st.pending_cts:
                st.pending_cts = [m for m in st.pending_cts if m.comm_id != cid]
            if st.pending_data:
                st.pending_data = [m for m in st.pending_data if m.comm_id != cid]
            for key in [k for k in st.unexpected if k[2] == cid]:
                del st.unexpected[key]
            if notify and doomed and st.waiting is not None:
                self._post(now, self._deliver_failure, st)

    def _agree_join(self, comm: SimComm, state: _AgreeState, rank: int,
                    handle: Waitable) -> None:
        state.waiters.append((rank, handle))
        if state.decided:
            # late joiner after the decision committed (defensive; a live
            # member cannot be late — commit waits for all live members)
            self._post(self.sim.now, self._agree_finish, rank, handle)
            return
        if len(state.waiters) == 1:
            self._agree_pending.append((comm, state))
        self._agree_try_commit(comm, state)

    def _agree_try_commit(self, comm: SimComm, state: _AgreeState) -> None:
        """Commit the agreement once every live member contributed.

        Re-invoked from :meth:`_on_rank_crash`, so a rank dying
        mid-protocol shrinks the required contributor set instead of
        blocking the decision forever; contributions from ranks that
        died before the commit are excluded (ULFM allows either).
        """
        if state.decided:
            return
        live = [r for r in comm.ranks if r not in self._dead]
        contrib = state.contrib
        if not live or any(r not in contrib for r in live):
            return
        vals = [contrib[r] for r in live]
        if state.op == "and":
            result = vals[0]
            for v in vals[1:]:
                result &= v
        elif state.op == "min":
            result = min(vals)
        else:
            result = max(vals)
        state.result = result
        state.decided = True
        # completion cost: an up-and-down sweep of a binomial tree over
        # the survivor group, one inter-node latency per hop
        rounds = math.ceil(math.log2(len(live))) if len(live) > 1 else 0
        t_done = self.sim.now + 2.0 * rounds * self.params.link(False).alpha
        for rank, handle in state.waiters:
            self._post(t_done, self._agree_finish, rank, handle)

    def _agree_finish(self, rank: int, handle: Waitable) -> None:
        st = self._ranks[rank]
        if st.dead or st.finished or handle.done:
            return
        handle.done = True
        # the agreement is the recovery synchronization point: completing
        # it consumes every failure notification queued up to the decision
        # (the program observes the failure set via comm.failed_ranks()
        # afterwards); failures after the commit queue fresh notices
        st.failed_excs.clear()
        if st.waiting is not None:
            self._wait_try(st)
