"""Simulated single-threaded MPI over the discrete-event kernel.

This module provides the point-to-point substrate every collective in
:mod:`repro.nbc` is built on.  It models the properties of a production,
single-threaded MPI library (the paper used Open MPI 1.6) that matter
for auto-tuning non-blocking collectives:

* **Eager protocol** for small messages: once posted, the message flows
  to the receiver without either CPU being involved (NIC/DMA driven).
* **Rendezvous protocol** for large messages: the receiver's CPU must
  *notice* the RTS and answer with a CTS, and the sender's CPU must
  notice the CTS before data moves.  Noticing only happens when a rank
  enters the MPI library — an explicit progress call, a wait, or any
  post.  This is the mechanism behind the paper's progress-call results
  (Figs. 6 and 7).
* **NIC serialization**: messages leaving/entering a node share its NIC
  rail(s); concurrent transfers queue up (incast/outcast contention).
* **Per-request CPU overheads** for posting and progressing, which make
  algorithms with many requests expensive on slow-CPU platforms.

Ranks are generator *programs* (see :mod:`repro.sim.process`) scheduled
by :class:`SimWorld`.  Each rank owns a ``busy_until`` clock: CPU costs
push it forward, and every message post takes effect at the rank's
current ``busy_until`` so bursts of posts serialize realistically.
Its transport and its ULFM failure handling are mixins, in
:mod:`repro.sim.transport` and :mod:`repro.sim.ulfm`.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Iterable, Optional, Sequence, Union

from ..errors import (
    CommRevokedError,
    DeadlockError,
    FaultError,
    MatchingError,
    RankFailedError,
    SimulationError,
    WatchdogTimeout,
)
from ..obs.recorder import declare, get_recorder
from .engine import Simulator
from .faults import FaultInjector, FaultPlan
from .noise import NoiseModel, NullNoise
from .platforms import Platform
from .process import (
    Barrier,
    Compute,
    ComputeProgressSpan,
    Progress,
    RecvRequest,
    SendRequest,
    Wait,
    Waitable,
)
from .transport import (_K_DEAD_LETTER, _K_DELIVER, _K_DROP, _K_POST,
                        _K_RETRANSMIT, INCAST_DEPTH_CAP, MPIContext,
                        Transport, _Message)
from .ulfm import ULFMComm, ULFMWorld, _AgreeHandle, _AgreeState

__all__ = ["SimWorld", "SimComm", "MPIContext", "RunResult", "INCAST_DEPTH_CAP"]

# trace event kinds of the syscall charges, and the sim.* metric the
# recorder folds from their rows when its registry is read (obs/recorder.py)
_K_COMPUTE = declare("X", "compute", "compute")
_K_PROGRESS = declare("X", "progress", "progress", "n_active:i",
                      counter="sim.progress_calls")
_K_WAIT = declare("X", "communication", "wait")


def _fastlane_enabled() -> bool:
    """Whether new worlds may arm the fast lane (DESIGN.md §15).

    ``REPRO_ARRAY_ENGINE=0`` turns it off; the variable is read per world
    so tests and A/B harnesses can flip it between simulations in one
    process.
    """
    return os.environ.get("REPRO_ARRAY_ENGINE", "1") not in ("", "0", "false")


class _RankState:
    """Driver-side state of one simulated MPI process."""

    __slots__ = (
        "id",
        "gen",
        "gen_send",
        "ctx",
        "busy_until",
        "waiting",
        "pending_cts",
        "pending_data",
        "posted",
        "unexpected",
        "open",
        "failed_excs",
        "wait_t0",
        "n_active",
        "inbound",
        "finished",
        "finish_time",
        "dead",
        "noise",
        "perturb",
        "noise_det",
    )

    def __init__(self, rank_id: int, noise: NoiseModel):
        self.id = rank_id
        self.gen = None
        #: cached ``gen.send`` bound method (set in SimWorld.launch);
        #: skips one descriptor binding per resume
        self.gen_send = None
        self.ctx: Optional["MPIContext"] = None
        self.busy_until = 0.0
        #: waited-on items while blocked, else None.  While set, both
        #: pending lists are empty: Wait drains them, arrivals answer inline
        self.waiting: Optional[tuple] = None
        #: rendezvous RTSs matched to a local recv, awaiting our CTS
        self.pending_cts: list[_Message] = []
        #: rendezvous CTSs received, awaiting our data injection
        self.pending_data: list[_Message] = []
        #: posted receives: (src, tag, comm_id) -> FIFO list
        self.posted: dict[tuple[int, int, int], list[RecvRequest]] = {}
        #: unexpected messages: same key -> FIFO list
        self.unexpected: dict[tuple[int, int, int], list[_Message]] = {}
        #: incomplete (rendezvous send / receive) requests in post order,
        #: as an insertion-ordered dict used as a set: a crash or revoke
        #: fails exactly the operations that can no longer complete
        self.open: dict = {}
        #: failure notifications not yet reported to the program; sticky
        #: until thrown into the generator at its next MPI syscall
        self.failed_excs: list[BaseException] = []
        #: when tracing is enabled, the virtual time this rank entered
        #: its current Wait block (None otherwise — never written on the
        #: disabled path)
        self.wait_t0: Optional[float] = None
        self.n_active = 0
        #: message/protocol events (deliveries, RTS/CTS) already in the
        #: event heap that target this rank; the fast lane refuses to
        #: batch while any are in flight, because a between-yield
        #: ``ctx.irecv``/``ctx.isend`` during a batched pull would
        #: otherwise observe queue state from *before* those arrivals
        self.inbound = 0
        self.finished = False
        self.finish_time = 0.0
        #: True once a :class:`~repro.sim.faults.RankCrash` killed this rank
        self.dead = False
        self.noise = noise
        #: cached ``noise.perturb`` bound method (compute hot path),
        #: and whether it is the identity (skips the call entirely)
        self.perturb = noise.perturb
        self.noise_det = noise.deterministic


class SimComm(ULFMComm):
    """A communicator: an ordered group of world ranks.

    Collective tag allocation uses a per-local-rank counter; because MPI
    requires all members to issue collectives on a communicator in the
    same order, the counters stay synchronized across ranks without any
    simulated communication — the same trick LibNBC uses.

    Process failures are handled ULFM-style: :meth:`revoke` interrupts
    every member's pending operations so the whole group converges into
    the recovery path, :meth:`shrink` builds a new dense communicator
    over the survivors, and :meth:`agree` is a fault-tolerant agreement
    that returns the same value on every survivor even when ranks die
    mid-protocol.
    """

    _TAG_BASE = 1 << 16

    def __init__(self, world: "SimWorld", ranks: Sequence[int], comm_id: int):
        self.world = world
        self.ranks = tuple(ranks)
        if len(set(self.ranks)) != len(self.ranks):
            raise SimulationError("communicator ranks must be distinct")
        self.comm_id = comm_id
        self._local_of = {w: i for i, w in enumerate(self.ranks)}
        self._coll_counter = [0] * len(self.ranks)
        #: True once any member called :meth:`revoke`
        self.revoked = False
        #: per-local-rank agree-instance counters (collective ordering)
        self._agree_seq = [0] * len(self.ranks)
        self._agree_state: dict[int, _AgreeState] = {}
        #: shrink memo keyed by the dead subset, so every survivor gets
        #: the *same* replacement communicator object
        self._shrunk: dict[frozenset, "SimComm"] = {}

    @property
    def size(self) -> int:
        return len(self.ranks)

    def world_rank(self, local: int) -> int:
        """Translate a communicator-local rank to a world rank."""
        return self.ranks[local]

    def local_rank(self, world_rank: int) -> int:
        """Translate a world rank to this communicator's local rank."""
        try:
            return self._local_of[world_rank]
        except KeyError:
            raise MatchingError(
                f"world rank {world_rank} is not in communicator {self.comm_id}"
            ) from None

    def next_coll_tag(self, local: int, span: int = 1) -> int:
        """Reserve ``span`` consecutive tags for one collective invocation.

        All members must call this the same number of times in the same
        order (the MPI collective-ordering rule).
        """
        base = self._coll_counter[local]
        self._coll_counter[local] = base + span
        return self._TAG_BASE + base


class RunResult:
    """Outcome of one :meth:`SimWorld.run`."""

    __slots__ = ("finish_times", "events")

    def __init__(self, finish_times: list[float], events: int):
        self.finish_times = finish_times
        self.events = events

    @property
    def makespan(self) -> float:
        """Virtual time when the last rank finished."""
        return max(self.finish_times)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<RunResult makespan={self.makespan:.6f}s events={self.events}>"


# --------------------------------------------------------------------------
# the world
# --------------------------------------------------------------------------


class SimWorld(Transport, ULFMWorld):
    """A simulated machine running one MPI job.

    Parameters
    ----------
    platform:
        A :class:`~repro.sim.platforms.Platform` preset.
    nprocs:
        Number of MPI ranks to simulate.
    noise:
        Optional :class:`~repro.sim.noise.NoiseModel`; default is
        perfectly deterministic.
    placement:
        Rank placement policy (``"block"`` or ``"cyclic"``).
    faults:
        Optional :class:`~repro.sim.faults.FaultPlan` (or a prepared
        :class:`~repro.sim.faults.FaultInjector`).  An empty plan is
        equivalent to ``None``: the fault hot paths are skipped entirely
        and the simulation is bit-identical to a fault-free one.
    reliable:
        With faults active, ``True`` (default) enables the
        ack/timeout/retransmit transport: dropped messages are
        retransmitted with exponential backoff up to ``max_retries``
        attempts, after which :class:`~repro.errors.MessageLostError`
        is raised.  ``False`` models a transport that trusts the fabric:
        a dropped message simply vanishes and its receiver blocks
        forever (useful to demonstrate why the naive path deadlocks).
    max_retries:
        Retransmission budget per message (reliable transport only).
    """

    def __init__(
        self,
        platform: Platform,
        nprocs: int,
        noise: Optional[NoiseModel] = None,
        placement: str = "block",
        faults: Optional[Union[FaultPlan, FaultInjector]] = None,
        reliable: bool = True,
        max_retries: int = 8,
    ):
        self.platform = platform
        self.params = platform.params
        self.topology = platform.topology(nprocs, placement=placement)
        # hot-path precomputations: these back the inlined versions of
        # params.progress_cost()/params.link()/params.copy_time(), the
        # post overheads and topology lookups used once per message or
        # event in the protocol paths below
        self._progress_base = self.params.progress_base
        self._progress_per_req = self.params.progress_per_req
        self._o_send = self.params.o_send
        self._o_recv = self.params.o_recv
        self._copy_bw = self.params.copy_bw
        self._nic_rails = self.params.nic_rails
        self._node_of = tuple(
            self.topology.node_of(r) for r in range(nprocs)
        )
        #: indexed by bool(same_node): (inter, intra)
        self._links = (self.params.inter, self.params.intra)
        self.sim = Simulator()
        base_noise = noise if noise is not None else NullNoise()
        #: network-side noise stream (shared, deterministic draw order);
        #: jitter only — heavy-tail OS outliers apply to compute, not links
        self._net_noise = base_noise.jitter_only(0xBEEF)
        #: a deterministic stream returns every duration unchanged, so
        #: the per-message perturb call is skipped
        self._net_det = self._net_noise.deterministic
        self._ranks = [
            _RankState(r, base_noise.spawn(r + 1)) for r in range(nprocs)
        ]
        for st in self._ranks:
            st.ctx = MPIContext(self, st.id, st)
        self._n_unfinished = 0
        self._comm_counter = 0
        self.comm_world = self.make_comm(range(nprocs))
        nodes = self.topology.nnodes
        rails = self.params.nic_rails
        #: per-node transmit/receive rail availability times
        self._tx_free = [[0.0] * rails for _ in range(nodes)]
        self._rx_free = [[0.0] * rails for _ in range(nodes)]
        #: per-node shared-memory channel availability times
        self._mem_free = [
            [0.0] * self.params.intra_rails for _ in range(nodes)
        ]
        #: hard-barrier rendezvous state: arrived ranks and latest arrival
        self._barrier_waiting: list[int] = []
        self._barrier_time = 0.0
        self._launched = False
        # cache hot callbacks in the instance dict: `self._resume` etc.
        # are referenced once per posted event, and an instance-dict hit
        # skips binding a fresh method object each time
        self._resume = self._resume
        self._post = self.sim.post
        # the resume and message events this layer schedules are the
        # majority of all heap traffic and are never in the past
        # (busy_until is clamped to >= now before every charge).  Rank
        # continuations go through Simulator.post_join, which lets ranks
        # running in phase share one heap entry per instant (engine.py:
        # "Same-instant joins"); message events push heap tuples
        # directly instead of paying a Simulator.post() call each
        self._push_cont = self.sim.post_join
        self._sim_heap = self.sim._heap
        self._sim_seq = self.sim._seq
        self._deliver = self._deliver
        self._on_send_complete = self._on_send_complete
        self._on_rts_arrival = self._on_rts_arrival
        self._on_cts_arrival = self._on_cts_arrival
        self._send_cts = self._send_cts
        self._wait_try = self._wait_try
        self._inject = self._inject
        # the span halves schedule each other once per chunk
        self._charge_compute = self._charge_compute
        self._charge_progress = self._charge_progress
        # looked up once per completed request: cache it too
        self._complete = self._complete
        #: world ranks killed by a RankCrash fault (authoritative)
        self._dead: set[int] = set()
        #: agree instances whose decision has not committed yet
        self._agree_pending: list[tuple[SimComm, _AgreeState]] = []
        if isinstance(faults, FaultPlan):
            faults = None if faults.empty else FaultInjector(faults)
        self._faults = faults
        self._reliable = bool(reliable)
        self._max_retries = int(max_retries)
        #: retransmissions performed by the reliable transport (observability)
        self.retransmits = 0
        #: messages discarded because their destination was dead
        self.dead_letters = 0
        # observability: cache the recorder (or None) so every hot-path
        # guard is a single `is not None` test; the sim.* instruments are
        # created here so a snapshot lists them from the world's start.
        # Recording is passive — it never draws RNG or moves busy_until —
        # so traced runs stay bit-identical.
        _rec = get_recorder()
        self._obs = _rec if _rec.enabled else None
        if self._obs is not None:
            self._obs.begin_world(nprocs, platform.name)
            self._obs.prepare(_K_POST, _K_DELIVER, _K_PROGRESS, _K_DROP,
                              _K_RETRANSMIT, _K_DEAD_LETTER)
        if self._faults is not None:
            for crash in self._faults.plan.crashes:
                if crash.rank >= nprocs:
                    raise FaultError(
                        f"crash rank {crash.rank} out of range for "
                        f"nprocs={nprocs}"
                    )
            self._faults.on_rank_crash = self._on_rank_crash
            self._faults.obs = self._obs
            self._faults.install(self.sim)
        #: degenerate-topology fast lane (DESIGN.md §15): when no faults,
        #: no tracing and deterministic per-rank noise can distinguish a
        #: symmetric rank's timeline from its batch-collapsed equivalent,
        #: runs of Compute/Progress/Wait syscalls are drained inline
        #: instead of through one heap event each (see :meth:`_batch`)
        self._fastlane = (
            _fastlane_enabled() and self._faults is None and self._obs is None
        )

    @property
    def faults(self) -> Optional[FaultInjector]:
        """The active fault injector, if any."""
        return self._faults

    @property
    def dead_ranks(self) -> frozenset:
        """World ranks known to have crashed so far."""
        return frozenset(self._dead)

    # ------------------------------------------------------------------

    def make_comm(self, ranks: Iterable[int]) -> SimComm:
        """Create a communicator over the given world ranks."""
        self._comm_counter += 1
        return SimComm(self, list(ranks), self._comm_counter)

    def context(self, rank: int) -> MPIContext:
        """The :class:`MPIContext` of a rank (mainly for tests)."""
        return self._ranks[rank].ctx

    def launch(self, program_factory: Callable[[MPIContext], Any]) -> None:
        """Instantiate one program per rank and schedule their start.

        ``program_factory(ctx)`` must return a generator (the rank
        program).  All ranks start at virtual time 0.
        """
        if self._launched:
            raise SimulationError("SimWorld.launch() may only be called once")
        self._launched = True
        for st in self._ranks:
            if st.dead:
                # killed by a crash scheduled at t <= 0: never starts
                continue
            st.gen = program_factory(st.ctx)
            st.gen_send = st.gen.send
            self._n_unfinished += 1
            self._post(0.0, self._resume, st, None)

    def run(self, deadline: Optional[float] = None) -> RunResult:
        """Run the job to completion and return per-rank finish times.

        Raises :class:`DeadlockError` if the event queue drains while
        ranks are still blocked.  With a ``deadline`` (virtual seconds),
        a job still unfinished at that time raises
        :class:`~repro.errors.WatchdogTimeout` instead of waiting — the
        watchdog that lets a tuner turn a stalled candidate measurement
        into a catchable, quarantinable event.
        """
        if not self._launched:
            raise SimulationError("call launch() before run()")
        # completion is signalled via Simulator.halt() at the moment
        # _n_unfinished drops to zero
        if self._n_unfinished == 0:
            self.sim.halt()  # all ranks dead/finished before run()
        else:
            self.sim.run(until=deadline)
        if self._n_unfinished:
            blocked = [
                st for st in self._ranks if not st.finished and not st.dead
            ]
            ids = [st.id for st in blocked]
            dead = sorted(self._dead)
            head = (
                f"{len(ids)} unfinished rank(s): "
                f"{ids[:16]}{'...' if len(ids) > 16 else ''}"
            )
            if dead:
                head += f"; dead rank(s): {dead}"
            if deadline is not None and self.sim.pending():
                raise WatchdogTimeout(
                    f"watchdog expired at t={deadline!r}s with {head}\n"
                    + self.blocked_report()
                )
            on_dead = [st for st in blocked if self._blocked_on_dead(st)]
            if on_dead:
                raise RankFailedError(
                    f"{len(on_dead)} rank(s) blocked on dead peer(s) — "
                    f"not a cyclic wait: {head}\n" + self.blocked_report(),
                    frozenset(self._dead),
                )
            raise DeadlockError(
                f"simulation stalled with {head}\n" + self.blocked_report()
            )
        return RunResult(
            [st.finish_time for st in self._ranks], self.sim.events_dispatched
        )

    def _blocked_on_dead(self, st: _RankState) -> bool:
        """True when a blocked rank's wait depends on a crashed peer."""
        if st.failed_excs:
            return True
        if not self._dead:
            return False
        if st.waiting is not None:
            for item in st.waiting:
                if item.failed is not None:
                    return True
                if getattr(item, "peer", None) in self._dead:
                    return True
        return any(req.peer in self._dead for req in st.open)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def blocked_report(self) -> str:
        """Per-rank dump of what the first 16 unfinished ranks wait on.

        Included in :class:`DeadlockError` / :class:`WatchdogTimeout`
        messages so a deadlock under fault injection is debuggable from
        the exception alone.
        """
        in_barrier = set(self._barrier_waiting)
        lines = []
        if self._dead:
            lines.append(f"  dead rank(s): {sorted(self._dead)}")
        blocked = [st for st in self._ranks if not st.finished and not st.dead]
        n_alive = len(self._ranks) - len(self._dead)
        for st in blocked[:16]:
            if st.id in in_barrier:
                lines.append(
                    f"  rank {st.id}: in barrier "
                    f"({len(in_barrier)}/{n_alive} arrived)"
                )
            elif st.waiting is not None:
                pending = [it for it in st.waiting if not it.done]
                what = "; ".join(self._describe_waitable(it) for it in pending)
                lines.append(
                    f"  rank {st.id}: waiting on {len(pending)} item(s): {what}"
                )
            else:
                lines.append(f"  rank {st.id}: runnable (between syscalls)")
        if len(blocked) > 16:
            lines.append(f"  ... and {len(blocked) - 16} more rank(s)")
        return "\n".join(lines)

    def _describe_waitable(self, item: Waitable) -> str:
        if isinstance(item, (SendRequest, RecvRequest)):
            kind, prep = (
                ("send", "to") if isinstance(item, SendRequest) else ("recv", "from")
            )
            note = " [peer DEAD]" if item.peer in self._dead else ""
            return (f"{kind}({prep}={item.peer}, tag={item.tag}, "
                    f"comm={item.comm_id}, {item.nbytes}B){note}")
        if isinstance(item, _AgreeHandle):
            live = item.comm.live_ranks()
            have = sum(1 for r in live if r in item.state.contrib)
            return (f"agree(comm={item.comm.comm_id}, instance={item.inst}, "
                    f"op={item.state.op}, {have}/{len(live)} live contributed)")
        return repr(item)

    # ------------------------------------------------------------------
    # generator driving
    # ------------------------------------------------------------------

    def _resume(self, st: _RankState, value: Any) -> None:
        # the rank state is passed directly (not an id) to skip a list
        # index on the single hottest callback in the simulation
        if st.dead:
            return  # stale event scheduled before the crash
        now = self.sim._now
        if st.busy_until < now:
            st.busy_until = now
        try:
            syscall = st.gen_send(value)
        except StopIteration:
            self._finish_rank(st)
            return
        # Compute and Progress, one of each per chunk per iteration, are
        # the overwhelming majority of syscalls: charge them here, where
        # the fast lane may take over.  Anything else takes the full
        # dispatch.
        tsc = type(syscall)
        if tsc is Compute:
            self._charge_compute(st, syscall, 0)
        elif tsc is Progress:
            if not self._charge_progress(st, syscall, 0):
                return
        else:
            self._handle_syscall(st, syscall)
            return
        if (self._fastlane and st.noise_det and st.n_active == 0
                and st.inbound == 0 and not st.pending_cts
                and not st.pending_data and not st.failed_excs):
            self._batch(st)
            return
        self._push_cont(st.busy_until, self._resume, (st, None))

    def _batch(self, st: _RankState) -> None:
        """Degenerate-topology fast lane: drain syscalls without events.

        Entered only when nothing in the world can observe the
        difference between processing this rank's next syscalls inline
        and processing each in its own resume event: no faults, no
        tracing, deterministic per-rank noise, and — re-checked before
        every pull — no active requests, no message or protocol event in
        flight toward this rank (``st.inbound``), no pending protocol
        actions and no queued failures.  The in-flight guard matters
        because a batched pull runs between-yield code at a *stale*
        clock: a ``ctx.irecv`` issued while an arrival is still queued
        would match against pre-arrival queue state.  Under those
        conditions Compute, all-done Progress and all-done Wait advance
        ``busy_until`` with exactly the float operations of
        :meth:`_charge_compute`, :meth:`_charge_progress` and
        :meth:`_wait_try`'s wait charge, while the heap never sees the
        elided resumes.

        Every inline-processed syscall adds one to
        ``events_dispatched`` — the resume event it replaced — keeping
        the observable event count identical to object mode.  A pull
        that touches the world (posts a request, matches a message) or
        yields a non-batchable syscall is *deferred*: replayed by a
        single event at this rank's ``busy_until``, the exact time its
        object-mode resume would have dispatched.

        Results are *not* always bit-identical (DESIGN.md §15, "Known
        defect in ``_batch``"): a deferred pull's posts already ran, ahead
        of other ranks' earlier events; two strict xfails pin the drift.
        """
        sim = self.sim
        seq = self._sim_seq
        gen_send = st.gen_send
        compute_cls = Compute
        progress_cls = Progress
        wait_cls = Wait
        # n_active == 0 throughout the batch, so the progress/wait charge
        # is a constant — the exact float _charge_progress computes
        pcost = self._progress_base + self._progress_per_req * st.n_active
        # every scheduling path draws a seq (a joined push too, which
        # leaves the heap length unchanged), so a probe draw per pull
        # reveals any scheduling between yields; spent seqs only leave
        # gaps, never reorder
        probe = next(seq)
        batched = 0
        while True:
            busy = st.busy_until
            # between-yield world calls (posts, revoke, timers) must see
            # the clock their object-mode resume would see, not the time
            # of the event that entered the batch
            sim._now = busy
            try:
                syscall = gen_send(None)
            except StopIteration:
                # the final resume must stay a real heap event: its
                # pending-ness is observable (watchdog-vs-deadlock
                # classification) and it ends the run at the rank's
                # finish instant; it replaces the elided resume
                # one-for-one, so it is not compensated below
                self._push_cont(st.busy_until, self._finish_rank, (st,))
                break
            probe += 1
            if (next(seq) != probe or st.n_active != 0
                    or st.busy_until != busy):
                # the generator touched the world between yields (posted
                # a request, charged time, scheduled an event, ...):
                # replay the pulled syscall at its exact object-mode
                # time.  pending_cts/pending_data/failed_excs need no
                # re-check: every path that sets them from program
                # context also moves one of the three deltas above.
                self._defer(st, syscall)
                break
            tsc = type(syscall)
            if tsc is compute_cls:
                # noise_det holds for the batch and faults/obs are off,
                # so _charge_compute's dur == syscall.seconds exactly
                st.busy_until = busy + syscall.seconds
                batched += 1
                continue
            if tsc is progress_cls:
                for h in syscall.handles:
                    if not h.done:
                        break
                else:
                    st.busy_until = busy + pcost
                    batched += 1
                    continue
            elif tsc is wait_cls:
                for it in syscall.items:
                    if not it.done:
                        break
                else:
                    st.busy_until = busy + pcost
                    batched += 1
                    continue
            self._defer(st, syscall)
            break
        if batched:
            sim.events_dispatched += batched
            sim.batched_syscalls += batched

    def _finish_rank(self, st: _RankState) -> None:
        """End a rank's program: the one place a rank finishes."""
        if st.dead:
            return
        if st.busy_until < self.sim._now:
            st.busy_until = self.sim._now
        st.finished = True
        st.finish_time = st.busy_until
        self._n_unfinished -= 1
        if self._n_unfinished == 0:
            self.sim.halt()

    def _defer(self, st: _RankState, syscall: Any) -> None:
        """Schedule an already-pulled syscall at its object-mode time."""
        self._push_cont(st.busy_until, self._deferred_syscall, (st, syscall))

    def _deferred_syscall(self, st: _RankState, syscall: Any) -> None:
        if st.dead:
            return
        if st.busy_until < self.sim._now:
            st.busy_until = self.sim._now
        self._handle_syscall(st, syscall)

    def _throw(self, rank_id: int, exc: BaseException) -> None:
        """Throw a failure into a rank program suspended at a syscall.

        The program either catches it (``try`` around its yields — the
        fault-tolerant recovery path) and yields its next syscall, or
        lets it propagate, which aborts the whole simulation with the
        original exception (``MPI_ERRORS_ARE_FATAL`` semantics).
        """
        st = self._ranks[rank_id]
        if st.dead or st.finished:
            return
        st.waiting = None
        st.wait_t0 = None
        st.failed_excs.clear()
        st.busy_until = max(st.busy_until, self.sim.now)
        try:
            syscall = st.gen.throw(exc)
        except StopIteration:
            self._finish_rank(st)
            return
        self._handle_syscall(st, syscall)

    def _handle_syscall(self, st: _RankState, sc: Any) -> None:
        # _resume charges the Compute/Progress syscalls it pulls itself;
        # here they arrive only as pulls replayed by _deferred_syscall
        # or yielded after _throw
        tsc = type(sc)
        if tsc is Progress:
            if self._charge_progress(st, sc, 0):
                self._push_cont(st.busy_until, self._resume, (st, None))
        elif tsc is Wait:
            if st.failed_excs and self._interruptible(sc.items):
                self._throw(st.id, st.failed_excs[0])
                return
            if st.pending_cts or st.pending_data:
                self._mpi_entry(st)
            st.waiting = sc.items
            if self._obs is not None:
                busy = st.busy_until
                now = self.sim._now
                st.wait_t0 = busy if busy > now else now
            self._wait_try(st)
        elif tsc is Barrier:
            if st.pending_cts or st.pending_data:
                self._mpi_entry(st)
            self._barrier_waiting.append(st.id)
            self._barrier_time = max(self._barrier_time, st.busy_until)
            self._barrier_maybe_release()
        elif tsc is Compute:
            self._charge_compute(st, sc, 0)
            self._push_cont(st.busy_until, self._resume, (st, None))
        elif tsc is ComputeProgressSpan:
            # chunk #1's compute half is processed in the pulling event,
            # exactly where the flat pair stream would process it
            self._charge_compute(st, sc, sc.count)
        else:
            raise SimulationError(f"rank {st.id} yielded unknown syscall {sc!r}")

    # ------------------------------------------------------------------
    # the Compute/Progress charge (see process.ComputeProgressSpan)
    # ------------------------------------------------------------------

    def _charge_compute(self, st: _RankState,
                        sc: Union[Compute, ComputeProgressSpan],
                        remaining: int) -> None:
        """The one Compute charge: ``sc.seconds`` of this rank's CPU.

        The duration is perturbed by the rank's noise and scaled by the
        fault plan's compute factor, then ``busy_until`` advances by it.
        A plain Compute passes ``remaining == 0`` and schedules its own
        continuation.  A span's compute half passes the chunks left and
        schedules the chunk's progress half; it runs inline from the
        pulling event for the first chunk.  For every later chunk it is
        its own heap event, so the event times, counts and seq order are
        exactly those of the equivalent flat ``(Compute, Progress)``
        pair stream — except under the fast lane, where
        :meth:`_charge_progress` folds it into the previous progress
        half and keeps only its heap slot.  The fold repeats this
        charge's arithmetic for the lane's case (no fault factor, no
        recorder, a live rank) and must be kept in step with it;
        ``tests/sim/test_span_equivalence.py`` pins the two together.
        """
        if st.dead:
            return
        now = self.sim._now
        if st.busy_until < now:
            st.busy_until = now
        sec = sc.seconds
        dur = sec if st.noise_det else st.perturb(sec)
        if self._faults is not None:
            dur *= self._faults.compute_factor(st.id)
        t0 = st.busy_until
        busy = t0 + dur
        st.busy_until = busy
        if self._obs is not None:
            self._obs.emit(_K_COMPUTE, st.id, t0, dur)
        if remaining:
            self._push_cont(busy, self._charge_progress, (st, sc, remaining))

    def _charge_progress(self, st: _RankState,
                         sc: Union[Progress, ComputeProgressSpan],
                         remaining: int) -> bool:
        """The one Progress charge: one MPI progress call on ``sc.handles``.

        Throws a queued failure into the program, runs pending protocol
        actions, charges the progress cost for the rank's active
        requests and progresses every open handle.  Returns False when
        the rank is dead or a failure was thrown into the program
        instead (which has then already yielded its next syscall).  A
        plain Progress passes ``remaining == 0`` and schedules its own
        continuation.

        A span's progress half passes the chunks left, counting this
        one.  After the last chunk the generator is resumed with
        ``None``, exactly as the pair stream's final Progress would.
        When the fast lane is eligible and every handle has completed,
        the remaining chunks collapse into pure busy-clock arithmetic —
        the same float operations the evented halves would perform, with
        the elided events compensated in ``events_dispatched`` — which is
        safe because no generator code runs between span halves and a
        concurrent arrival to an idle rank (``n_active == 0``) is a
        passive queue append that reads none of this rank's clocks.

        Otherwise, under the fast lane, the next chunk's compute half is
        *folded* into this one: its charge (the same float operations
        and noise draw as :meth:`_charge_compute`) is made here, and its
        heap slot holds ``post_join`` itself, which makes, at the same
        instant, the ``post_join`` of the next progress half that the
        compute half would have made.  That is exact because nothing
        reads or writes this rank's clock or noise stream between the
        halves: its generator is suspended, it is not in ``Wait`` or
        ``Barrier``, so an arrival is a passive queue append, and
        crashes and the recorder are outside the lane (DESIGN.md §10
        lists every clock reader).

        A handle that reports ops in flight (:attr:`Waitable._pending`)
        is not progressed: its ``progress()`` would return at once.
        """
        if st.dead:
            return False
        sim = self.sim
        now = sim._now
        if st.busy_until < now:
            st.busy_until = now
        if st.failed_excs:
            self._throw(st.id, st.failed_excs[0])
            return False
        if st.pending_cts or st.pending_data:
            self._mpi_entry(st)
        # inlined ctx.charge(params.progress_cost(n_active)); the cost
        # is summed first so the float grouping matches
        t0 = st.busy_until
        cost = self._progress_base + self._progress_per_req * st.n_active
        st.busy_until = t0 + cost
        if self._obs is not None:
            self._obs.emit(_K_PROGRESS, st.id, t0, cost, st.n_active)
        try:
            for h in sc.handles:
                # progress() on a completed handle, or on one with ops in
                # flight, is a no-op; the attribute reads are far cheaper
                # than the call
                if not h.done and not h._pending:
                    h.progress(st.ctx)
        except (RankFailedError, CommRevokedError) as exc:
            self._throw(st.id, exc)
            return False
        if not remaining:
            return True
        remaining -= 1
        busy = st.busy_until
        if remaining == 0:
            self._push_cont(busy, self._resume, (st, None))
            return True
        if not self._fastlane:
            # event-per-half: the next compute runs in its own heap event
            # at the exact (time, seq) slot the flat pair stream's resume
            # would occupy — pushing its progress half from here instead
            # could reorder against a delivery scheduled between the halves
            self._push_cont(busy, self._charge_compute, (st, sc, remaining))
            return True
        sec = sc.seconds
        if (st.noise_det and st.n_active == 0 and not st.pending_cts
                and not st.pending_data and not st.failed_excs):
            for h in sc.handles:
                if not h.done:
                    break
            else:
                # n_active == 0: the per-chunk progress charge is the
                # constant the evented half would compute
                pcost = (self._progress_base
                         + self._progress_per_req * st.n_active)
                for _ in range(remaining):
                    busy = (busy + sec) + pcost
                st.busy_until = busy
                sim.events_dispatched += 2 * remaining
                sim.batched_syscalls += 2 * remaining
                self._push_cont(busy, self._resume, (st, None))
                return True
        # the fold: _charge_compute's charge, made now (keep the two in
        # step); the compute half's (time, seq) slot becomes a post_join
        # of the next progress half, pushed exactly as that half would
        # push it
        t1 = busy + (sec if st.noise_det else st.perturb(sec))
        st.busy_until = t1
        push = self._push_cont
        push(busy, push, (t1, self._charge_progress, (st, sc, remaining)))
        return True

    def _barrier_maybe_release(self) -> None:
        """Release the hard barrier once every *live* rank arrived."""
        if not self._barrier_waiting:
            return
        if len(self._barrier_waiting) < len(self._ranks) - len(self._dead):
            return
        when = self._barrier_time
        waiting, self._barrier_waiting = self._barrier_waiting, []
        self._barrier_time = 0.0
        push_cont = self._push_cont
        resume = self._resume
        ranks = self._ranks
        for rid in waiting:
            st = ranks[rid]
            st.busy_until = when
            # `when` is the latest arrival, hence >= now
            push_cont(when, resume, (st, None))

    def _wait_try(self, st: _RankState) -> None:
        """Re-evaluate a blocked rank's wait condition (spin semantics)."""
        items = st.waiting
        if items is None:
            return
        if st.failed_excs and self._interruptible(items):
            self._throw(st.id, st.failed_excs[0])
            return
        ctx = st.ctx
        for item in items:
            if not item.done:
                if item.failed is not None:
                    self._throw(st.id, item.failed)
                    return
                try:
                    item.progress(ctx)
                except (RankFailedError, CommRevokedError) as exc:
                    self._throw(st.id, exc)
                    return
        for item in items:
            if not item.done:
                return  # still blocked; a future event will retry
        st.waiting = None
        # inlined ctx.charge(params.progress_cost(n_active)); the cost
        # is summed first so the float grouping matches
        busy = st.busy_until
        now = self.sim._now
        if busy < now:
            busy = now
        if self._obs is not None and st.wait_t0 is not None:
            dur = busy - st.wait_t0
            self._obs.emit(_K_WAIT, st.id, st.wait_t0,
                           dur if dur > 0.0 else 0.0)
            st.wait_t0 = None
        st.busy_until = busy + (
            self._progress_base + self._progress_per_req * st.n_active
        )
        self._push_cont(st.busy_until, self._resume, (st, None))
