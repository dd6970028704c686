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
"""

from __future__ import annotations

import math
import os
from heapq import heappush as _heappush
from typing import Any, Callable, Iterable, Optional, Sequence, Union

import numpy as np

from ..errors import (
    CommRevokedError,
    DeadlockError,
    FaultError,
    MatchingError,
    MessageLostError,
    RankFailedError,
    SimulationError,
    WatchdogTimeout,
)
from ..obs.metrics import LATENCY_BUCKETS, SIZE_BUCKETS
from ..obs.recorder import declare, get_recorder
from .engine import Simulator
from .faults import FaultInjector, FaultPlan, RankCrash
from .netmodel import MachineParams
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
from .topology import Topology

__all__ = ["SimWorld", "SimComm", "MPIContext", "RunResult", "INCAST_DEPTH_CAP"]

#: maximum receive-queue depth that still worsens an incast collapse;
#: beyond this the degradation saturates (TCP throughput floors out)
INCAST_DEPTH_CAP = 50.0

# trace event kinds a world records, and the sim.* metrics the recorder
# folds from their rows when its registry is read (obs/recorder.py)
_K_POST = declare("i", "communication", "msg.post",
                  "dst:i tag:q nbytes:q eager:?",
                  counter="sim.messages_posted",
                  histogram=("sim.message_bytes", "nbytes", SIZE_BUCKETS))
_K_DELIVER = declare("i", "communication", "msg.deliver",
                     "src:i nbytes:q _latency:d",
                     counter="sim.messages_delivered",
                     histogram=("sim.message_latency_seconds", "_latency",
                                LATENCY_BUCKETS))
_K_COMPUTE = declare("X", "compute", "compute")
_K_PROGRESS = declare("X", "progress", "progress", "n_active:i",
                      counter="sim.progress_calls")
_K_WAIT = declare("X", "communication", "wait")
_K_DROP = declare("i", "fault", "fault.drop", "dst:i attempt:i",
                  counter="sim.fault_drops")
_K_RETRANSMIT = declare("i", "fault", "fault.retransmit", "dst:i attempt:i",
                        counter="sim.retransmits")
_K_DEAD_LETTER = declare("i", "fault", "fault.dead_letter", "dst:i nbytes:q",
                         counter="sim.dead_letters")


def _fastlane_enabled() -> bool:
    """Whether new worlds may arm the fast lane (DESIGN.md §15).

    ``REPRO_ARRAY_ENGINE=0`` turns it off; the variable is read per world
    so tests and A/B harnesses can flip it between simulations in one
    process.
    """
    return os.environ.get("REPRO_ARRAY_ENGINE", "1") not in ("", "0", "false")


# --------------------------------------------------------------------------
# internal message representation
# --------------------------------------------------------------------------


class _Message(SendRequest):
    """A point-to-point message in flight, which is also its send request.

    :meth:`MPIContext.isend` returns the message itself: one object per
    send.  ``peer`` (from :class:`SendRequest`) is the destination world
    rank and ``post_time`` the instant the send was posted.
    """

    __slots__ = ("src", "data", "eager", "same_node", "recv_req", "attempts")

    def __init__(self, src: int, dst: int, tag: int, comm_id: int, nbytes: int,
                 data: Any, eager: bool, same_node: bool, post_time: float,
                 notify: Optional[Callable]):
        self.done = False
        self.failed = None
        self._notify = notify
        self.peer = dst
        self.tag = tag
        self.nbytes = nbytes
        self.post_time = post_time
        self.complete_time: Optional[float] = None
        self.comm_id = comm_id
        self.src = src
        self.data = data
        self.eager = eager
        #: both ends on one node (shared-memory link class)
        self.same_node = same_node
        self.recv_req: Optional[RecvRequest] = None
        #: transmission attempts so far (drops trigger retransmission)
        self.attempts = 0


_U8 = np.dtype(np.uint8)


def _land(buf: np.ndarray, data: Any) -> None:
    """Copy a delivered payload's bytes into a receive's byte view."""
    if not isinstance(data, np.ndarray):
        payload = np.frombuffer(data, dtype=_U8)
    elif data.dtype is _U8 and data.ndim == 1:
        payload = data  # a collective's byte slice: copy it as is
    else:
        payload = data.reshape(-1).view(_U8)
    try:
        buf[:] = payload
    except ValueError:
        raise MatchingError(
            f"a {payload.nbytes}-byte payload cannot land in a "
            f"{buf.nbytes}-byte receive buffer"
        ) from None


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
        #: tuple of waited-on items while blocked, else None
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


class _AgreeHandle(Waitable):
    """Completion handle of one rank's :meth:`SimComm.agree` call.

    Waits on it are *uninterruptible*: agreement must complete even when
    new failures are reported mid-protocol (the ULFM guarantee), so the
    sticky failure-notification machinery skips ranks blocked on one.
    """

    __slots__ = ()


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


class SimComm:
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

    # -- ULFM-style failure handling ----------------------------------

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

    def revoke(self, ctx: Optional["MPIContext"] = None) -> None:
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

    def shrink(self) -> "SimComm":
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

    def agree(self, ctx: "MPIContext", value: int, op: str = "and"):
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
        handle = _AgreeHandle()
        ctx.charge(self.world.params.o_send)  # entering the protocol
        self.world._agree_join(self, state, ctx.rank, handle)
        yield Wait(handle)
        return state.result


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
# per-rank API object
# --------------------------------------------------------------------------


class MPIContext:
    """The API a rank program uses to talk to the simulated MPI library.

    One context exists per rank; it is handed to the program factory by
    :meth:`SimWorld.launch`.
    """

    __slots__ = ("world", "rank", "_st")

    def __init__(self, world: "SimWorld", rank: int, st: _RankState):
        self.world = world
        self.rank = rank
        self._st = st

    # -- introspection ------------------------------------------------

    @property
    def now(self) -> float:
        """This rank's own clock (virtual seconds, including CPU debt)."""
        busy = self._st.busy_until
        now = self.world.sim._now
        return busy if busy > now else now

    @property
    def params(self) -> MachineParams:
        return self.world.params

    @property
    def topology(self) -> Topology:
        return self.world.topology

    @property
    def comm_world(self) -> SimComm:
        return self.world.comm_world

    @property
    def nprocs(self) -> int:
        return self.world.topology.nprocs

    @property
    def dead_ranks(self) -> frozenset:
        """World ranks known to have crashed (perfect failure detector)."""
        return frozenset(self.world._dead)

    # -- cost accounting ----------------------------------------------

    def charge(self, seconds: float) -> None:
        """Consume ``seconds`` of this rank's CPU time."""
        st = self._st
        busy = st.busy_until
        now = self.world.sim._now
        st.busy_until = (busy if busy > now else now) + seconds

    def charge_copy(self, nbytes: int) -> None:
        """Consume the CPU time of a local memcpy of ``nbytes``."""
        self.charge(self.world.params.copy_time(nbytes))

    # -- point-to-point ------------------------------------------------

    def isend(
        self,
        dest: int,
        nbytes: Optional[int] = None,
        tag: int = 0,
        comm: Optional[SimComm] = None,
        data: Any = None,
        notify: Optional[Callable[[Waitable, float], Any]] = None,
    ) -> SendRequest:
        """Post a non-blocking send to communicator-local rank ``dest``.

        ``data`` optionally attaches a real payload (ndarrays are
        snapshotted at post time, matching MPI buffer semantics for the
        simulated program, which may reuse its buffer).  ``nbytes``
        defaults to the payload size and must equal it when both are
        given.  The returned request is the in-flight message itself.
        """
        world = self.world
        if comm is None:
            comm = world.comm_world
        if comm.revoked:
            raise CommRevokedError(
                f"rank {self.rank}: isend on revoked communicator {comm.comm_id}"
            )
        if data is not None:
            is_array = isinstance(data, np.ndarray)
            size = data.nbytes if is_array else len(data)
            if nbytes is None:
                nbytes = size
            elif nbytes != size:
                raise SimulationError(
                    f"rank {self.rank}: isend of {nbytes} bytes with a "
                    f"{size}-byte payload"
                )
            if is_array:
                data = data.copy()
        elif nbytes is None:
            raise SimulationError("isend needs nbytes or data")
        nbytes = int(nbytes)
        # comm.ranks[dest] is comm.world_rank(dest) without the call
        wdst = comm.ranks[dest]
        st = self._st
        dead = world._dead
        if dead and wdst in dead:
            raise RankFailedError(
                f"rank {st.id}: isend to dead rank {wdst} "
                f"(t={world.sim.now:.6f}s)", frozenset(dead),
            )
        if st.pending_cts or st.pending_data:
            world._mpi_entry(st)  # any MPI call drives pending protocol actions
        # inlined self.charge(params.o_send); from here on busy >= now
        busy = st.busy_until
        now = world.sim._now
        st.busy_until = busy = (busy if busy > now else now) + world._o_send
        node_of = world._node_of
        same_node = node_of[st.id] == node_of[wdst]
        link = world._links[same_node]
        eager = nbytes <= link.eager_threshold
        msg = _Message(st.id, wdst, tag, comm.comm_id, nbytes, data, eager,
                       same_node, busy, notify)
        if world._obs is not None:
            world._obs.emit(_K_POST, st.id, busy, wdst, tag, nbytes, eager)
        if eager:
            # the library copies the payload into an internal buffer,
            # then the NIC drains it without further CPU help (inlined
            # self.charge(params.copy_time(nbytes)))
            st.busy_until = busy = busy + nbytes / world._copy_bw
            world._inject(msg, busy, same_node)
            msg.done = True
            msg.complete_time = busy
            if notify is not None:
                notify(msg, busy)
        else:
            st.n_active += 1
            st.open[msg] = None
            # RTS control message: latency only
            _heappush(world._sim_heap, (busy + link.alpha, next(world._sim_seq),
                                        world._on_rts_arrival, (msg,)))
            world._ranks[wdst].inbound += 1
        return msg

    def irecv(
        self,
        source: int,
        nbytes: int = 0,
        tag: int = 0,
        comm: Optional[SimComm] = None,
        buf: Optional[np.ndarray] = None,
        notify: Optional[Callable[[Waitable, float], Any]] = None,
    ) -> RecvRequest:
        """Post a non-blocking receive from communicator-local ``source``.

        ``buf`` optionally names where the payload lands: a C-contiguous
        array of exactly ``nbytes`` bytes, which the transport fills at
        completion and leaves untouched before it (and for good when
        the receive fails).  Without it the payload is
        :attr:`RecvRequest.data`.
        """
        world = self.world
        if comm is None:
            comm = world.comm_world
        if comm.revoked:
            raise CommRevokedError(
                f"rank {self.rank}: irecv on revoked communicator {comm.comm_id}"
            )
        nbytes = int(nbytes)
        if buf is not None:
            if buf.nbytes != nbytes or not buf.flags.c_contiguous:
                raise SimulationError(
                    f"rank {self.rank}: irecv of {nbytes} bytes needs a "
                    f"C-contiguous {nbytes}-byte buffer, got "
                    f"{buf.nbytes} bytes"
                )
            if buf.dtype is not _U8 or buf.ndim != 1:
                buf = buf.reshape(-1).view(_U8)
        wsrc = comm.ranks[source]
        st = self._st
        dead = world._dead
        if dead and wsrc in dead:
            raise RankFailedError(
                f"rank {st.id}: irecv from dead rank {wsrc} "
                f"(t={world.sim.now:.6f}s)", frozenset(dead),
            )
        if st.pending_cts or st.pending_data:
            world._mpi_entry(st)
        # inlined self.charge(params.o_recv); from here on busy >= now
        busy = st.busy_until
        now = world.sim._now
        st.busy_until = busy = (busy if busy > now else now) + world._o_recv
        comm_id = comm.comm_id
        req = RecvRequest(wsrc, tag, nbytes, busy, comm_id, notify, buf)
        key = (wsrc, tag, comm_id)
        queue = st.unexpected.get(key)
        if queue:
            msg = queue.pop(0)
            if not queue:
                del st.unexpected[key]
            if msg.eager:
                # late match: pay the unpack copy out of the eager buffer
                st.busy_until = busy = busy + msg.nbytes / world._copy_bw
                data = msg.data
                if data is not None:
                    if buf is None:
                        req.data = data
                    else:
                        _land(buf, data)
                req.done = True
                req.complete_time = busy
                if notify is not None:
                    notify(req, busy)
            else:
                # unexpected RTS: answer with CTS at this (in-MPI) moment;
                # no other protocol work is pending, it ran on entry
                msg.recv_req = req
                st.n_active += 1
                st.open[req] = None
                world._send_cts(st, msg)
        else:
            st.n_active += 1
            st.open[req] = None
            queue = st.posted.get(key)
            if queue is None:
                st.posted[key] = [req]
            else:
                queue.append(req)
        return req


# --------------------------------------------------------------------------
# the world
# --------------------------------------------------------------------------


class SimWorld:
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
        # looked up once per delivered message: cache it too
        self._complete_recv = self._complete_recv
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
        # _n_unfinished drops to zero (cheaper than a stop_when
        # predicate evaluated after every event)
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

    def blocked_report(self, max_ranks: int = 16) -> str:
        """Per-rank dump of what every unfinished rank is waiting on.

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
        for st in blocked[:max_ranks]:
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
        if len(blocked) > max_ranks:
            lines.append(f"  ... and {len(blocked) - max_ranks} more rank(s)")
        return "\n".join(lines)

    def _describe_waitable(self, item: Waitable) -> str:
        if isinstance(item, (SendRequest, RecvRequest)):
            kind, prep = (
                ("send", "to") if isinstance(item, SendRequest) else ("recv", "from")
            )
            note = " [peer DEAD]" if item.peer in self._dead else ""
            return (f"{kind}({prep}={item.peer}, tag={item.tag}, "
                    f"comm={item.comm_id}, {item.nbytes}B){note}")
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
            st.finished = True
            st.finish_time = st.busy_until
            self._n_unfinished -= 1
            if self._n_unfinished == 0:
                self.sim.halt()
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
        :meth:`_wait_try`'s wait charge, so results are bit-identical
        while the heap never sees the elided resumes.

        Every inline-processed syscall adds one to
        ``events_dispatched`` — the resume event it replaced — keeping
        the observable event count identical to object mode.  A pull
        that touches the world (posts a request, matches a message) or
        yields a non-batchable syscall is *deferred*: replayed by a
        single event at this rank's ``busy_until``, the exact time its
        object-mode resume would have dispatched.
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
        # no events dispatch while batching, so the cancelled-entry count
        # only moves if a pulled syscall cancels an event — snapshot once
        cancelled = sim._cancelled
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
            if (next(seq) != probe or sim._cancelled != cancelled
                    or st.n_active != 0 or st.busy_until != busy):
                # the generator touched the world between yields (posted
                # a request, charged time, cancelled an event, ...):
                # replay the pulled syscall at its exact object-mode
                # time.  pending_cts/pending_data/failed_excs need no
                # re-check: every path that sets them from program
                # context also moves one of the four deltas above.
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
        """Deferred end-of-program: what the final resume would do."""
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
            st.finished = True
            st.finish_time = st.busy_until
            self._n_unfinished -= 1
            if self._n_unfinished == 0:
                self.sim.halt()
            return
        self._handle_syscall(st, syscall)

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
        pulling event for the first chunk and as its own heap event for
        every later one, so the event times, counts and seq order are
        exactly those of the equivalent flat ``(Compute, Progress)``
        pair stream.
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
                # progress() on a completed handle is a no-op; the
                # attribute read is far cheaper than the call
                if not h.done:
                    h.progress(st.ctx)
        except (RankFailedError, CommRevokedError) as exc:
            self._throw(st.id, exc)
            return False
        if not remaining:
            return True
        remaining -= 1
        if remaining == 0:
            self._push_cont(st.busy_until, self._resume, (st, None))
            return True
        if (self._fastlane and st.noise_det and st.n_active == 0
                and not st.pending_cts and not st.pending_data
                and not st.failed_excs):
            for h in sc.handles:
                if not h.done:
                    break
            else:
                busy = st.busy_until
                sec = sc.seconds
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
        # event-per-half: the next compute runs in its own heap event at
        # the exact (time, seq) slot the flat pair stream's resume would
        # occupy — an inline call here could reorder against a delivery
        # scheduled between the halves
        self._push_cont(st.busy_until, self._charge_compute,
                        (st, sc, remaining))
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

    # ------------------------------------------------------------------
    # MPI entry (single-threaded progress semantics)
    # ------------------------------------------------------------------

    def _mpi_entry(self, st: _RankState) -> None:
        """Process protocol actions that need this rank's CPU.

        Called whenever the rank is inside the MPI library: progress
        calls, waits (incl. every spin retry), and posts.
        """
        if st.pending_cts:
            msgs, st.pending_cts = st.pending_cts, []
            for msg in msgs:
                self._send_cts(st, msg)
        if st.pending_data:
            # the sender CPU noticed the CTSs: move the payloads
            msgs, st.pending_data = st.pending_data, []
            busy = st.busy_until
            now = self.sim._now
            t_post = busy if busy > now else now
            for msg in msgs:
                if msg.failed is None:
                    self._inject(msg, t_post, msg.same_node)

    def _send_cts(self, st: _RankState, msg: _Message) -> None:
        """The receiver's CPU answers a matched RTS with a CTS."""
        # a CTS control message costs one post overhead (inlined
        # ctx.charge(params.o_send)) and travels at link latency
        busy = st.busy_until
        now = self.sim._now
        st.busy_until = busy = (busy if busy > now else now) + self._o_send
        _heappush(self._sim_heap,
                  (busy + self._links[msg.same_node].alpha, next(self._sim_seq),
                   self._on_cts_arrival, (msg,)))
        self._ranks[msg.src].inbound += 1

    # ------------------------------------------------------------------
    # network events
    # ------------------------------------------------------------------

    @staticmethod
    def _pair_hash(src: int, dst: int) -> int:
        """Deterministic well-mixed hash of a (src, dst) pair.

        Used to spread communication pairs over NIC rails / memory
        channels while keeping per-pair ordering (a pair always maps to
        the same rail).  The multiply-xor-shift mixing avoids the
        stride-pattern degeneracies a simple linear hash has (e.g. all
        distance-1 pairs landing on one rail).
        """
        h = (src * 0x9E3779B1 + dst * 0x85EBCA77) & 0xFFFFFFFF
        h ^= h >> 13
        h = (h * 0xC2B2AE35) & 0xFFFFFFFF
        return h >> 16

    def _inject(self, msg: _Message, t_post: float, same_node: bool) -> None:
        """Put an (eager or rendezvous-data) message on the wire.

        With a fault injector active, inter-node messages are subject to
        link degradation, rail failure and message drops; intra-node
        (shared-memory) transfers are never dropped or degraded.
        """
        if self._dead and msg.peer in self._dead:
            self._dead_letter(msg)
            return
        params = self.params
        now = self.sim._now
        heap = self._sim_heap
        seq = self._sim_seq
        src = msg.src
        dst = msg.peer
        link = self._links[same_node]
        # inlined link.serialization_time(nbytes)
        ser = link.per_msg + msg.nbytes / link.beta
        if not self._net_det:
            ser = self._net_noise.perturb(ser)
        if same_node:
            # intra-node transfers share the node's memory channels;
            # flooding them (many concurrent large copies) additionally
            # degrades each transfer (sm-BTL FIFO / cache contention)
            mem = self._mem_free[self._node_of[src]]
            rail = self._pair_hash(src, dst) % len(mem)
            free = mem[rail]
            start = t_post if t_post > free else free
            if params.intra_contention > 0.0 and ser > 0.0:
                depth = (start - t_post) / ser
                ser *= 1.0 + params.intra_contention * min(depth, INCAST_DEPTH_CAP)
            done = start + ser
            mem[rail] = done
            arrival = start + link.alpha + ser
            _heappush(heap, (arrival if arrival > now else now,
                             next(seq), self._deliver, (msg,)))
            self._ranks[dst].inbound += 1
            if not msg.eager:
                _heappush(heap, (done if done > now else now, next(seq),
                                 self._on_send_complete, (msg,)))
                self._ranks[src].inbound += 1
            return
        # NIC rail choice: a pair always maps to the same rail, which
        # preserves per-pair message order
        nrails = self._nic_rails
        rail = 0 if nrails == 1 else self._pair_hash(src, dst) % nrails
        alpha = link.alpha
        src_node = self._node_of[src]
        dst_node = self._node_of[dst]
        tx_rail = rx_rail = rail
        faults = self._faults
        if faults is not None:
            lat_mult, bw_mult = faults.link_factors()
            ser *= bw_mult
            alpha *= lat_mult
            tx_rail = faults.healthy_rail(src_node, rail, nrails)
            rx_rail = faults.healthy_rail(dst_node, rail, nrails)
            if (
                tx_rail is None
                or rx_rail is None
                or faults.should_drop(src, dst)
            ):
                self._drop(msg, t_post, same_node)
                return
        tx = self._tx_free[src_node]
        free = tx[tx_rail]
        start = t_post if t_post > free else free
        tx[tx_rail] = start + ser
        if not msg.eager:
            done = start + ser
            _heappush(heap, (done if done > now else now, next(seq),
                             self._on_send_complete, (msg,)))
            self._ranks[src].inbound += 1
        arrival = start + alpha + ser
        # receive-side rail contention (incast): the message occupies the
        # destination rail for its serialization time before delivery;
        # on lossy fabrics a deep receive backlog additionally degrades
        # throughput (incast collapse): the drain slows by a factor
        # proportional to the queue depth, capped so the model stays
        # bounded (real TCP throughput collapses to a floor, not to 0)
        rx = self._rx_free[dst_node]
        t_head = arrival - ser
        free = rx[rx_rail]
        start_rx = t_head if t_head > free else free
        if params.incast_penalty > 0.0 and ser > 0.0:
            depth = (start_rx - t_head) / ser
            ser *= 1.0 + params.incast_penalty * min(depth, INCAST_DEPTH_CAP)
        delivery = start_rx + ser
        rx[rx_rail] = delivery
        _heappush(heap, (delivery if delivery > now else now, next(seq),
                         self._deliver, (msg,)))
        self._ranks[dst].inbound += 1

    # ------------------------------------------------------------------
    # reliable transport (retransmission on injected message loss)
    # ------------------------------------------------------------------

    def _rto(self, msg: _Message, same_node: bool) -> float:
        """Retransmission timeout with exponential backoff.

        The base is a couple of unloaded round-trips (the time an ack
        would take to not arrive), doubled for every failed attempt.
        """
        link = self.params.link(same_node)
        base = 2.0 * link.transfer_time(msg.nbytes)
        return base * (2.0 ** (msg.attempts - 1))

    def _drop(self, msg: _Message, t_post: float, same_node: bool) -> None:
        """An injected fault ate one transmission attempt of ``msg``."""
        self._faults.messages_dropped += 1
        msg.attempts += 1
        if self._obs is not None:
            self._obs.emit(_K_DROP, msg.src, self.sim._now, msg.peer,
                           msg.attempts)
        if not self._reliable:
            return  # the message silently vanishes: the receiver blocks
        if msg.attempts > self._max_retries:
            raise MessageLostError(
                f"message src={msg.src} dst={msg.peer} tag={msg.tag} "
                f"comm={msg.comm_id} {msg.nbytes}B lost after "
                f"{self._max_retries} retransmission attempts "
                f"(t={self.sim.now:.6f}s)"
            )
        self.retransmits += 1
        retry_at = max(t_post + self._rto(msg, same_node), self.sim.now)
        self._post(retry_at, self._retransmit, msg, same_node)

    def _retransmit(self, msg: _Message, same_node: bool) -> None:
        if self._obs is not None:
            self._obs.emit(_K_RETRANSMIT, msg.src, self.sim._now, msg.peer,
                           msg.attempts)
        self._inject(msg, self.sim.now, same_node)

    def _dead_letter(self, msg: _Message) -> None:
        """Account a message whose destination rank is dead.

        Single chokepoint for all three discard sites, so the counter
        and the ``fault.dead_letter`` row see every one.
        """
        self.dead_letters += 1
        if self._obs is not None:
            self._obs.emit(_K_DEAD_LETTER, msg.src, self.sim._now, msg.peer,
                           msg.nbytes)

    def _on_send_complete(self, msg: _Message) -> None:
        """Rendezvous data fully injected: the send buffer is reusable."""
        st = self._ranks[msg.src]
        st.inbound -= 1
        if st.dead or msg.failed is not None:
            return  # already accounted for by the crash/revoke sweep
        now = self.sim._now
        msg.done = True
        msg.complete_time = now
        st.n_active -= 1
        del st.open[msg]
        notify = msg._notify
        if notify is not None:
            try:
                if notify(msg, now) is False and not st.failed_excs:
                    return  # no waiter can observe it: skip the retry
            except (RankFailedError, CommRevokedError) as exc:
                st.failed_excs.append(exc)
        if st.waiting is not None:
            self._wait_try(st)

    def _on_rts_arrival(self, msg: _Message) -> None:
        st = self._ranks[msg.peer]
        st.inbound -= 1
        if st.dead:
            self._dead_letter(msg)
            return
        key = (msg.src, msg.tag, msg.comm_id)
        queue = st.posted.get(key)
        if queue:
            req = queue.pop(0)
            if not queue:
                del st.posted[key]
            msg.recv_req = req
            if st.waiting is None:
                st.pending_cts.append(msg)  # noticed at the next MPI entry
            elif st.pending_cts or st.pending_data:
                # blocked in wait == spinning inside MPI: react now
                st.pending_cts.append(msg)
                self._mpi_entry(st)
            else:
                # the same, with no other protocol work queued
                self._send_cts(st, msg)
        else:
            st.unexpected.setdefault(key, []).append(msg)

    def _on_cts_arrival(self, msg: _Message) -> None:
        st = self._ranks[msg.src]
        st.inbound -= 1
        if st.dead or msg.failed is not None:
            return
        if st.waiting is None:
            st.pending_data.append(msg)  # noticed at the next MPI entry
        elif st.pending_cts or st.pending_data:
            st.pending_data.append(msg)
            self._mpi_entry(st)
        else:
            # blocked in Wait with no other protocol work: exactly what
            # _mpi_entry would do with this one message
            busy = st.busy_until
            now = self.sim._now
            self._inject(msg, busy if busy > now else now, msg.same_node)

    def _deliver(self, msg: _Message) -> None:
        st = self._ranks[msg.peer]
        st.inbound -= 1
        t = self.sim._now
        if st.dead:
            self._dead_letter(msg)
            return
        if msg.recv_req is not None:
            self._complete_recv(st, msg.recv_req, msg, t)
            return
        # eager message: match against posted receives or park it
        key = (msg.src, msg.tag, msg.comm_id)
        queue = st.posted.get(key)
        if queue:
            req = queue.pop(0)
            if not queue:
                del st.posted[key]
            self._complete_recv(st, req, msg, t)
        else:
            st.unexpected.setdefault(key, []).append(msg)

    def _complete_recv(self, st: _RankState, req: RecvRequest,
                       msg: _Message, t: float) -> None:
        if req.failed is not None:
            return  # failed by a crash/revoke sweep; message is dropped
        if self._obs is not None:
            self._obs.emit(_K_DELIVER, st.id, t, msg.src, msg.nbytes,
                           t - msg.post_time)
        data = msg.data
        if data is not None:
            if req.buf is None:
                req.data = data
            else:
                _land(req.buf, data)
        req.done = True
        req.complete_time = t
        st.n_active -= 1
        del st.open[req]
        notify = req._notify
        if notify is not None:
            try:
                if notify(req, t) is False and not st.failed_excs:
                    return  # no waiter can observe it: skip the retry
            except (RankFailedError, CommRevokedError) as exc:
                st.failed_excs.append(exc)
        if st.waiting is not None:
            self._wait_try(st)

    # ------------------------------------------------------------------
    # process failure: rank crash, revoke sweep, agreement commit
    # ------------------------------------------------------------------

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
            if queue is not None:
                try:
                    queue.remove(req)
                except ValueError:
                    pass
                else:
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
            if not other.dead and not other.finished and other.failed_excs:
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
            hit = notify and bool(doomed)
            if st.pending_cts:
                st.pending_cts = [m for m in st.pending_cts if m.comm_id != cid]
            if st.pending_data:
                st.pending_data = [m for m in st.pending_data if m.comm_id != cid]
            for key in [k for k in st.unexpected if k[2] == cid]:
                del st.unexpected[key]
            if hit and st.waiting is not None:
                self._post(now, self._deferred_failure, st.id)

    def _deferred_failure(self, rank_id: int) -> None:
        self._deliver_failure(self._ranks[rank_id])

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
        if not live:
            return
        contrib = state.contrib
        for r in live:
            if r not in contrib:
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
