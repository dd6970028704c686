"""Point-to-point transport of the simulated MPI, mixed into ``SimWorld``.

:class:`MPIContext` posts messages; :class:`Transport` carries them: the
eager and rendezvous (RTS, CTS, data) protocols, rail serialization,
retransmission, matching and completion.  A rendezvous step that needs a
rank's CPU runs only while the rank is inside the library: at once while
it is blocked in a wait, else at its next post or progress call.
"""

from __future__ import annotations

from heapq import heappush as _heappush
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..errors import (CommRevokedError, MatchingError, MessageLostError,
                      RankFailedError, SimulationError)
from ..obs.metrics import LATENCY_BUCKETS, SIZE_BUCKETS
from ..obs.recorder import declare
from .process import RecvRequest, SendRequest, Waitable

if TYPE_CHECKING:
    import numpy as np
    from .mpi import SimComm, SimWorld, _RankState
    from .netmodel import MachineParams
    from .topology import Topology

#: maximum receive-queue depth that still worsens an incast collapse;
#: beyond this the degradation saturates (TCP throughput floors out)
INCAST_DEPTH_CAP = 50.0

# trace event kinds the transport records, and the sim.* metrics the
# recorder folds from their rows when its registry is read (obs/recorder.py)
_K_POST = declare("i", "communication", "msg.post",
                  "dst:i tag:q nbytes:q eager:?",
                  counter="sim.messages_posted",
                  histogram=("sim.message_bytes", "nbytes", SIZE_BUCKETS))
_K_DELIVER = declare("i", "communication", "msg.deliver",
                     "src:i nbytes:q _latency:d",
                     counter="sim.messages_delivered",
                     histogram=("sim.message_latency_seconds", "_latency",
                                LATENCY_BUCKETS))
_K_DROP = declare("i", "fault", "fault.drop", "dst:i attempt:i",
                  counter="sim.fault_drops")
_K_RETRANSMIT = declare("i", "fault", "fault.retransmit", "dst:i attempt:i",
                        counter="sim.retransmits")
_K_DEAD_LETTER = declare("i", "fault", "fault.dead_letter", "dst:i nbytes:q",
                         counter="sim.dead_letters")


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


#: numpy and its uint8 dtype, bound by the first payload post
#: (:func:`_load_numpy`): a size-only world never imports numpy, and a
#: payload pays a global read per message instead of an import
_np: Any = None
_U8: Any = None


def _load_numpy() -> Any:
    global _np, _U8
    import numpy

    _np, _U8 = numpy, numpy.dtype(numpy.uint8)
    return numpy


def _land(buf: np.ndarray, data: Any) -> None:
    """Copy a delivered payload's bytes into a receive's byte view."""
    np = _np or _load_numpy()
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


class MPIContext:
    """The API a rank program uses to talk to the simulated MPI library.

    One context exists per rank; it is handed to the program factory by
    :meth:`SimWorld.launch`.
    """

    __slots__ = ("world", "rank", "_st")

    def __init__(self, world: SimWorld, rank: int, st: _RankState):
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
        self.charge(nbytes / self.world._copy_bw)

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

        ``data`` optionally attaches a real payload: an ndarray (copied)
        or any bytes-like object (kept as ``bytes``), snapshotted at post
        time, matching MPI buffer semantics for the simulated program,
        which may reuse its buffer.  ``nbytes``
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
            is_array = isinstance(data, (_np or _load_numpy()).ndarray)
            if not is_array:
                # any other payload is bytes-like: snapshot its bytes, so
                # the message is sized in bytes and a reused buffer cannot
                # change what a late receive reads
                try:
                    data = memoryview(data).tobytes()
                except TypeError:
                    raise SimulationError(
                        f"rank {self.rank}: isend payload must be an ndarray "
                        f"or bytes-like, not {type(data).__name__}"
                    ) from None
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
        buf: Any = None,
        notify: Optional[Callable[[Waitable, float], Any]] = None,
    ) -> RecvRequest:
        """Post a non-blocking receive from communicator-local ``source``.

        ``buf`` optionally names where the payload lands: a writable,
        C-contiguous array or other bytes-like buffer of exactly
        ``nbytes`` bytes, which the transport fills at completion and
        leaves untouched before it (and for good when the receive
        fails).  Without it the payload is :attr:`RecvRequest.data`.
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
            np = _np or _load_numpy()
            if not isinstance(buf, np.ndarray):
                buf = np.asarray(memoryview(buf))  # a view, not a copy
            flags = buf.flags
            if (buf.nbytes != nbytes or not flags.c_contiguous
                    or not flags.writeable):
                raise SimulationError(
                    f"rank {self.rank}: irecv of {nbytes} bytes needs a "
                    f"writable C-contiguous {nbytes}-byte buffer, got "
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
        st.n_active += 1
        st.open[req] = None
        key = (wsrc, tag, comm_id)
        queue = st.unexpected.get(key)
        if queue:
            msg = queue.pop(0)
            if not queue:
                del st.unexpected[key]
            if msg.eager:
                # late match: pay the unpack copy out of the eager buffer
                st.busy_until = busy = busy + msg.nbytes / world._copy_bw
                world._complete(st, req, busy, msg.data)
            else:
                # unexpected RTS: answer with CTS at this (in-MPI) moment;
                # no other protocol work is pending, it ran on entry
                msg.recv_req = req
                world._send_cts(st, msg)
        else:
            queue = st.posted.get(key)
            if queue is None:
                st.posted[key] = [req]
            else:
                queue.append(req)
        return req


class Transport:
    """Message protocol steps and network events of :class:`SimWorld`.

    A mixin: every method runs on the world, whose ``__init__`` builds
    the state read here (rank states, links, rails, the fault injector,
    the recorder) and caches the hot callbacks in its instance dict.
    """

    def _mpi_entry(self, st: _RankState) -> None:
        """Process the protocol actions queued while the rank computed.

        Called on every MPI entry from program context (a post, a
        progress call, a wait or a barrier); a blocked rank queues none.
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
        if not st.dead:
            self._complete(st, msg, self.sim._now)

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
                st.pending_cts.append(msg)  # answered at the next MPI entry
            else:  # blocked in Wait == spinning inside MPI: answer now
                self._send_cts(st, msg)
        else:
            st.unexpected.setdefault(key, []).append(msg)

    def _on_cts_arrival(self, msg: _Message) -> None:
        st = self._ranks[msg.src]
        st.inbound -= 1
        if st.dead or msg.failed is not None:
            return
        if st.waiting is None:
            st.pending_data.append(msg)  # moved at the next MPI entry
        else:  # blocked in Wait: the data moves now
            busy = st.busy_until
            now = self.sim._now
            self._inject(msg, busy if busy > now else now, msg.same_node)

    def _deliver(self, msg: _Message) -> None:
        """A message arrives: its one ``msg.deliver`` row, then matching."""
        st = self._ranks[msg.peer]
        st.inbound -= 1
        if st.dead:
            self._dead_letter(msg)
            return
        t = self.sim._now
        if self._obs is not None:
            self._obs.emit(_K_DELIVER, st.id, t, msg.src, msg.nbytes,
                           t - msg.post_time)
        if msg.recv_req is not None:
            self._complete(st, msg.recv_req, t, msg.data)
            return
        # eager message: match against posted receives or park it
        key = (msg.src, msg.tag, msg.comm_id)
        queue = st.posted.get(key)
        if queue:
            req = queue.pop(0)
            if not queue:
                del st.posted[key]
            self._complete(st, req, t, msg.data)
        else:
            st.unexpected.setdefault(key, []).append(msg)

    def _complete(self, st: _RankState, req: Waitable, t: float,
                  data: Any = None) -> None:
        """Complete an open rendezvous send or receive at time ``t``,
        landing a receive's payload ``data`` first."""
        if req.failed is not None:
            return  # failed by a crash/revoke sweep; message is dropped
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
