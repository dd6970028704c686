"""Fault injection for the simulated machine.

The paper's premise is that the best collective implementation depends
on run-time conditions — but real clusters do not only exhibit the
*benign* variation the noise model covers (OS jitter, stolen cores).
They lose messages, links degrade, ranks straggle, and NIC rails die.
This module scripts such conditions deterministically so the tuner's
graceful-degradation machinery (quarantine, watchdog, drift re-tuning)
can be exercised and regression-tested:

* **Message drops** (:class:`DropRule`) — each inter-node data message
  is dropped with a given probability, optionally restricted to a
  virtual-time window and/or a (src, dst) world-rank pair.  Control
  messages (RTS/CTS) and intra-node shared-memory transfers are not
  dropped: shared memory does not lose data.
* **Link degradation** (:class:`LinkDegradation`) — a virtual-time
  window during which every inter-node message sees its latency and/or
  serialization time multiplied (a flapping uplink, a congested spine).
* **Stragglers** — per-rank persistent compute slowdown factors (a
  thermally throttled socket, a co-scheduled job).
* **NIC rail failure** (:class:`RailFailure`) — one rail of a node's
  (possibly multi-rail) NIC goes down for a window; traffic re-routes to
  the surviving rails, and if none survive the message is treated as
  dropped until a rail recovers.
* **Rank crash** (:class:`RankCrash`) — a process dies at a virtual
  time.  Unlike every fault above, this is not transient: the rank's
  program is terminated, its pending operations will never complete, and
  survivors touching it observe :class:`~repro.errors.RankFailedError`
  instead of silently deadlocking.  Recovery (ULFM-style revoke/shrink/
  agree) lives in :mod:`repro.sim.mpi`; the optional ``respawn_delay``
  models how long a replacement process would take to join a subsequent
  execution and is accounted by the fault-tolerant harness, not inside
  the simulation (a crashed rank never returns within one run).

A :class:`FaultPlan` is a frozen, hashable script of such faults; the
:class:`FaultInjector` executes it against a :class:`~repro.sim.engine.
Simulator`: window boundaries are scheduled as DES events that toggle
the active-fault state, so the per-message hot path is O(active faults)
and an **empty plan costs nothing** — :class:`~repro.sim.mpi.SimWorld`
does not even instantiate an injector for it.

All randomness (the drop draws) comes from one seeded generator that is
independent of the noise-model streams, so enabling faults never shifts
the noise sequence and runs stay bit-reproducible for a given seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..errors import FaultError

__all__ = [
    "DropRule",
    "LinkDegradation",
    "RailFailure",
    "RankCrash",
    "FaultPlan",
    "FaultInjector",
]

#: stream constant decorrelating the injector RNG from the noise streams
_FAULT_STREAM = 0xFA017


@dataclass(frozen=True)
class DropRule:
    """Drop inter-node data messages with probability ``prob``."""

    prob: float
    t_start: float = 0.0
    t_end: float = math.inf
    #: optional world-rank filters (``None`` matches any rank)
    src: Optional[int] = None
    dst: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.prob <= 1.0:
            raise FaultError(f"drop probability {self.prob!r} not in [0, 1]")
        if self.t_end <= self.t_start:
            raise FaultError(
                f"drop window end {self.t_end!r} must be after start {self.t_start!r}"
            )

    def matches(self, src: int, dst: int) -> bool:
        return (self.src is None or self.src == src) and (
            self.dst is None or self.dst == dst
        )


@dataclass(frozen=True)
class LinkDegradation:
    """Multiply inter-node latency/serialization inside a time window.

    ``latency_mult`` scales the link alpha, ``bandwidth_mult`` scales the
    serialization time (a value of 4 means the link moves bytes 4x
    slower).  Overlapping windows compound multiplicatively.
    """

    t_start: float
    t_end: float
    latency_mult: float = 1.0
    bandwidth_mult: float = 1.0

    def __post_init__(self) -> None:
        if self.t_end <= self.t_start:
            raise FaultError(
                f"degradation window end {self.t_end!r} must be after "
                f"start {self.t_start!r}"
            )
        if self.latency_mult < 1.0 or self.bandwidth_mult < 1.0:
            raise FaultError("degradation multipliers must be >= 1")


@dataclass(frozen=True)
class RailFailure:
    """One NIC rail of one node is down during ``[t_start, t_end)``."""

    node: int
    rail: int
    t_start: float = 0.0
    t_end: float = math.inf

    def __post_init__(self) -> None:
        if self.node < 0 or self.rail < 0:
            raise FaultError("node and rail must be >= 0")
        if self.t_end <= self.t_start:
            raise FaultError(
                f"rail-failure end {self.t_end!r} must be after start {self.t_start!r}"
            )


@dataclass(frozen=True)
class RankCrash:
    """World rank ``rank`` dies at virtual time ``t`` and never returns.

    ``respawn_delay`` (optional) is the provisioning time a replacement
    process would need before it could join a *subsequent* execution;
    within one simulation the rank stays dead.  The fault-tolerant
    driver (:func:`repro.bench.run_overlap` with ``recovery=ULFM()``)
    adds it to restart-time accounting.
    """

    rank: int
    t: float
    respawn_delay: Optional[float] = None

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise FaultError(f"crash rank {self.rank} must be >= 0")
        if self.t < 0.0:
            raise FaultError(f"crash time {self.t!r} must be >= 0")
        if self.respawn_delay is not None and self.respawn_delay < 0.0:
            raise FaultError(
                f"respawn delay {self.respawn_delay!r} must be >= 0"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, hashable script of faults for one simulation."""

    drops: tuple[DropRule, ...] = ()
    degradations: tuple[LinkDegradation, ...] = ()
    #: ``(world_rank, slowdown_factor)`` pairs; factor > 1 slows compute
    stragglers: tuple[tuple[int, float], ...] = ()
    rail_failures: tuple[RailFailure, ...] = ()
    crashes: tuple[RankCrash, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        for rank, factor in self.stragglers:
            if rank < 0:
                raise FaultError(f"straggler rank {rank} must be >= 0")
            if factor < 1.0:
                raise FaultError(
                    f"straggler factor {factor!r} must be >= 1 (a slowdown)"
                )
        seen = set()
        for crash in self.crashes:
            if crash.rank in seen:
                raise FaultError(f"rank {crash.rank} crashes more than once")
            seen.add(crash.rank)

    @property
    def empty(self) -> bool:
        """True when the plan injects nothing at all."""
        return not (
            self.drops or self.degradations or self.stragglers
            or self.rail_failures or self.crashes
        )

    # ------------------------------------------------------------------
    # the CLI mini-language
    # ------------------------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse the ``--faults`` mini-language into a plan.

        Comma-separated clauses, each repeatable::

            drop=P                drop inter-node messages with probability P
            drop=P@T0:T1          ... only inside the window [T0, T1)
            degrade=T0:T1:LAT:BW  latency xLAT, bandwidth /BW inside [T0, T1)
            straggler=RANK:F      RANK computes F times slower
            rail=NODE:RAIL@T0     rail RAIL of NODE fails at T0 (forever)
            rail=NODE:RAIL@T0:T1  ... recovering at T1
            crash=RANK@T          RANK dies at virtual time T (forever)
            crash=RANK@T:D        ... a replacement needs D s to provision
            seed=N                seed of the drop RNG

        Example: ``drop=0.02,degrade=0:0.5:4:8,straggler=3:2.5,seed=7``
        or ``crash=3@0.05`` to kill rank 3 at t=0.05s.
        """
        drops: list[DropRule] = []
        degradations: list[LinkDegradation] = []
        stragglers: list[tuple[int, float]] = []
        rails: list[RailFailure] = []
        crashes: list[RankCrash] = []
        seed = 0
        for clause in filter(None, (c.strip() for c in spec.split(","))):
            key, sep, value = clause.partition("=")
            if not sep:
                raise FaultError(f"fault clause {clause!r} is not key=value")
            try:
                if key == "drop":
                    prob, _, window = value.partition("@")
                    if window:
                        t0, t1 = window.split(":")
                        drops.append(DropRule(float(prob), float(t0), float(t1)))
                    else:
                        drops.append(DropRule(float(prob)))
                elif key == "degrade":
                    t0, t1, lat, bw = value.split(":")
                    degradations.append(LinkDegradation(
                        float(t0), float(t1), float(lat), float(bw)))
                elif key == "straggler":
                    rank, factor = value.split(":")
                    stragglers.append((int(rank), float(factor)))
                elif key == "rail":
                    where, _, window = value.partition("@")
                    node, rail = where.split(":")
                    if window:
                        parts = window.split(":")
                        t0 = float(parts[0])
                        t1 = float(parts[1]) if len(parts) > 1 else math.inf
                    else:
                        t0, t1 = 0.0, math.inf
                    rails.append(RailFailure(int(node), int(rail), t0, t1))
                elif key == "crash":
                    rank, _, when = value.partition("@")
                    if not when:
                        raise FaultError(
                            f"crash clause {clause!r} needs RANK@T[:RESPAWN]"
                        )
                    parts = when.split(":")
                    t = float(parts[0])
                    delay = float(parts[1]) if len(parts) > 1 else None
                    crashes.append(RankCrash(int(rank), t, delay))
                elif key == "seed":
                    seed = int(value)
                else:
                    raise FaultError(f"unknown fault clause {key!r}")
            except (ValueError, TypeError) as exc:
                raise FaultError(f"cannot parse fault clause {clause!r}: {exc}")
        return cls(
            drops=tuple(drops),
            degradations=tuple(degradations),
            stragglers=tuple(stragglers),
            rail_failures=tuple(rails),
            crashes=tuple(crashes),
            seed=seed,
        )

    def describe(self) -> str:
        """One-line human-readable summary of the plan."""
        if self.empty:
            return "no faults"
        parts = []
        if self.drops:
            parts.append(f"{len(self.drops)} drop rule(s)")
        if self.degradations:
            parts.append(f"{len(self.degradations)} degradation window(s)")
        if self.stragglers:
            parts.append(f"{len(self.stragglers)} straggler(s)")
        if self.rail_failures:
            parts.append(f"{len(self.rail_failures)} rail failure(s)")
        if self.crashes:
            ranks = ",".join(str(c.rank) for c in self.crashes)
            parts.append(f"{len(self.crashes)} rank crash(es) [{ranks}]")
        return ", ".join(parts) + f" (seed {self.seed})"


class FaultInjector:
    """Executes a :class:`FaultPlan` against one simulation.

    The injector is installed into a :class:`~repro.sim.engine.Simulator`
    by :meth:`install`: every finite window boundary becomes a DES event
    toggling the corresponding fault on or off, so per-message queries
    (:meth:`should_drop`, :meth:`link_factors`, :meth:`healthy_rail`)
    only consult the currently-active fault state.
    """

    def __init__(self, plan: FaultPlan):
        import numpy as np

        self.plan = plan
        self._rng = np.random.default_rng((plan.seed * 1_000_003) ^ _FAULT_STREAM)
        self._active_drops: list[DropRule] = []
        self._lat_mult = 1.0
        self._bw_mult = 1.0
        self._failed_rails: set[tuple[int, int]] = set()
        self._stragglers: dict[int, float] = dict(plan.stragglers)
        self._installed = False
        #: callback invoked when a crash fires; SimWorld wires this to its
        #: crash handler before calling :meth:`install`
        self.on_rank_crash = None
        #: trace recorder (or None); SimWorld wires its cached recorder
        #: here before calling :meth:`install` so window toggles emit
        #: ``fault.window`` instants
        self.obs = None
        self._sim = None
        #: observability counters
        self.messages_dropped = 0
        self.ranks_crashed = 0

    # ------------------------------------------------------------------
    # installation (DES-event driven window boundaries)
    # ------------------------------------------------------------------

    def install(self, sim) -> None:
        """Schedule the plan's window boundaries on ``sim``."""
        if self._installed:
            raise FaultError("FaultInjector.install() may only be called once")
        self._installed = True
        self._sim = sim
        now = sim.now
        for rule in self.plan.drops:
            self._schedule(sim, now, rule.t_start, self._activate_drop, rule)
            self._schedule(sim, now, rule.t_end, self._deactivate_drop, rule)
        for win in self.plan.degradations:
            self._schedule(sim, now, win.t_start, self._activate_degradation, win)
            self._schedule(sim, now, win.t_end, self._deactivate_degradation, win)
        for rf in self.plan.rail_failures:
            self._schedule(sim, now, rf.t_start, self._fail_rail, rf)
            self._schedule(sim, now, rf.t_end, self._restore_rail, rf)
        for crash in self.plan.crashes:
            self._schedule(sim, now, crash.t, self._crash, crash)

    @staticmethod
    def _schedule(sim, now: float, when: float, fn, arg) -> None:
        if not math.isfinite(when):
            return  # permanent: no deactivation event
        if when <= now:
            fn(arg)  # already in effect at install time
        else:
            sim.post(when, fn, arg)

    def _window(self, kind: str, active: bool, args: dict) -> None:
        """Emit a ``fault.window`` trace instant for a window toggle."""
        if self.obs is not None and self._sim is not None:
            args = dict(args)
            args["kind"] = kind
            args["active"] = active
            self.obs.instant("fault", "fault.window", -1, self._sim.now, args)

    def _activate_drop(self, rule: DropRule) -> None:
        self._active_drops.append(rule)
        self._window("drop", True, {"prob": rule.prob})

    def _deactivate_drop(self, rule: DropRule) -> None:
        self._active_drops.remove(rule)
        self._window("drop", False, {"prob": rule.prob})

    def _activate_degradation(self, win: LinkDegradation) -> None:
        self._lat_mult *= win.latency_mult
        self._bw_mult *= win.bandwidth_mult
        self._window("degrade", True, {"latency_mult": win.latency_mult,
                                       "bandwidth_mult": win.bandwidth_mult})

    def _deactivate_degradation(self, win: LinkDegradation) -> None:
        self._lat_mult /= win.latency_mult
        self._bw_mult /= win.bandwidth_mult
        self._window("degrade", False, {"latency_mult": win.latency_mult,
                                        "bandwidth_mult": win.bandwidth_mult})

    def _fail_rail(self, rf: RailFailure) -> None:
        self._failed_rails.add((rf.node, rf.rail))
        self._window("rail", True, {"node": rf.node, "rail": rf.rail})

    def _restore_rail(self, rf: RailFailure) -> None:
        self._failed_rails.discard((rf.node, rf.rail))
        self._window("rail", False, {"node": rf.node, "rail": rf.rail})

    def _crash(self, crash: RankCrash) -> None:
        self.ranks_crashed += 1
        if self.on_rank_crash is not None:
            self.on_rank_crash(crash)

    # ------------------------------------------------------------------
    # per-message / per-syscall queries (hot path)
    # ------------------------------------------------------------------

    def should_drop(self, src: int, dst: int) -> bool:
        """Draw the drop decision for one transmission attempt."""
        p = 1.0
        for rule in self._active_drops:
            if rule.matches(src, dst):
                p *= 1.0 - rule.prob
        if p >= 1.0:
            return False
        return bool(self._rng.random() < 1.0 - p)

    def link_factors(self) -> tuple[float, float]:
        """Current ``(latency_mult, bandwidth_mult)`` of inter-node links."""
        return self._lat_mult, self._bw_mult

    def compute_factor(self, rank: int) -> float:
        """Persistent compute-slowdown factor of a rank (1.0 = healthy)."""
        return self._stragglers.get(rank, 1.0)

    def healthy_rail(self, node: int, preferred: int, nrails: int) -> Optional[int]:
        """Re-route around failed rails; ``None`` when the node is cut off."""
        failed = self._failed_rails
        if not failed:
            return preferred
        if (node, preferred) not in failed:
            return preferred
        for offset in range(1, nrails):
            rail = (preferred + offset) % nrails
            if (node, rail) not in failed:
                return rail
        return None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<FaultInjector {self.plan.describe()}>"
