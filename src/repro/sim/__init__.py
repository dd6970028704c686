"""Simulated-machine substrate: DES kernel, network model, simulated MPI.

Public entry points:

* :func:`~repro.sim.platforms.get_platform` — machine presets
  (``crill``, ``whale``, ``whale_tcp``, ``bluegene_p``),
* :class:`~repro.sim.mpi.SimWorld` — one simulated MPI job,
* the syscalls :class:`~repro.sim.process.Compute`,
  :class:`~repro.sim.process.Progress`, :class:`~repro.sim.process.Wait`
  used by rank programs.
"""

from .engine import Simulator
from .faults import (
    DropRule,
    FaultInjector,
    FaultPlan,
    LinkDegradation,
    RailFailure,
    RankCrash,
)
from .mpi import MPIContext, RunResult, SimComm, SimWorld
from .netmodel import LinkParams, MachineParams
from .noise import NoiseModel, NullNoise
from .platforms import Platform, available_platforms, get_platform, register_platform
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

__all__ = [
    "Barrier",
    "Compute",
    "ComputeProgressSpan",
    "DropRule",
    "FaultInjector",
    "FaultPlan",
    "LinkDegradation",
    "LinkParams",
    "RailFailure",
    "RankCrash",
    "MachineParams",
    "MPIContext",
    "NoiseModel",
    "NullNoise",
    "Platform",
    "Progress",
    "RecvRequest",
    "RunResult",
    "SendRequest",
    "SimComm",
    "SimWorld",
    "Simulator",
    "Topology",
    "Wait",
    "Waitable",
    "available_platforms",
    "get_platform",
    "register_platform",
]
