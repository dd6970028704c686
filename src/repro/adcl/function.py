"""ADCL functions and function-sets (§III-C terminology).

* a **function-set** is a communication operation ADCL can tune
  (e.g. the non-blocking all-to-all),
* a **function** is one concrete implementation in that set (e.g. the
  pairwise-exchange algorithm),
* each function may carry attribute values describing it; the set
  derives its attribute domains from them
  (:attr:`FunctionSet.attribute_set`).

A function is *non-blocking* (separate init/wait — the normal case) or
*blocking* (the wait pointer left empty; the init performs the whole
operation).  §IV-B exploits the latter to add ``MPI_Alltoall`` to the
``Ialltoall`` function-set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional, Sequence

from ..errors import AdclError
from ..nbc.request import NBCRequest
from ..sim.mpi import MPIContext, SimComm

if TYPE_CHECKING:
    import numpy as np

__all__ = ["CollSpec", "CollFunction", "FunctionSet"]


@dataclass(frozen=True)
class CollSpec:
    """Problem description of a persistent collective operation.

    ``nbytes`` means bytes-per-pair for all-to-all style operations and
    the total payload for rooted ones (bcast/reduce).  Buffers are
    supplied per-call by the rank program (they may change between
    iterations, e.g. the FFT's window buffers).
    """

    kind: str
    comm: SimComm
    nbytes: int
    root: int = 0

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise AdclError(f"negative payload {self.nbytes}")
        if self.kind in ("bcast", "reduce") and not 0 <= self.root < self.comm.size:
            raise AdclError(f"root {self.root} out of range")

    def signature(self) -> str:
        """Stable key describing the problem (checkpoint snapshots)."""
        return f"{self.kind}:P{self.comm.size}:B{self.nbytes}:R{self.root}"


@dataclass(frozen=True)
class CollFunction:
    """One implementation (an "ADCL function") within a function-set."""

    name: str
    #: builds + starts the NBC handle for this rank (ADCL calls it):
    #: ``maker(ctx, spec, buffers) -> NBCRequest``
    maker: Callable[[MPIContext, CollSpec, Optional[Mapping[str, np.ndarray]]],
                    NBCRequest] = field(repr=False)
    attributes: Mapping[str, Any] = field(default_factory=dict)
    #: blocking functions perform the whole operation inside init
    #: (the wait function pointer is NULL, §III-C)
    blocking: bool = False


class FunctionSet:
    """An operation with its pool of candidate implementations.

    ``attribute_set`` maps each attribute name to the tuple of its
    values, both in order of first appearance among the candidates; it
    is ``None`` unless every candidate names the same attributes (an
    attribute-less or mixed set).
    """

    def __init__(self, name: str, functions: Sequence[CollFunction]):
        if not functions:
            raise AdclError(f"function-set {name!r} needs at least one function")
        names = [f.name for f in functions]
        if len(set(names)) != len(names):
            raise AdclError(f"duplicate function names in {name!r}: {names}")
        self.name = name
        self.functions = tuple(functions)
        self.attribute_set: Optional[dict[str, tuple]] = None
        keys = functions[0].attributes.keys()
        if keys and all(f.attributes.keys() == keys for f in functions):
            self.attribute_set = {
                k: tuple(dict.fromkeys(f.attributes[k] for f in functions))
                for k in keys
            }

    def __len__(self) -> int:
        return len(self.functions)

    def __iter__(self):
        return iter(self.functions)

    def __getitem__(self, idx: int) -> CollFunction:
        return self.functions[idx]

    def index_of(self, name: str) -> int:
        """Position of the function called ``name``."""
        for i, f in enumerate(self.functions):
            if f.name == name:
                return i
        raise AdclError(f"no function named {name!r} in set {self.name!r}")

    def safe_fallback_index(self) -> int:
        """The most conservative implementation in the set.

        Used by the resilience layer as the never-quarantined fallback:
        prefer a *blocking* function (the linear/blocking path cannot
        stall on missing progress calls), else a linear algorithm, else
        the set's first function.
        """
        for i, f in enumerate(self.functions):
            if f.blocking:
                return i
        for i, f in enumerate(self.functions):
            if "linear" in f.name:
                return i
        return 0

    def subset_where(self, **attr_values) -> list[int]:
        """Indices of functions whose attributes match all given values."""
        return [
            i
            for i, f in enumerate(self.functions)
            if all(f.attributes.get(k) == v for k, v in attr_values.items())
        ]

    def __repr__(self) -> str:  # pragma: no cover
        return f"<FunctionSet {self.name!r}: {len(self.functions)} functions>"
