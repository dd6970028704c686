"""The 3-D FFT application kernel (§IV-B).

The kernel repeats a forward 3-D FFT ``iterations`` times on slab-
decomposed data, overlapping the transpose all-to-all with the plane
FFTs according to one of the four patterns (pipelined / tiled /
windowed / window-tiled).  Four *methods* provide the communication:

* ``"libnbc"``   — stock LibNBC: the single linear non-blocking
  algorithm (what the paper compares against),
* ``"adcl"``     — the ADCL-tuned 3-algorithm Ialltoall function-set,
* ``"adcl_ext"`` — the extended set that also contains the blocking
  algorithms (§IV-B's modified function-set),
* ``"mpi"``      — a blocking ``MPI_Alltoall`` (Open MPI's tuned
  pairwise choice for large messages): no overlap at all.

All methods run through the same :class:`~repro.adcl.ADCLRequest` +
:class:`~repro.adcl.ADCLTimer` machinery (the fixed methods simply use
a :class:`~repro.adcl.FixedSelector`), so their per-iteration times are
measured identically.

With ``validate=True`` the kernel moves real ``complex128`` data
through the simulated all-to-all and checks the distributed result
against ``numpy.fft.fftn`` after every iteration: each rank finishes
its y-slab along z and passes when every element of the difference
``d`` from the reference slice satisfies ``|d| <= 1e-8 + 1e-5 * |ref|``
(``np.allclose(..., atol=1e-8)``; see :func:`_slab_matches`).  Its
live data is then the input and
reference cubes plus, per rank, one y-slab and the in-flight transpose
buffers: about 8 x n^3 x 16 bytes at peak.  Each rank's input is a
view of the shared cube, and every per-iteration array is local to one
iteration, so nothing outlives its last use.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ...adcl.fnsets import ialltoall_extended_function_set, ialltoall_function_set
from ...adcl.function import CollSpec
from ...adcl.request import ADCLRequest
from ...adcl.selection.base import FixedSelector
from ...adcl.timer import ADCLTimer, RunSummary, TimerRecord
from ...errors import ReproError
from ...nbc.coll import start_ialltoall
from ...sim import Barrier, Compute, NoiseModel, Progress, SimWorld, Wait, get_platform
from .cost import line_fft_seconds, plane_fft_seconds
from .decomposition import SlabDecomposition
from .patterns import get_pattern

if TYPE_CHECKING:
    import numpy as np

__all__ = ["FFTConfig", "FFTResult", "run_fft", "FFT_METHODS"]

#: method -> (its function-set factory, the candidate a fixed method
#: always runs; ``None`` tunes the set by brute force)
_METHODS = {
    "libnbc": (ialltoall_function_set, "linear"),
    "adcl": (ialltoall_function_set, None),
    "adcl_ext": (ialltoall_extended_function_set, None),
    "mpi": (ialltoall_extended_function_set, "blocking_pairwise"),
}

FFT_METHODS = tuple(_METHODS)

#: untimed warm-up iterations before measurement starts, so the first
#: measured implementation gets no cold-start advantage
WARMUP = 1

#: progress calls inserted per tile's compute phase
PROGRESS_PER_TILE = 2


@dataclass(frozen=True)
class FFTConfig:
    """One 3-D FFT kernel scenario."""

    n: int = 64                      # the FFT is n^3
    platform: str = "whale"
    nprocs: int = 8
    pattern: str = "window_tiled"
    method: str = "adcl"
    iterations: int = 20
    validate: bool = False
    evals_per_function: int = 3
    noise_sigma: float = 0.0
    noise_outlier_prob: float = 0.0
    seed: int = 0
    placement: str = "block"

    def __post_init__(self) -> None:
        if self.method not in FFT_METHODS:
            raise ReproError(
                f"unknown method {self.method!r}; expected one of {FFT_METHODS}"
            )
        # geometry checks happen here so misconfiguration fails fast
        decomp = SlabDecomposition(self.n, self.nprocs)
        pat = get_pattern(self.pattern)
        tiles = decomp.tiles(min(pat.tile, decomp.planes_per_rank))
        if len({cnt for _, cnt in tiles}) != 1:
            raise ReproError(
                f"pattern {self.pattern!r} needs equal tiles: "
                f"{decomp.planes_per_rank} planes/rank not divisible by "
                f"tile={pat.tile} (the persistent ADCL request needs one "
                f"fixed message size)"
            )

    def decomposition(self) -> SlabDecomposition:
        return SlabDecomposition(self.n, self.nprocs)

    def tile_planes(self) -> int:
        pat = get_pattern(self.pattern)
        return min(pat.tile, self.decomposition().planes_per_rank)

    def noise(self) -> Optional[NoiseModel]:
        if self.noise_sigma == 0.0 and self.noise_outlier_prob == 0.0:
            return None
        return NoiseModel(sigma=self.noise_sigma,
                          outlier_prob=self.noise_outlier_prob, seed=self.seed)

    def describe(self) -> str:
        return (
            f"fft3d N={self.n} P={self.nprocs}@{self.platform} "
            f"{self.pattern}/{self.method}"
        )


@dataclass
class FFTResult(RunSummary):
    """Outcome of one kernel execution."""

    config: FFTConfig
    records: list[TimerRecord]
    winner: Optional[str]
    decided_at: Optional[int]
    makespan: float
    validated: Optional[bool]
    #: simulator events dispatched over the whole run
    events: int = 0


def _make_request(config: FFTConfig, world: SimWorld, m: int) -> ADCLRequest:
    spec = CollSpec("alltoall", world.comm_world, m)
    factory, fixed = _METHODS[config.method]
    fnset = factory()
    selector = ("brute_force" if fixed is None
                else FixedSelector(fnset, fnset.index_of(fixed)))
    return ADCLRequest(fnset, spec, selector=selector,
                       evals_per_function=config.evals_per_function)


def _slab_matches(slab: np.ndarray, expected: np.ndarray) -> bool:
    """Finish the transform along z and compare it with numpy's slice.

    The predicate is ``np.allclose(fft(slab, axis=0), expected,
    atol=1e-8)`` for a finite ``expected``: with ``d = fft(slab) -
    expected``, every element must satisfy ``|d| <= 1e-8 + 1e-5 *
    |expected|``, computed with allclose's float operations in its
    order, so the two agree bit for bit.  A NaN or infinity in the
    transform fails, as it does under allclose.

    Unlike allclose it builds no tolerance array: ``d`` is formed in
    place in the transform, and once ``|d|`` is taken the tolerance is
    written over the transform's storage, so besides the transform only
    ``|d|`` and the boolean result are allocated, each a temporary of
    this call.
    """
    import numpy as np

    d = np.fft.fft(slab, axis=0)
    d -= expected
    err = np.abs(d)
    tol = d.view(np.float64).reshape(-1)[:err.size].reshape(err.shape)
    np.abs(expected, out=tol)
    tol *= 1e-5
    tol += 1e-8
    return bool((err <= tol).all())


def run_fft(config: FFTConfig) -> FFTResult:
    """Execute the kernel and return per-iteration measurements."""
    import numpy as np

    world = SimWorld(
        get_platform(config.platform), config.nprocs,
        noise=config.noise(), placement=config.placement,
    )
    params = world.params
    decomp = config.decomposition()
    pattern = get_pattern(config.pattern)
    tile = config.tile_planes()
    tiles = decomp.tiles(tile)
    m = decomp.block_bytes(tile)
    areq = _make_request(config, world, m)
    timer = ADCLTimer(areq)

    n = config.n
    P = config.nprocs
    L = decomp.planes_per_rank
    tile_compute = plane_fft_seconds(n, tile, params)
    chunk = tile_compute / PROGRESS_PER_TILE
    final_compute = line_fft_seconds(n, L * n, params)

    validation: dict[int, bool] = {}
    original = None
    reference = None
    if config.validate:
        rng = np.random.default_rng(config.seed + 77)
        original = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
        reference = np.fft.fftn(original)

    def post(ctx, local, z0, cnt):
        """2-D FFT one tile and start its transpose (generator).

        Returns the window entry ``(handle, z0, cnt, recvbuf)``.  The
        packed send buffer is referenced only by the request, which
        drops it when the transpose completes.
        """
        if local is None:
            handle = yield from areq.start(ctx)
            return handle, z0, cnt, None
        send = np.ascontiguousarray(
            np.fft.fft2(local[z0:z0 + cnt]).reshape(cnt, P, L, n)
            .transpose(1, 0, 2, 3)
        )
        # every byte is received before it is read: no zero fill
        recvbuf = np.empty(P * m, dtype=np.uint8)
        handle = yield from areq.start(ctx, buffers={"send": send,
                                                     "recv": recvbuf})
        return handle, z0, cnt, recvbuf

    def complete_oldest(ctx, window, slab):
        """Wait for the oldest transpose and unpack it into the y-slab."""
        handle, z0, cnt, recvbuf = window.popleft()
        yield from areq.wait(ctx, handle)
        if slab is not None:
            blocks = recvbuf.view(np.complex128).reshape(P, cnt, L, n)
            slab.reshape(P, L, L, n)[:, z0:z0 + cnt] = blocks

    def iteration(ctx, local):
        """One timed forward FFT (generator); True unless validation fails.

        Everything the iteration allocates is local to this frame, so it
        is freed when the iteration returns instead of being pinned by
        the rank program through the next one.
        """
        slab = None
        if local is not None:
            # the tiles' unpacks cover the whole slab
            slab = np.empty((n, L, n), dtype=np.complex128)
        window = deque()  # (handle, z0, cnt, recvbuf), oldest first
        timer.start(ctx)
        for z0, cnt in tiles:
            # 2-D FFTs for this tile, progressing outstanding transposes
            for _ in range(PROGRESS_PER_TILE):
                yield Compute(chunk)
                yield Progress(areq.handles(ctx))
            if len(window) >= pattern.window:
                yield from complete_oldest(ctx, window, slab)
            window.append((yield from post(ctx, local, z0, cnt)))
        while window:
            yield from complete_oldest(ctx, window, slab)
        # final 1-D FFTs along z on the received y-slab
        yield Compute(final_compute)
        timer.stop(ctx)
        # re-synchronize between timed iterations so neither NIC
        # backlog nor rank phase skew leaks from one measurement
        # into the next (the hygiene real benchmarks get from
        # MPI_Barrier, idealized to a perfect synchronizer)
        yield Barrier()
        if slab is None:
            return True
        # every iteration must transpose correctly, not just the last
        return _slab_matches(slab, reference[:, ctx.rank * L:(ctx.rank + 1) * L])

    def factory(ctx):
        rank = ctx.rank
        local = None
        if config.validate:
            local = original[rank * L:(rank + 1) * L]
        # untimed warm-up with the stock (linear) transpose: fills NIC
        # queues and de-phases ranks the way steady state does, so the
        # first measured function has no cold-start advantage
        for _ in range(WARMUP):
            warm_window = []
            for _z0, _cnt in tiles:
                for _ in range(PROGRESS_PER_TILE):
                    yield Compute(chunk)
                    yield Progress(warm_window)
                if len(warm_window) >= pattern.window:
                    yield Wait(warm_window.pop(0))
                warm_window.append(start_ialltoall(ctx, m, algorithm="linear"))
            while warm_window:
                yield Wait(warm_window.pop(0))
            yield Compute(final_compute)
            yield Barrier()
        for _ in range(config.iterations):
            ok = yield from iteration(ctx, local)
            validation[rank] = validation.get(rank, True) and ok

    world.launch(factory)
    res = world.run()
    validated = None
    if config.validate:
        validated = all(validation.get(r, False) for r in range(config.nprocs))
    return FFTResult(
        config=config,
        records=list(timer.records),
        winner=areq.winner_name,
        decided_at=areq.decided_at,
        makespan=res.makespan,
        validated=validated,
        events=res.events,
    )
