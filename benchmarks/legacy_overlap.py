# The pre-optimization overlap-benchmark driver, reconstructed from the
# baseline commit (c6e9d2f) for honest A/B benchmarking by
# test_perf_engine.py: per-iteration syscall allocation, a fresh
# Progress list (and an ``areq.handle`` lookup) per progress call, the
# baseline SimWorld/NBCRequest/NoiseModel stack, and no schedule cache.
# Do not modernize this file.

from __future__ import annotations

from typing import Union
from unittest import mock

import legacy_mpi
import legacy_noise
import legacy_request

import repro.nbc.coll as _coll
from repro.adcl.function import CollSpec
from repro.adcl.request import ADCLRequest
from repro.adcl.selection.base import FixedSelector, Selector
from repro.adcl.timer import ADCLTimer
from repro.bench.overlap import OverlapConfig, OverlapResult, function_set_for
from repro.nbc.schedule import SCHEDULE_CACHE
from repro.sim import Barrier, Compute, Progress, get_platform

__all__ = ["baseline_stack", "run_overlap_legacy"]


class baseline_stack:
    """Context manager routing the NBC layer through the seed snapshots.

    Inside the block, every plan lookup returns a freshly built raw
    schedule (no cache, as in the seed) and ``repro.nbc.coll`` — the
    init path every ADCL function-set maker calls — wires collectives
    to the snapshot :class:`legacy_request.NBCRequest`.  The optimized
    classes are restored on exit no matter what.
    """

    def __enter__(self):
        self._req = _coll.NBCRequest
        self._uncached = mock.patch.object(SCHEDULE_CACHE, "get",
                                           lambda key, build: build())
        _coll.NBCRequest = legacy_request.NBCRequest
        self._uncached.start()
        return self

    def __exit__(self, *exc):
        _coll.NBCRequest = self._req
        self._uncached.stop()
        return False


def run_overlap_legacy(
    config: OverlapConfig,
    selector: Union[str, Selector, int] = "brute_force",
    evals_per_function: int = 5,
    filter_method: str = "cluster",
    history=None,
) -> OverlapResult:
    """The seed's ``run_overlap``, executed on the snapshot stack.

    Must be called inside :class:`baseline_stack` so the NBC layer uses
    the snapshot request class and rebuilds schedules on every init.
    """
    noise = None
    if config.noise_sigma != 0.0 or config.noise_outlier_prob != 0.0:
        noise = legacy_noise.NoiseModel(
            sigma=config.noise_sigma,
            outlier_prob=config.noise_outlier_prob,
            seed=config.seed,
        )
    world = legacy_mpi.SimWorld(
        get_platform(config.platform),
        config.nprocs,
        noise=noise,
        placement=config.placement,
        faults=config.faults,
        reliable=config.reliable,
        max_retries=config.max_retries,
    )
    fnset = function_set_for(config.operation)
    kind = "bcast" if config.operation == "bcast" else "alltoall"
    spec = CollSpec(kind, world.comm_world, config.nbytes)
    if isinstance(selector, int):
        selector = FixedSelector(fnset, selector)
    areq = ADCLRequest(
        fnset,
        spec,
        selector=selector,
        evals_per_function=evals_per_function,
        filter_method=filter_method,
        history=history,
    )
    timer = ADCLTimer(areq)
    chunk = config.compute_per_iteration / max(config.nprogress, 1)

    def factory(ctx):
        for _ in range(config.iterations):
            timer.start(ctx)
            yield from areq.start(ctx)
            for _ in range(config.nprogress):
                yield Compute(chunk)
                yield Progress([areq.handle(ctx)])
            yield from areq.wait(ctx)
            timer.stop(ctx)
            yield Barrier()

    world.launch(factory)
    res = world.run()
    return OverlapResult(
        config=config,
        records=list(timer.records),
        fn_names=[fnset[r.fn_index].name for r in timer.records],
        winner=areq.winner_name,
        decided_at=areq.decided_at,
        makespan=res.makespan,
        events=res.events,
        # the baseline_stack swaps in the legacy engine, which predates stats()
        engine_stats=world.sim.stats() if hasattr(world.sim, "stats") else {},
    )
