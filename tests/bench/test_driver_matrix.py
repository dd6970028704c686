"""One overlap driver for every recovery mode.

Each benchmark operation × selector × recovery policy must tune the same
problem (``CollSpec`` signature), reproduce bit for bit, and — the runs
being fault-free — give the same result with the fast lane on and off
(``REPRO_ARRAY_ENGINE=0``): the recovery policy never changes how a
candidate is timed.  Same-instant joins in the engine heap must not move
a bit either: every fingerprint also matches a run with them disabled.
A crash axis runs every operation under ``ULFM`` with one rank dying
mid-run: the survivors repair once, finish the loop and agree.
"""

import heapq

import pytest

from repro.adcl import ULFM, Resilience
from repro.adcl.function import CollSpec
from repro.adcl.request import ADCLRequest
from repro.bench import (
    OPERATION_KINDS,
    OverlapConfig,
    function_set_for,
    run_overlap,
)
from repro.sim import FaultPlan, RankCrash, SimWorld, get_platform
from repro.sim.engine import Simulator
from repro.units import KiB

SELECTORS = {"brute_force": "brute_force", "heuristic": "heuristic",
             "fixed0": 0}
RECOVERIES = {"none": None, "resilience": Resilience(), "ulfm": ULFM()}


def _post_join_without_joins(self, time, fn, args):
    """``Simulator.post_join`` with joins disabled: one entry per push."""
    heapq.heappush(self._heap, (time, next(self._seq), fn, args))


def fingerprint(res):
    return (
        res.winner,
        res.decided_at,
        res.makespan.hex(),
        res.events,
        [(r.iteration, r.fn_index, r.seconds.hex(), r.learning)
         for r in res.records],
        res.fn_names,
    )


@pytest.mark.parametrize("recovery", sorted(RECOVERIES))
@pytest.mark.parametrize("selector", sorted(SELECTORS))
@pytest.mark.parametrize("operation", sorted(OPERATION_KINDS))
def test_driver_matrix(operation, selector, recovery, monkeypatch):
    cfg = OverlapConfig(platform="whale", nprocs=4, operation=operation,
                        nbytes=4 * KiB, iterations=24)
    signatures = []
    init = ADCLRequest.__init__

    def spy(self, fnset, spec, *args, **kwargs):
        signatures.append(spec.signature())
        init(self, fnset, spec, *args, **kwargs)

    monkeypatch.setattr(ADCLRequest, "__init__", spy)

    def run(fast_lane):
        monkeypatch.setenv("REPRO_ARRAY_ENGINE", "1" if fast_lane else "0")
        return fingerprint(run_overlap(
            cfg, selector=SELECTORS[selector], evals_per_function=1,
            recovery=RECOVERIES[recovery],
        ))

    first = run(fast_lane=True)
    assert run(fast_lane=True) == first
    assert run(fast_lane=False) == first
    with monkeypatch.context() as patch:
        patch.setattr(Simulator, "post_join", _post_join_without_joins)
        assert run(fast_lane=True) == first

    world = SimWorld(get_platform(cfg.platform), cfg.nprocs)
    expected = CollSpec(OPERATION_KINDS[operation], world.comm_world,
                        cfg.nbytes).signature()
    assert signatures == [expected] * 4


@pytest.mark.parametrize("operation", sorted(OPERATION_KINDS))
def test_driver_matrix_crash(operation):
    cfg = OverlapConfig(platform="whale", nprocs=4, operation=operation,
                        nbytes=4 * KiB, iterations=24,
                        faults=FaultPlan(crashes=(RankCrash(3, 0.6),)))

    def run():
        return run_overlap(cfg, evals_per_function=1, recovery=ULFM())

    res = run()
    assert res.dead == [3]
    assert res.repairs == 1
    assert len(res.records) == 24
    assert sorted(res.agreed_winner) == res.survivors == [0, 1, 2]
    assert len(set(res.agreed_winner.values())) == 1
    assert fingerprint(run()) == fingerprint(res)


def test_unknown_operation_with_custom_fnset_is_rejected():
    """An operation outside OPERATION_KINDS has no CollSpec kind; it must
    not be tuned as some default kind just because a fnset was given."""
    cfg = OverlapConfig(nprocs=4, operation="alltoallw", iterations=2)
    with pytest.raises(KeyError):
        run_overlap(cfg, fnset=function_set_for("alltoall"))
