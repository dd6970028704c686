"""``ComputeProgressSpan`` is the flat ``(Compute, Progress)`` pair stream.

A span is stepped by the driver instead of the generator, but its
docstring promises bit-identical charges, times and event counts.  Each
case runs one program yielding spans and one yielding the equivalent
flat pairs, with and without the fast lane, and compares per-rank
finish times, ``events_dispatched`` and the recorded ``compute`` /
``progress`` rows.  Under the lane, a span's later compute halves are
folded into the progress halves before them; the fold count is checked
separately.
"""

import pytest

from repro import nbc
from repro.obs import recording
from repro.sim import (
    Barrier,
    Compute,
    ComputeProgressSpan,
    FaultPlan,
    NoiseModel,
    Progress,
    SimWorld,
    Wait,
    get_platform,
)
from repro.units import KiB

NPROCS = 8
CHUNKS = 12

CASES = {
    "quiet": dict,
    "noisy": lambda: {"noise": NoiseModel(sigma=0.05, outlier_prob=0.02,
                                          seed=7)},
    "straggler": lambda: {"faults": FaultPlan(stragglers=((3, 1.75),))},
}


def program(span):
    def prog(ctx):
        # a rendezvous-sized exchange that completes mid-span, then an
        # eager one: both the evented halves and the collapsed tail run.
        # No barrier after the last Wait, so every rank's own finish
        # time is compared.
        for it, (nbytes, sec) in enumerate(((64 * KiB, 3.7e-6),
                                            (1 * KiB, 2.3e-6))):
            if it:
                yield Barrier()
            req = nbc.start_ialltoall(ctx, nbytes, algorithm="pairwise")
            if span:
                yield ComputeProgressSpan(sec, [req], CHUNKS)
            else:
                for _ in range(CHUNKS):
                    yield Compute(sec)
                    yield Progress([req])
            yield Wait(req)

    return prog


def run(case, span, lane, monkeypatch):
    monkeypatch.setenv("REPRO_ARRAY_ENGINE", "1" if lane else "0")
    world = SimWorld(get_platform("whale"), NPROCS, **CASES[case]())
    world.launch(program(span))
    res = world.run()
    return world, [t.hex() for t in res.finish_times], res.events


def charge_rows(case, span, lane, monkeypatch):
    with recording() as rec:
        _, times, events = run(case, span, lane, monkeypatch)
    rows = [(rank, ts.hex(), dur.hex(), args)
            for _, _, rank, _, name, ts, dur, args in rec.events
            if name in ("compute", "progress")]
    return rows, times, events


@pytest.mark.parametrize("lane", [True, False], ids=["lane", "nolane"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_span_matches_flat_pairs(case, lane, monkeypatch):
    world, times, events = run(case, True, lane, monkeypatch)
    _, flat_times, flat_events = run(case, False, lane, monkeypatch)
    assert times == flat_times
    assert events == flat_events
    if case == "quiet" and lane:
        # the collapsed span tail really ran
        assert world.sim.batched_syscalls > 0

    rows, rec_times, rec_events = charge_rows(case, True, lane, monkeypatch)
    flat_rows, _, _ = charge_rows(case, False, lane, monkeypatch)
    assert len(rows) == 2 * NPROCS * 2 * CHUNKS
    assert rows == flat_rows
    # recording is passive
    assert (rec_times, rec_events) == (times, events)


@pytest.mark.parametrize("lane", [True, False], ids=["lane", "nolane"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_lane_folds_every_later_compute_half(case, lane, monkeypatch):
    """With the lane on (no faults), only each span's first compute half
    runs ``_charge_compute`` (inline, from the pulling event); the later
    ones are folded into the progress halves.  Without the lane, or with
    faults, every chunk's compute half runs it."""
    calls = []
    charge = SimWorld._charge_compute

    def counting(self, st, sc, remaining):
        calls.append(remaining)
        return charge(self, st, sc, remaining)

    monkeypatch.setattr(SimWorld, "_charge_compute", counting)
    run(case, True, lane, monkeypatch)
    spans = 2 * NPROCS
    if lane and case != "straggler":
        assert calls == [CHUNKS] * spans
    else:
        assert len(calls) == spans * CHUNKS
        assert sorted(calls) == sorted(list(range(1, CHUNKS + 1)) * spans)
