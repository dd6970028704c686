"""Tests for the co-tuning extension (joint selection over two requests)."""

import pytest

from repro.adcl import ADCLRequest, CollSpec, CoTuner, ialltoall_function_set
from repro.adcl.fnsets import iallgather_function_set
from repro.errors import AdclError
from repro.sim import Compute, Progress, SimWorld, get_platform
from repro.units import KiB


def build(nprocs=8, m_a=1 * KiB, m_b=4 * KiB, evals=2):
    world = SimWorld(get_platform("whale"), nprocs)
    fns_a = ialltoall_function_set()
    fns_b = iallgather_function_set(size=nprocs)
    req_a = ADCLRequest(fns_a, CollSpec("alltoall", world.comm_world, m_a))
    req_b = ADCLRequest(fns_b, CollSpec("allgather", world.comm_world, m_b))
    tuner = CoTuner([req_a, req_b], evals_per_combo=evals)
    return world, req_a, req_b, tuner


def cotuned_program(tuner, req_a, req_b, iterations, compute=0.002):
    def factory(ctx):
        for _ in range(iterations):
            tuner.start(ctx)
            ha = yield from req_a.start(ctx)
            hb = yield from req_b.start(ctx)
            for _ in range(4):
                yield Compute(compute / 4)
                yield Progress([ha, hb])
            yield from req_a.wait(ctx)
            yield from req_b.wait(ctx)
            tuner.stop(ctx)

    return factory


def test_cotuner_searches_full_cross_product():
    world, req_a, req_b, tuner = build(evals=2)
    ncombos = len(req_a.fnset) * len(req_b.fnset)
    assert len(tuner.combos) == ncombos
    assert tuner.learning_iterations == 2 * ncombos
    iterations = tuner.learning_iterations + 6
    world.launch(cotuned_program(tuner, req_a, req_b, iterations))
    world.run()
    assert tuner.decided
    assert tuner.winner_combo is not None
    # the slaved selectors expose the joint decision per request
    assert req_a.winner_name == tuner.winner_names[0]
    assert req_b.winner_name == tuner.winner_names[1]
    assert len(tuner.records) == iterations


def test_slaved_selectors_mirror_the_joint_decision():
    """Every slaved selector reports the tuner's decision at every step."""
    world, req_a, req_b, tuner = build(evals=1)
    iterations = tuner.learning_iterations + 4
    seen = []

    def check():
        combo = tuner.winner_combo
        for i, req in enumerate((req_a, req_b)):
            sel = req.selector
            winner = None if combo is None else combo[i]
            seen.append((sel.decided, sel.winner, sel.winner_name,
                         sel.decided_at) == (
                combo is not None, winner,
                None if winner is None else req.fnset[winner].name,
                tuner.decided_at))

    inner = cotuned_program(tuner, req_a, req_b, iterations)

    def factory(ctx):
        gen = inner(ctx)
        value = None
        while True:
            check()
            try:
                value = yield gen.send(value)
            except StopIteration:
                break
        check()

    world.launch(factory)
    world.run()
    assert tuner.decided
    assert len(seen) > 4 * iterations
    assert all(seen)


def test_every_combination_visited_during_learning():
    world, req_a, req_b, tuner = build(evals=1)
    iterations = tuner.learning_iterations + 2
    world.launch(cotuned_program(tuner, req_a, req_b, iterations))
    world.run()
    visited = {tuner.combos[r.fn_index] for r in tuner.records if r.learning}
    assert visited == set(tuner.combos)


def test_steady_state_uses_winner_combo():
    world, req_a, req_b, tuner = build(evals=1)
    iterations = tuner.learning_iterations + 5
    world.launch(cotuned_program(tuner, req_a, req_b, iterations))
    world.run()
    tail = [r for r in tuner.records if not r.learning]
    assert tail
    widx = tuner.combos.index(tuner.winner_combo)
    assert all(r.fn_index == widx for r in tail)
    assert tuner.learning_time() + tuner.time_excluding_learning() == pytest.approx(
        tuner.total_time()
    )


def test_joint_winner_is_competitive():
    """The co-tuned combination must be at least as good as running the
    learning again would suggest: verify its steady time is within a few
    percent of the best observed learning measurement."""
    world, req_a, req_b, tuner = build(evals=2)
    iterations = tuner.learning_iterations + 8
    world.launch(cotuned_program(tuner, req_a, req_b, iterations))
    world.run()
    best_seen = min(r.seconds for r in tuner.records if r.learning)
    steady = tuner.time_excluding_learning() / max(
        1, len([r for r in tuner.records if not r.learning])
    )
    assert steady <= best_seen * 1.10


def test_misuse_rejected():
    with pytest.raises(AdclError):
        CoTuner([])
    world, req_a, req_b, tuner = build()
    ctx = world.context(0)
    with pytest.raises(AdclError):
        tuner.stop(ctx)
    tuner.start(ctx)
    with pytest.raises(AdclError):
        tuner.start(ctx)


def test_evals_validation():
    world, req_a, req_b, _ = build()
    with pytest.raises(AdclError):
        CoTuner([req_a], evals_per_combo=0)
