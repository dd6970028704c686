"""Integration tests: ADCLRequest + ADCLTimer running inside the simulator."""

import numpy as np
import pytest

from repro.adcl import (
    ADCLRequest,
    ADCLTimer,
    CollSpec,
    FixedSelector,
    HistoryStore,
    ialltoall_extended_function_set,
    ialltoall_function_set,
)
from repro.errors import AdclError
from repro.sim import Compute, Progress, SimWorld, get_platform
from repro.units import KiB


def tuning_program(areq, timer, iterations, compute_s, nprogress):
    """The paper's Fig.-1 code shape as a rank program factory."""

    def factory(ctx):
        chunk = compute_s / max(nprogress, 1)
        for _ in range(iterations):
            if timer is not None:
                timer.start(ctx)
            yield from areq.start(ctx)
            for _ in range(nprogress):
                yield Compute(chunk)
                yield Progress([areq.handle(ctx)])
            yield from areq.wait(ctx)
            if timer is not None:
                timer.stop(ctx)

    return factory


def run_tuning(nprocs=8, platform="whale", msg=1 * KiB, iterations=30,
               compute_s=0.002, nprogress=5, selector="brute_force",
               evals=3, fnset=None, use_timer=True, history=None):
    world = SimWorld(get_platform(platform), nprocs)
    fnset = fnset or ialltoall_function_set()
    spec = CollSpec("alltoall", world.comm_world, msg)
    areq = ADCLRequest(fnset, spec, selector=selector,
                       evals_per_function=evals, history=history)
    timer = ADCLTimer(areq) if use_timer else None
    world.launch(tuning_program(areq, timer, iterations, compute_s, nprogress))
    res = world.run()
    return areq, timer, res


def test_brute_force_decides_and_completes():
    areq, timer, res = run_tuning()
    assert areq.decided
    assert areq.winner_name in ("linear", "dissemination", "pairwise")
    assert timer.iterations_completed() == 30
    assert timer.total_time() > 0
    assert timer.learning_time() + timer.time_excluding_learning() == pytest.approx(
        timer.total_time()
    )


def test_all_functions_exercised_during_learning():
    areq, timer, _ = run_tuning(iterations=20, evals=3)
    used = {r.fn_index for r in timer.records[:9]}
    assert used == {0, 1, 2}


def test_decision_matches_fixed_runs():
    """The tuned winner must be (near-)fastest among fixed-function runs."""
    fnset = ialltoall_function_set()
    per_fn = {}
    for idx in range(len(fnset)):
        world = SimWorld(get_platform("whale"), 8)
        spec = CollSpec("alltoall", world.comm_world, 1 * KiB)
        areq = ADCLRequest(fnset, spec, selector=FixedSelector(fnset, idx))
        timer = ADCLTimer(areq)
        world.launch(tuning_program(areq, timer, 10, 0.002, 5))
        world.run()
        per_fn[idx] = timer.total_time() / timer.iterations_completed()

    areq, _, _ = run_tuning(iterations=30)
    best = min(per_fn.values())
    assert per_fn[areq.selector.winner] <= best * 1.05


def test_self_timing_without_timer_object():
    areq, _, _ = run_tuning(use_timer=False, iterations=30)
    assert areq.decided


def test_winner_used_after_decision():
    areq, timer, _ = run_tuning(iterations=30, evals=3)
    tail = timer.records[areq.decided_at:]
    assert tail, "expected post-decision iterations"
    assert all(r.fn_index == areq.selector.winner for r in tail)
    assert all(not r.learning for r in tail)


def test_extended_set_includes_blocking_winner_candidates():
    fnset = ialltoall_extended_function_set()
    areq, timer, _ = run_tuning(fnset=fnset, iterations=40, evals=2)
    assert areq.decided
    assert timer.iterations_completed() == 40


def test_history_skips_learning_on_second_run(tmp_path):
    store = HistoryStore(str(tmp_path / "hist.json"))
    areq1, _, _ = run_tuning(history=store, iterations=30)
    assert areq1.decided and not areq1.from_history
    areq2, timer2, _ = run_tuning(history=store, iterations=10)
    assert areq2.from_history
    # every iteration of the second run already uses the recorded winner
    assert all(r.fn_index == areq1.selector.winner for r in timer2.records)


def test_history_is_signature_specific(tmp_path):
    store = HistoryStore(str(tmp_path / "hist.json"))
    run_tuning(history=store, iterations=30, msg=1 * KiB)
    # a different message size is a different tuning problem
    areq, _, _ = run_tuning(history=store, iterations=30, msg=64 * KiB)
    assert not areq.from_history


def test_windowed_multiple_outstanding_invocations():
    """Windowed patterns keep several invocations of one persistent
    request in flight; they complete in FIFO order (or by handle)."""
    world = SimWorld(get_platform("whale"), 4)
    fnset = ialltoall_function_set()
    spec = CollSpec("alltoall", world.comm_world, 512)
    areq = ADCLRequest(fnset, spec)
    timer = ADCLTimer(areq)
    observed = []

    def factory(ctx):
        timer.start(ctx)
        h1 = yield from areq.start(ctx)
        h2 = yield from areq.start(ctx)
        assert areq.in_flight(ctx) == 2
        assert areq.handles(ctx) == (h1, h2)
        assert areq.handle(ctx) is h1  # oldest first
        yield Compute(0.001)
        yield Progress(areq.handles(ctx))
        yield from areq.wait(ctx, h2)  # out-of-order completion by handle
        yield from areq.wait(ctx)
        assert areq.in_flight(ctx) == 0
        timer.stop(ctx)
        observed.append(ctx.rank)

    world.launch(factory)
    world.run()
    assert len(observed) == 4
    assert timer.iterations_completed() == 1


def test_wait_unknown_handle_raises():
    world = SimWorld(get_platform("whale"), 2)
    fnset = ialltoall_function_set()
    spec = CollSpec("alltoall", world.comm_world, 512)
    areq = ADCLRequest(fnset, spec)
    failures = []

    def factory(ctx):
        h = yield from areq.start(ctx)
        try:
            yield from areq.wait(ctx, handle=object())
        except AdclError:
            failures.append(ctx.rank)
        yield from areq.wait(ctx, h)

    world.launch(factory)
    world.run()
    assert len(failures) == 2


def test_wait_without_start_raises():
    world = SimWorld(get_platform("whale"), 2)
    fnset = ialltoall_function_set()
    spec = CollSpec("alltoall", world.comm_world, 512)
    areq = ADCLRequest(fnset, spec)
    failures = []

    def factory(ctx):
        try:
            yield from areq.wait(ctx)
        except AdclError:
            failures.append(ctx.rank)
        if False:
            yield  # pragma: no cover

    world.launch(factory)
    world.run()
    assert len(failures) == 2


def test_timer_misuse_raises():
    world = SimWorld(get_platform("whale"), 2)
    fnset = ialltoall_function_set()
    spec = CollSpec("alltoall", world.comm_world, 512)
    areq = ADCLRequest(fnset, spec)
    timer = ADCLTimer(areq)
    with pytest.raises(AdclError):
        ADCLTimer(areq)  # second timer on the same request
    ctx = world.context(0)
    with pytest.raises(AdclError):
        timer.stop(ctx)  # stop before start
    timer.start(ctx)
    with pytest.raises(AdclError):
        timer.start(ctx)  # started twice


def test_payload_mode_through_adcl(run_payload=True):
    """ADCL-tuned alltoall must still move the right bytes."""
    nprocs, m = 4, 64
    world = SimWorld(get_platform("whale"), nprocs)
    fnset = ialltoall_function_set()
    spec = CollSpec("alltoall", world.comm_world, m)
    areq = ADCLRequest(fnset, spec, evals_per_function=2)
    ok = []

    def factory(ctx):
        for _ in range(8):
            send = np.concatenate([
                np.full(m, (ctx.rank * nprocs + j) % 251, np.uint8)
                for j in range(nprocs)
            ])
            recv = np.zeros(nprocs * m, np.uint8)
            yield from areq.start(ctx, buffers={"send": send, "recv": recv})
            yield Compute(0.001)
            yield Progress([areq.handle(ctx)])
            yield from areq.wait(ctx)
            expected = np.concatenate([
                np.full(m, (j * nprocs + ctx.rank) % 251, np.uint8)
                for j in range(nprocs)
            ])
            ok.append(bool(np.array_equal(recv, expected)))

    world.launch(factory)
    world.run()
    assert all(ok)
    assert len(ok) == 4 * 8
