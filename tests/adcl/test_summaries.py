"""Record summaries are pinned bit for bit.

``ADCLTimer``, ``CoTuner``, ``OverlapResult`` and ``FFTResult`` report
their records through one shared summary; these values were taken
before that consolidation, so any change in the order of the float
operations (``sum`` over the records in completion order, then divide)
shows up here as a changed ``float.hex()``.
"""

from repro.adcl import (
    ADCLRequest,
    ADCLTimer,
    CollSpec,
    CoTuner,
    ialltoall_function_set,
)
from repro.adcl.fnsets import iallgather_function_set
from repro.apps.fft import FFTConfig, run_fft
from repro.bench import OverlapConfig, run_overlap
from repro.sim import Compute, NoiseModel, Progress, SimWorld, get_platform
from repro.units import KiB

NPROCS = 4

#: total_time(), learning_time(), time_excluding_learning()
TIMER_HEX = ["0x1.993f1dadb1598p-7", "0x1.99a219e547906p-8",
             "0x1.98dc21761b22ap-8"]
COTUNER_HEX = ["0x1.09bcd28a7d2c0p-6", "0x1.6ff7033195e93p-7",
               "0x1.470543c6c8ddap-8"]
#: total_time, mean_iteration, learning_time(), time_excluding_learning(),
#: mean_after_learning()
OVERLAP_HEX = ["0x1.9c4c8ae0337a6p-8", "0x1.12ddb1eaccfc4p-11",
               "0x1.9dd16c012ee18p-9", "0x1.9ac7a9bf38134p-9",
               "0x1.11da712a25623p-11"]
FFT_HEX = ["0x1.435e865080226p-11", "0x1.02b2050d334ebp-14",
           "0x1.97f926d92714ap-12", "0x1.dd87cb8fb2604p-13",
           "0x1.dd87cb8fb2604p-15"]


def _world():
    return SimWorld(get_platform("whale"), NPROCS,
                    noise=NoiseModel(sigma=0.05, seed=7))


def _timed_loop(timer, requests, iterations):
    def factory(ctx):
        for _ in range(iterations):
            timer.start(ctx)
            handles = []
            for req in requests:
                handles.append((yield from req.start(ctx)))
            for _ in range(3):
                yield Compute(0.0004)
                yield Progress(handles)
            for req in requests:
                yield from req.wait(ctx)
            timer.stop(ctx)

    return factory


def _timer_reports(timer):
    return [timer.total_time().hex(), timer.learning_time().hex(),
            timer.time_excluding_learning().hex()]


def test_adcl_timer_reports_are_pinned():
    world = _world()
    areq = ADCLRequest(ialltoall_function_set(),
                       CollSpec("alltoall", world.comm_world, 4 * KiB),
                       evals_per_function=2)
    timer = ADCLTimer(areq)
    world.launch(_timed_loop(timer, [areq], 10))
    world.run()
    assert timer.iterations_completed() == 10
    assert _timer_reports(timer) == TIMER_HEX


def test_cotuner_reports_are_pinned():
    world = _world()
    req_a = ADCLRequest(ialltoall_function_set(),
                        CollSpec("alltoall", world.comm_world, 1 * KiB))
    req_b = ADCLRequest(iallgather_function_set(size=NPROCS),
                        CollSpec("allgather", world.comm_world, 2 * KiB))
    tuner = CoTuner([req_a, req_b], evals_per_combo=1)
    world.launch(_timed_loop(tuner, [req_a, req_b],
                             tuner.learning_iterations + 4))
    world.run()
    assert _timer_reports(tuner) == COTUNER_HEX


def _result_summary(res):
    return [res.total_time.hex(), res.mean_iteration.hex(),
            res.learning_time().hex(), res.time_excluding_learning().hex(),
            res.mean_after_learning().hex()]


def test_overlap_result_summary_is_pinned():
    cfg = OverlapConfig(nprocs=NPROCS, nbytes=4 * KiB, compute_total=5.0,
                        paper_iterations=10000, iterations=12, nprogress=3,
                        noise_sigma=0.05, seed=3)
    res = run_overlap(cfg, evals_per_function=2)
    assert _result_summary(res) == OVERLAP_HEX


def test_fft_result_summary_is_pinned():
    cfg = FFTConfig(n=16, nprocs=NPROCS, method="adcl", iterations=10,
                    evals_per_function=2, noise_sigma=0.05, seed=1)
    res = run_fft(cfg)
    assert _result_summary(res) == FFT_HEX
