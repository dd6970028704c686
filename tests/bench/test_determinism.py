"""Same seed, same bytes: reproducibility of benchmark runs.

The repository's whole measurement methodology rests on the simulation
being deterministic for a given seed — with noise on, with faults on,
and with the resilient tuner in the loop.  These tests run identical
configurations twice and require byte-identical output.
"""

from repro.bench.overlap import OverlapConfig, run_overlap
from repro.adcl.resilience import Resilience
from repro.sim.faults import DropRule, FaultPlan, LinkDegradation


def fingerprint(res):
    """Everything observable about a run, exactly."""
    return (
        res.winner,
        res.decided_at,
        res.makespan.hex(),                       # bit-exact float identity
        [(r.iteration, r.fn_index, r.seconds.hex(), r.learning)
         for r in res.records],
        res.fn_names,
    )


NOISY = dict(nprocs=8, placement="cyclic", nbytes=256 * 1024,
             compute_total=2.0, iterations=30, noise_sigma=0.02,
             noise_outlier_prob=0.05, seed=11)


def test_plain_run_is_bit_reproducible():
    cfg = OverlapConfig(**NOISY)
    assert fingerprint(run_overlap(cfg, evals_per_function=3)) == \
        fingerprint(run_overlap(cfg, evals_per_function=3))


def test_faulty_run_is_bit_reproducible():
    plan = FaultPlan(
        drops=(DropRule(0.3, 0.0, 0.05),),
        degradations=(LinkDegradation(0.05, 0.1, 2.0, 2.0),),
        stragglers=((3, 1.5),),
        seed=5,
    )
    cfg = OverlapConfig(faults=plan, **NOISY)
    assert fingerprint(run_overlap(cfg, evals_per_function=3)) == \
        fingerprint(run_overlap(cfg, evals_per_function=3))


def test_resilient_faulty_run_is_bit_reproducible():
    plan = FaultPlan(
        drops=(DropRule(1.0, 0.011, 0.02),),
        degradations=(LinkDegradation(0.1, 0.2, 4.0, 4.0),),
        seed=5,
    )
    cfg = OverlapConfig(faults=plan, **NOISY)

    def run():
        res = run_overlap(
            cfg, evals_per_function=3,
            recovery=Resilience(quarantine_factor=3.0, drift_window=4,
                                deadline=5.0),
        )
        return fingerprint(res) + (res.restarts, res.retunes,
                                   tuple(res.quarantine_log))

    assert run() == run()


def test_different_fault_seed_changes_the_drop_pattern():
    base = dict(NOISY)
    cfg_a = OverlapConfig(
        faults=FaultPlan(drops=(DropRule(0.5, 0.0, 0.05),), seed=1), **base)
    cfg_b = OverlapConfig(
        faults=FaultPlan(drops=(DropRule(0.5, 0.0, 0.05),), seed=2), **base)
    a = run_overlap(cfg_a, evals_per_function=3)
    b = run_overlap(cfg_b, evals_per_function=3)
    assert fingerprint(a) != fingerprint(b)


def test_fault_seed_does_not_shift_noise_stream():
    """Enabling a plan whose rules never fire must not change anything:
    the injector draws from its own RNG, not the noise streams."""
    base = dict(NOISY)
    never = FaultPlan(drops=(DropRule(0.9, t_start=1e6, t_end=1e7),), seed=99)
    plain = run_overlap(OverlapConfig(**base), evals_per_function=3)
    gated = run_overlap(OverlapConfig(faults=never, **base),
                        evals_per_function=3)
    assert fingerprint(plain) == fingerprint(gated)
