"""Ablation — resilient tuning under injected faults.

The paper's tuner assumes a healthy machine: every candidate can be
measured, and a decision stays valid forever.  This ablation scripts a
hostile run — a total drop window while one candidate is being measured,
plus a degraded-network window covering the whole learning phase — and
compares

* the **resilient** tuner (reliable transport with retransmission,
  candidate quarantine, drift-triggered re-tuning, watchdog), which must
  survive and still land on the healthy-best implementation, against
* the **baseline** tuner on a naive transport, which provably deadlocks
  on the very same fault plan.

The scenario is deterministic (seeded DES), so the numbers below are
exact regression anchors, not statistical expectations.
"""

import pytest

from repro.adcl.resilience import Resilience
from repro.bench import OverlapConfig, format_table, run_overlap
from repro.errors import DeadlockError, WatchdogTimeout
from repro.sim.faults import DropRule, FaultPlan, LinkDegradation
from repro.units import KiB

#: communication-heavy scenario: tuning decisions actually depend on the
#: network, so degrading it must be visible in the measurements
SCENARIO = dict(
    platform="whale", nprocs=8, placement="cyclic",
    nbytes=256 * KiB, compute_total=2.0, paper_iterations=1000,
    iterations=60, nprogress=5,
)

#: drop every inter-node message while 'dissemination' is under
#: evaluation (virtual time [0.06, 0.13) under the degraded network),
#: and run the whole learning phase behind an 8x slower fabric
FAULTS = FaultPlan(
    drops=(DropRule(1.0, 0.06, 0.13),),
    degradations=(
        LinkDegradation(0.0, 0.25, latency_mult=8.0, bandwidth_mult=8.0),
    ),
)

POLICY = Resilience(quarantine_factor=3.0, drift_window=4, deadline=5.0)


def healthy_baseline():
    """Per-implementation mean iteration time on the pristine network."""
    cfg = OverlapConfig(**SCENARIO)
    from repro.bench import function_set_for

    fnset = function_set_for(cfg.operation)
    return {
        fn.name: run_overlap(cfg, selector=i).mean_iteration
        for i, fn in enumerate(fnset)
    }


def test_resilient_tuning_survives_faults(once, figure_output):
    def run():
        healthy = healthy_baseline()
        res = run_overlap(
            OverlapConfig(faults=FAULTS, **SCENARIO),
            selector="brute_force", evals_per_function=3,
            recovery=POLICY,
        )
        naive_outcome = "completed (!)"
        try:
            run_overlap(
                OverlapConfig(faults=FAULTS, reliable=False, **SCENARIO),
                selector="brute_force", evals_per_function=3,
            )
        except (DeadlockError, WatchdogTimeout) as exc:
            naive_outcome = type(exc).__name__
        rows = [
            [name, f"{t * 1e3:.3f} ms",
             "<- healthy best" if t == min(healthy.values()) else ""]
            for name, t in healthy.items()
        ]
        rows.append(["", "", ""])
        rows.append(["resilient winner", res.winner,
                     f"{healthy[res.winner] * 1e3:.3f} ms healthy"])
        rows.append(["quarantines", str(len(res.quarantine_log)),
                     res.quarantine_log[0][1].split(" > ")[0]])
        rows.append(["drift re-tunes", str(res.retunes), ""])
        rows.append(["restarts", str(res.restarts), ""])
        rows.append(["messages dropped", str(res.messages_dropped),
                     f"{res.retransmits} retransmitted"])
        rows.append(["naive transport", naive_outcome, "same fault plan"])
        table = format_table(
            ["quantity", "value", "note"], rows,
            title="Ablation: tuning under message loss + link degradation",
        )
        return healthy, res, naive_outcome, table

    healthy, res, naive_outcome, table = once(run)
    figure_output("abl_faults", table)

    # the resilient tuner never raised and finished every iteration
    assert len(res.records) == SCENARIO["iterations"]

    # the drop window poisoned at least one candidate's measurement and
    # the blowout quarantine caught it
    assert len(res.quarantine_log) >= 1
    assert res.quarantine_log[0][0] == 1  # dissemination
    assert res.messages_dropped > 0 and res.retransmits > 0

    # the degradation window covered the decision; when it lifted, the
    # drift detector re-opened tuning exactly once
    assert res.retunes == 1

    # the final pick is within 5% of the best healthy implementation
    best = min(healthy.values())
    assert healthy[res.winner] <= 1.05 * best

    # the baseline on a naive transport provably deadlocks on this plan
    assert naive_outcome in ("DeadlockError", "WatchdogTimeout")


def test_fault_free_plan_is_invisible(once):
    """Zero-cost guarantee: an empty plan + default transport leaves the
    benchmark output bit-identical to a fault-free run."""

    def run():
        cfg_plain = OverlapConfig(**SCENARIO)
        cfg_empty = OverlapConfig(faults=FaultPlan(), **SCENARIO)
        a = run_overlap(cfg_plain, evals_per_function=3)
        b = run_overlap(cfg_empty, evals_per_function=3)
        return a, b

    a, b = once(run)
    assert a.winner == b.winner
    assert a.makespan == b.makespan
    assert [r.seconds for r in a.records] == [r.seconds for r in b.records]


def test_resilient_runner_is_invisible_without_faults(once):
    """The resilient harness itself must not perturb a healthy run."""

    def run():
        cfg = OverlapConfig(**SCENARIO)
        plain = run_overlap(cfg, evals_per_function=3)
        res = run_overlap(cfg, evals_per_function=3, recovery=POLICY)
        return plain, res

    plain, res = once(run)
    assert res.winner == plain.winner
    assert res.restarts == 0 and res.retunes == 0
    assert not res.quarantine_log
    assert [r.seconds for r in res.records] == \
        [r.seconds for r in plain.records]
