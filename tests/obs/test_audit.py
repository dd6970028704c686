"""Audit log: live hooks, decision evidence, journal replayability."""

import pytest

from repro.adcl import (
    ADCLRequest,
    ADCLTimer,
    CollSpec,
    Resilience,
    ialltoall_function_set,
)
from repro.obs import recording
from repro.sim import Compute, Progress, SimWorld, get_platform
from repro.units import KiB

#: candidate the harness quarantines during learning (``pairwise``: not
#: the safe fallback, and not yet measured when it is quarantined)
QUARANTINED = 2


def run_tuning(iterations, evals=2, nprocs=8, resilience=None):
    world = SimWorld(get_platform("whale"), nprocs)
    fnset = ialltoall_function_set()
    spec = CollSpec("alltoall", world.comm_world, 4 * KiB)
    areq = ADCLRequest(fnset, spec, selector="brute_force",
                       evals_per_function=evals, resilience=resilience)
    timer = ADCLTimer(areq)

    def factory(ctx):
        for i in range(iterations):
            if resilience is not None and i == 1 and ctx.rank == 0:
                areq.quarantine(QUARANTINED, "harness: measurement aborted")
            timer.start(ctx)
            yield from areq.start(ctx)
            for _ in range(4):
                yield Compute(0.0005)
                yield Progress([areq.handle(ctx)])
            yield from areq.wait(ctx)
            timer.stop(ctx)

    world.launch(factory)
    world.run()
    return areq, fnset


def test_live_run_records_selection_measurement_decision():
    with recording() as rec:
        areq, fnset = run_tuning(iterations=3 * len(ialltoall_function_set()))
    assert areq.decided
    kinds = [e["kind"] for e in rec.audit.entries]
    assert "selection" in kinds and "measurement" in kinds
    assert kinds.count("decision") == 1
    dec = rec.audit.final_decision()
    assert dec["name"] == areq.winner_name
    assert dec["it"] == areq.decided_at
    # evidence covers every measured candidate, flags exactly one winner
    evidence = dec["evidence"]
    assert sum(1 for ev in evidence if ev.get("winner")) == 1
    for ev in evidence:
        if "kept" in ev:
            assert ev["kept"] + ev["discarded"] == ev["n"]
            assert ev["estimate"] > 0


def test_measurements_match_timer_feed():
    with recording() as rec:
        areq, _ = run_tuning(iterations=5)
    meas = [e for e in rec.audit.entries if e["kind"] == "measurement"]
    assert len(meas) == 5
    assert [m["it"] for m in meas] == list(range(5))


def test_no_audit_when_recorder_disabled():
    areq, _ = run_tuning(iterations=4)
    assert areq.audit is None  # request never grabbed an audit log


def test_narrative_mentions_winner_and_evidence():
    with recording() as rec:
        areq, _ = run_tuning(iterations=3 * len(ialltoall_function_set()))
    text = rec.audit.narrative()
    assert f"decision at iteration {areq.decided_at}" in text
    assert repr(areq.winner_name) in text
    assert "<== winner" in text
    assert "measurements recorded" in text


@pytest.mark.parametrize("resilience", [None, Resilience()],
                         ids=["plain", "harness-quarantine"])
def test_audit_is_replayable_from_the_journal(resilience):
    """The journal alone must reconstruct the same audit trail.

    Under ``Resilience`` the harness quarantines a candidate during
    learning, so replay also runs the ``quar`` events and ``substitute``.
    """
    with recording() as rec:
        areq, fnset = run_tuning(iterations=3 * len(ialltoall_function_set()),
                                 resilience=resilience)
    live_entries = rec.audit.to_json()
    journal = areq.journal_events()
    if resilience is not None:
        assert ["quar", QUARANTINED, "harness: measurement aborted",
                True] in journal
        selected = {ev[2] for ev in journal if ev[0] == "iter"}
        assert QUARANTINED not in selected  # its slots were substituted

    world = SimWorld(get_platform("whale"), 8)
    spec = CollSpec("alltoall", world.comm_world, 4 * KiB)
    with recording() as rec2:
        fresh = ADCLRequest(fnset, spec, selector="brute_force",
                            evals_per_function=2, resilience=resilience)
        fresh.replay(journal)
    assert rec2.audit.to_json() == live_entries
    assert fresh.quarantine_log == areq.quarantine_log
    assert fresh.winner_name == areq.winner_name
