"""Tests for the resilient-tuning layer: quarantine, drift, restarts."""

import pytest

from repro.adcl.fnsets import ialltoall_function_set
from repro.adcl.function import CollFunction, FunctionSet
from repro.adcl.history import HistoryStore
from repro.adcl.resilience import Resilience
from repro.adcl.selection.base import FixedSelector
from repro.adcl.selection.brute_force import BruteForceSelector
from repro.adcl.selection.heuristic import HeuristicSelector
from repro.bench.overlap import OverlapConfig, run_overlap
from repro.errors import AdclError, SelectionError
from repro.sim.faults import DropRule, FaultPlan, LinkDegradation
from repro.sim.process import Waitable


# ---------------------------------------------------------------------------
# policy object
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kw", [
    dict(quarantine_factor=1.0),
    dict(quarantine_factor=0.5),
    dict(drift_window=-1),
    dict(drift_threshold=1.0),
    dict(max_restarts=-1),
    dict(deadline=0.0),
])
def test_resilience_validation(kw):
    with pytest.raises(AdclError):
        Resilience(**kw)


def test_resilience_defaults_enable_everything_but_watchdog():
    r = Resilience()
    assert r.quarantine_factor is not None
    assert r.drift_window > 0
    assert r.deadline is None


# ---------------------------------------------------------------------------
# selector quarantine machinery
# ---------------------------------------------------------------------------


def make_selector(**kw):
    fnset = ialltoall_function_set()
    sel = BruteForceSelector(fnset, evals_per_function=2)
    sel.safe_index = fnset.safe_fallback_index()
    for k, v in kw.items():
        setattr(sel, k, v)
    return fnset, sel


def test_quarantine_excludes_candidate_from_decision():
    fnset, sel = make_selector()
    assert sel.quarantine(1, "deadlocked", sticky=True)
    for it in range(len(fnset) * 2):
        fn = sel.function_for_iteration(it)
        fn = sel.substitute(fn)
        assert fn != 1
        sel.feed(it, fn, 1.0 + fn)
    sel.function_for_iteration(len(fnset) * 2)  # triggers the decision
    assert sel.decided
    assert sel.winner != 1


def test_safe_fallback_cannot_be_quarantined():
    _, sel = make_selector()
    assert sel.quarantine(sel.safe_index, "whatever") is False
    assert sel.safe_index not in sel.quarantined


def test_quarantine_is_idempotent_but_logged_once():
    _, sel = make_selector()
    assert sel.quarantine(2, "first")
    assert sel.quarantine(2, "second") is False
    assert sel.quarantine_log == [(2, "first")]


def test_quarantine_rejects_out_of_range_index():
    _, sel = make_selector()
    with pytest.raises(SelectionError):
        sel.quarantine(99, "nope")


def test_substitute_prefers_safe_then_any_survivor():
    _, sel = make_selector()
    sel.quarantine(1, "bad")
    assert sel.substitute(1) == sel.safe_index
    assert sel.substitute(2) == 2  # healthy candidates pass through
    sel.safe_index = None
    assert sel.substitute(1) in (0, 2)


def test_blowout_quarantine_in_feed():
    _, sel = make_selector(quarantine_factor=4.0)
    sel.feed(0, 0, 1.0)
    sel.feed(1, 1, 10.0)  # 10x the running best -> quarantined
    assert 1 in sel.quarantined
    assert sel.log.count(1) == 0  # the pathological sample is discarded
    reason, sticky = sel.quarantined[1]
    assert "running best" in reason and not sticky


def test_blowout_never_quarantines_safe_fallback():
    _, sel = make_selector(quarantine_factor=2.0)
    sel.feed(0, 1, 1.0)
    sel.feed(1, sel.safe_index, 50.0)  # terrible, but protected
    assert sel.safe_index not in sel.quarantined
    assert sel.log.count(sel.safe_index) == 1


def test_reset_learning_lifts_only_non_sticky_quarantines():
    _, sel = make_selector()
    sel.quarantine(1, "blowout", sticky=False)
    sel.quarantine(2, "deadlock", sticky=True)
    sel.feed(0, 0, 1.0)
    sel.function_for_iteration(len(sel.fnset) * 2)
    assert sel.decided
    sel.reset_learning()
    assert not sel.decided
    assert sel.log.count(0) == 0
    assert 1 not in sel.quarantined
    assert 2 in sel.quarantined
    # the audit log keeps everything
    assert [i for i, _ in sel.quarantine_log] == [1, 2]


def test_all_candidates_quarantined_decides_safe_fallback():
    fnset, sel = make_selector()
    for i in range(len(fnset)):
        sel.quarantine(i, "aborted", sticky=True)
    for it in range(len(fnset) * 2):
        sel.feed(it, sel.substitute(sel.function_for_iteration(it)), 1.0)
    sel.function_for_iteration(len(fnset) * 2)
    assert sel.decided
    assert sel.winner == sel.safe_index


def test_heuristic_reset_learning_rebuilds_plan():
    fnset = ialltoall_function_set()
    sel = HeuristicSelector(fnset, evals_per_function=2)
    plan_before = list(sel._plan)
    for it in range(len(plan_before)):
        sel.feed(it, sel.function_for_iteration(it), 1.0 + it * 0.01)
    sel.function_for_iteration(len(plan_before))
    assert sel.decided
    sel.reset_learning()
    assert not sel.decided
    assert sel._plan == plan_before  # fresh schedule from round one
    assert sel._decided_values == {}


def test_fixed_selector_reset_learning_keeps_pin():
    fnset = ialltoall_function_set()
    sel = FixedSelector(fnset, 2)
    sel.reset_learning()
    assert sel.decided and sel.winner == 2


def test_safe_fallback_index_prefers_blocking_then_linear():
    fnset = ialltoall_function_set()
    assert fnset[fnset.safe_fallback_index()].name == "linear"
    from repro.adcl.fnsets import ialltoall_extended_function_set

    ext = ialltoall_extended_function_set()
    assert ext[ext.safe_fallback_index()].blocking


# ---------------------------------------------------------------------------
# end-to-end: restart loop
# ---------------------------------------------------------------------------


class _StuckHandle(Waitable):
    """A handle that never completes: simulates a deadlocking algorithm."""

    def __init__(self):
        super().__init__()
        self.done = False


def toy_fnset_with_stuck_candidate():
    base = ialltoall_function_set()
    return FunctionSet("toy", [
        base[0],  # linear (safe fallback)
        CollFunction(name="stuck", maker=lambda ctx, spec, bufs: _StuckHandle()),
        base[2],  # pairwise
    ])


COMM_HEAVY = dict(nprocs=8, placement="cyclic", nbytes=256 * 1024,
                  compute_total=2.0)


def test_restart_quarantines_deadlocked_candidate(monkeypatch):
    import repro.bench.overlap as ov

    monkeypatch.setattr(ov, "function_set_for",
                        lambda op: toy_fnset_with_stuck_candidate())
    cfg = OverlapConfig(iterations=30, **COMM_HEAVY)
    res = run_overlap(cfg, evals_per_function=3,
                      recovery=Resilience(deadline=1.0))
    assert res.restarts == 1
    assert res.aborts == [("DeadlockError", [1])]
    assert [i for i, _ in res.quarantine_log] == [1]
    assert len(res.records) == cfg.iterations
    assert "stuck" not in res.fn_names
    assert res.winner in ("linear", "pairwise")
    # the sticky quarantine reason names the abort
    assert "DeadlockError" in res.quarantine_log[0][1]


def test_restart_budget_exhaustion_reraises(monkeypatch):
    import repro.bench.overlap as ov

    base = ialltoall_function_set()
    # every candidate except the safe fallback deadlocks, and so does
    # the fallback's own stand-in: nothing can ever finish
    broken = FunctionSet("allbad", [
        CollFunction(name="stuck_a", maker=lambda c, s, b: _StuckHandle()),
        CollFunction(name="stuck_b", maker=lambda c, s, b: _StuckHandle()),
    ])
    monkeypatch.setattr(ov, "function_set_for", lambda op: broken)
    cfg = OverlapConfig(iterations=10, **COMM_HEAVY)
    from repro.errors import DeadlockError

    with pytest.raises(DeadlockError):
        run_overlap(
            cfg, evals_per_function=2,
            recovery=Resilience(deadline=1.0, max_restarts=2),
        )


# ---------------------------------------------------------------------------
# end-to-end: blowout quarantine + drift re-tune
# ---------------------------------------------------------------------------


def test_blowout_quarantine_under_drop_window():
    # drop every inter-node message while 'dissemination' is being
    # measured; the retransmission delays blow its sample past 3x the
    # running best and it is quarantined without aborting the run
    plan = FaultPlan(drops=(DropRule(1.0, 0.011, 0.02),))
    cfg = OverlapConfig(iterations=40, faults=plan, **COMM_HEAVY)
    res = run_overlap(
        cfg, evals_per_function=3,
        recovery=Resilience(quarantine_factor=3.0, deadline=5.0),
    )
    assert res.restarts == 0
    assert res.retransmits > 0
    assert [i for i, _ in res.quarantine_log] == [1]
    assert res.winner == "pairwise"  # the healthy best


def test_drift_retunes_exactly_once_after_degradation_ends():
    plan = FaultPlan(degradations=(
        LinkDegradation(0.0, 0.25, latency_mult=8.0, bandwidth_mult=8.0),
    ))
    cfg = OverlapConfig(iterations=60, faults=plan, **COMM_HEAVY)
    res = run_overlap(
        cfg, evals_per_function=3,
        recovery=Resilience(drift_window=4, deadline=5.0),
    )
    assert res.retunes == 1
    assert res.restarts == 0
    assert res.winner == "pairwise"
    # learning happened twice: under degradation and again after it
    learn_iters = [r.iteration for r in res.records if r.learning]
    assert len(learn_iters) == 18  # 2 epochs x 3 functions x 3 evals


def test_drift_reopen_invalidates_history_record():
    plan = FaultPlan(degradations=(
        LinkDegradation(0.0, 0.25, latency_mult=8.0, bandwidth_mult=8.0),
    ))
    hist = HistoryStore()
    cfg = OverlapConfig(iterations=60, faults=plan, **COMM_HEAVY)
    res = run_overlap(
        cfg, evals_per_function=3, history=hist,
        recovery=Resilience(drift_window=4, deadline=5.0),
    )
    assert res.retunes == 1
    # the store holds exactly the post-drift decision, not the stale one
    assert len(hist) == 1
    key = next(iter(hist._records))
    assert hist.lookup(key) == res.winner


def test_resilient_run_without_faults_matches_plain_run():
    cfg = OverlapConfig(iterations=30, **COMM_HEAVY)
    plain = run_overlap(cfg, evals_per_function=3)
    res = run_overlap(cfg, evals_per_function=3, recovery=Resilience())
    assert res.winner == plain.winner
    assert res.restarts == 0 and res.retunes == 0
    assert not res.quarantine_log
    assert [r.seconds for r in res.records] == \
        [r.seconds for r in plain.records]
