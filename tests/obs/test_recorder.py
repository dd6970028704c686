"""Recorder lifecycle: install / uninstall / recording scope."""

from repro.obs import (
    NULL_RECORDER,
    TraceRecorder,
    get_recorder,
    install,
    recording,
    uninstall,
)


def test_default_is_null_recorder():
    uninstall()
    rec = get_recorder()
    assert rec is NULL_RECORDER
    assert rec.enabled is False
    # null calls are harmless no-ops
    assert rec.begin_world(4) == -1
    rec.instant("compute", "compute", 0, 0.0)
    rec.complete("compute", "compute", 0, 0.0, 1.0)


def test_install_returns_previous_and_uninstall_resets():
    uninstall()
    rec = TraceRecorder()
    prev = install(rec)
    try:
        assert prev is NULL_RECORDER
        assert get_recorder() is rec
        nested = TraceRecorder()
        prev2 = install(nested)
        assert prev2 is rec
        install(prev2)
        assert get_recorder() is rec
    finally:
        uninstall()
    assert get_recorder() is NULL_RECORDER


def test_recording_context_restores_previous():
    uninstall()
    with recording() as rec:
        assert get_recorder() is rec
        assert rec.enabled
        with recording() as inner:
            assert get_recorder() is inner
        assert get_recorder() is rec
    assert get_recorder() is NULL_RECORDER


def test_events_are_tagged_with_the_current_world():
    rec = TraceRecorder()
    assert rec.begin_world(4, "whale") == 0
    rec.instant("engine", "run", -1, 1.0)
    assert rec.begin_world(4, "whale") == 1
    rec.complete("compute", "compute", 2, 0.5, 0.25, {"k": 1})
    worlds = [e[1] for e in rec.events]
    assert worlds == [0, 1]
    assert rec.worlds == [{"nprocs": 4, "label": "whale"}] * 2


def test_export_events_is_json_able_lists():
    rec = TraceRecorder()
    rec.begin_world(2)
    rec.instant("engine", "run", -1, 0.0, {"a": 1})
    out = rec.export_events()
    assert out == [["i", 0, -1, "engine", "run", 0.0, 0.0, {"a": 1}]]
    # a copy, not aliases into the live event list
    out[0][0] = "X"
    assert rec.events[0][0] == "i"


def test_clear_resets_everything():
    rec = TraceRecorder()
    rec.begin_world(2)
    rec.instant("engine", "run", -1, 0.0)
    rec.metrics.counter("c").inc()
    rec.audit.retune(3)
    rec.clear()
    assert rec.events == []
    assert rec.worlds == []
    assert len(rec.metrics.snapshot()) == 0
    assert len(rec.audit) == 0
    # the rebound append still feeds the (new) event list
    rec.begin_world(2)
    rec.instant("engine", "run", -1, 0.0)
    assert len(rec.events) == 1 and rec.events[0][1] == 0


def test_events_round_trip_through_packed_rows():
    from repro.obs.recorder import declare

    kind = declare("i", "communication", "msg.post",
                   "dst:i tag:q nbytes:q eager:?")
    span = declare("X", "tuning", "iteration", "fn:O it:i _hidden:d")
    rec = TraceRecorder()
    rec.emit(kind, 0, 0.5, 1, 7, 2048, True)   # before any world
    rec.begin_world(2)
    rec.emit_obj("fn_a", span, 1, 1.0, 0.25, 3, 9.5)
    rec.complete("compute", "compute", 1, 2.0, 0.5)
    expected = [
        ("i", -1, 0, "communication", "msg.post", 0.5, 0.0,
         {"dst": 1, "tag": 7, "nbytes": 2048, "eager": True}),
        ("X", 0, 1, "tuning", "iteration", 1.0, 0.25, {"fn": "fn_a", "it": 3}),
        ("X", 0, 1, "compute", "compute", 2.0, 0.5, None),
    ]
    assert rec.events == expected
    assert list(rec.events) == expected
    assert [rec.events[i] for i in (2, 0, -2)] == [expected[2], expected[0],
                                                   expected[1]]
    assert rec.events[1:] == expected[1:]
    assert rec.events[0][7]["eager"] is True        # bools stay bools
    assert rec.export_events() == [list(e) for e in expected]


def test_metrics_fold_pending_rows_on_read():
    from repro.obs.recorder import declare

    kind = declare("i", "test", "fold", "v:d", counter="t.rows",
                   histogram=("t.v", "v", (1.0, 2.0)))
    rec = TraceRecorder()
    rec.prepare(kind)
    assert rec.metrics.snapshot()["t.rows"]["value"] == 0
    values = [0.1, 1.5, 0.2, 3.0]
    for v in values[:2]:
        rec.emit(kind, 0, 0.0, v)
    assert rec.metrics.counter("t.rows").value == 2
    for v in values[2:]:
        rec.emit(kind, 0, 0.0, v)
    hist = rec.metrics.snapshot()["t.v"]
    assert hist["counts"] == [2, 1, 1] and hist["total"] == 4
    total = 0.0
    for v in values:
        total += v
    assert hist["sum"] == total and rec.metrics.counter("t.rows").value == 4


def test_recording_costs_at_most_100_bytes_per_event():
    """Packed rows: a traced faults run holds <= 100 bytes per event
    (one tuple plus an args dict per event cost about 317)."""
    import gc
    import tracemalloc

    from repro.adcl import Resilience
    from repro.bench import OverlapConfig, run_overlap
    from repro.sim import FaultPlan

    cfg = OverlapConfig(
        platform="whale", nprocs=16, operation="alltoall", nbytes=16 * 1024,
        iterations=12, nprogress=3, noise_sigma=0.02, seed=1,
        faults=FaultPlan.parse("drop=0.01,straggler=3:1.5,seed=1"))

    def run():
        run_overlap(cfg, selector="brute_force", evals_per_function=2,
                    recovery=Resilience())

    run()  # warm the schedule cache and imports outside the measurement
    tracemalloc.start()
    try:
        with recording() as rec:
            run()
        rec.metrics  # fold, as any reader would
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        n = len(rec.events)
        del rec
        gc.collect()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert n > 5000
    assert held / n <= 100, held / n
