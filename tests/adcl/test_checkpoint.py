"""Checkpointed tuning state: journal, snapshot/restore, atomic persistence."""

import json
import os

import pytest

from repro.adcl import (
    ADCLRequest,
    ADCLTimer,
    CheckpointStore,
    CollSpec,
    ialltoall_function_set,
    restore,
    snapshot,
)
from repro.adcl.history import atomic_write_json
from repro.errors import CheckpointError
from repro.sim import Compute, Progress, SimWorld, get_platform
from repro.units import KiB


def tuning_program(areq, timer, iterations, nprogress=4, compute_s=0.002):
    def factory(ctx):
        chunk = compute_s / nprogress
        for _ in range(iterations):
            timer.start(ctx)
            yield from areq.start(ctx)
            for _ in range(nprogress):
                yield Compute(chunk)
                yield Progress([areq.handle(ctx)])
            yield from areq.wait(ctx)
            timer.stop(ctx)

    return factory


def run_tuning(iterations, areq_restore=None, selector="brute_force",
               evals=3, nprocs=8, msg=4 * KiB):
    world = SimWorld(get_platform("whale"), nprocs)
    fnset = ialltoall_function_set()
    spec = CollSpec("alltoall", world.comm_world, msg)
    areq = ADCLRequest(fnset, spec, selector=selector,
                       evals_per_function=evals)
    if areq_restore is not None:
        restore(areq, areq_restore)
    timer = ADCLTimer(areq)
    world.launch(tuning_program(areq, timer, iterations))
    world.run()
    return areq, timer


# ---------------------------------------------------------------------------
# journal / epoch
# ---------------------------------------------------------------------------


def test_epoch_advances_with_tuning_events():
    areq, _ = run_tuning(iterations=6)
    assert areq.epoch >= 12  # at least one iter + one feed per iteration
    events = areq.journal_events()
    assert len(events) == areq.epoch
    tags = {ev[0] for ev in events}
    assert tags <= {"iter", "feed", "quar"}
    # the copy is detached from the live journal
    events[0][0] = "tampered"
    assert areq.journal_events()[0][0] != "tampered"


@pytest.mark.parametrize("selector", ["brute_force", "heuristic", "factorial"])
def test_roundtrip_reconstructs_selection_state(selector):
    # uninterrupted reference run
    ref, _ = run_tuning(iterations=30, selector=selector)
    assert ref.decided

    # interrupted run: snapshot mid-learning, restore, finish
    part1, t1 = run_tuning(iterations=5, selector=selector)
    snap = snapshot(part1)
    part2, t2 = run_tuning(iterations=25, selector=selector,
                           areq_restore=snap)

    # bit-identical selection behavior: same per-iteration choices,
    # same decision, same winner
    ref_fns = [ev[2] for ev in ref.journal_events() if ev[0] == "iter"]
    resumed_fns = [ev[2] for ev in part2.journal_events() if ev[0] == "iter"]
    assert resumed_fns[: len(ref_fns)] == ref_fns[: len(resumed_fns)]
    assert part2.decided
    assert part2.winner_name == ref.winner_name
    assert part2.decided_at == ref.decided_at


def test_restore_preserves_measurements_and_quarantines():
    part1, _ = run_tuning(iterations=5)
    part1.quarantine(1, "poisoned in test", sticky=True)
    snap = snapshot(part1)

    fresh = ADCLRequest(
        ialltoall_function_set(),
        CollSpec("alltoall", SimWorld(get_platform("whale"), 8).comm_world,
                 4 * KiB),
        selector="brute_force", evals_per_function=3,
    )
    epoch = restore(fresh, snap)
    assert epoch == part1.epoch
    assert fresh.journal_events() == part1.journal_events()
    assert fresh.quarantine_log == part1.quarantine_log
    assert fresh.selector.decided == part1.selector.decided


def test_replay_requires_fresh_request():
    areq, _ = run_tuning(iterations=3)
    snap = snapshot(areq)
    with pytest.raises(CheckpointError):
        restore(areq, snap)  # not epoch-0 anymore


def test_restore_validates_compatibility():
    areq, _ = run_tuning(iterations=3)
    snap = snapshot(areq)

    def fresh():
        world = SimWorld(get_platform("whale"), 8)
        return ADCLRequest(
            ialltoall_function_set(),
            CollSpec("alltoall", world.comm_world, 4 * KiB),
            selector="brute_force", evals_per_function=3,
        )

    bad = dict(snap, fnset="something_else")
    with pytest.raises(CheckpointError):
        restore(fresh(), bad)
    bad = dict(snap, functions=["a", "b"])
    with pytest.raises(CheckpointError):
        restore(fresh(), bad)
    bad = dict(snap, format=999)
    with pytest.raises(CheckpointError):
        restore(fresh(), bad)
    bad = dict(snap, journal=[["bogus-event"]])
    with pytest.raises(CheckpointError):
        restore(fresh(), bad)
    with pytest.raises(CheckpointError):
        restore(fresh(), "not a dict")


# ---------------------------------------------------------------------------
# store persistence + crash-safe writes
# ---------------------------------------------------------------------------


def test_checkpoint_store_roundtrip(tmp_path):
    path = str(tmp_path / "ckpt.json")
    areq, _ = run_tuning(iterations=4)
    snap = snapshot(areq)
    store = CheckpointStore(path)
    store.save("k", snap)
    assert store.epoch("k") == areq.epoch
    assert "k" in store and len(store) == 1

    again = CheckpointStore(path)  # a fresh process re-reads the file
    assert again.load("k") == snap
    assert again.epoch("missing") == 0


def test_checkpoint_store_rejects_corrupt_file(tmp_path):
    path = tmp_path / "ckpt.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(CheckpointError):
        CheckpointStore(str(path))


def test_two_checkpoint_stores_sharing_a_file_keep_both(tmp_path):
    path = str(tmp_path / "ckpt.json")
    a, b = CheckpointStore(path), CheckpointStore(path)
    a.save("problem-a", {"epoch": 3})
    b.save("problem-b", {"epoch": 5})  # b never saw a's write
    fresh = CheckpointStore(path)
    assert (fresh.epoch("problem-a"), fresh.epoch("problem-b")) == (3, 5)


def test_atomic_write_survives_failed_writer(tmp_path):
    path = str(tmp_path / "store.json")
    atomic_write_json(path, {"good": 1})
    # a writer that dies mid-serialization must not touch the target
    with pytest.raises(TypeError):
        atomic_write_json(path, {"bad": object()})
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh) == {"good": 1}
    # and must not leave temp droppings behind
    assert os.listdir(tmp_path) == ["store.json"]


def test_atomic_write_ignores_stale_tmp_from_dead_writer(tmp_path):
    path = str(tmp_path / "store.json")
    # a previous writer crashed after creating its temp file
    stale = f"{path}.99999.tmp"
    with open(stale, "w", encoding="utf-8") as fh:
        fh.write("{torn")
    atomic_write_json(path, {"fresh": True})
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh) == {"fresh": True}
