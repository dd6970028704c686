"""Unit tests for the historic-learning store."""

import dataclasses
import json

import pytest

from repro.adcl import HistoryStore
from repro.bench.overlap import OverlapConfig, function_set_for, run_overlap
from repro.errors import HistoryError


def test_memory_store_roundtrip():
    store = HistoryStore()
    assert store.lookup("k") is None
    store.record("k", "pairwise", decided_at=15)
    assert store.lookup("k") == "pairwise"
    assert "k" in store
    assert len(store) == 1


def test_file_store_persists(tmp_path):
    path = tmp_path / "history.json"
    store = HistoryStore(str(path))
    store.record("ialltoall@whale:P32:B1024:R0", "dissemination", 9)
    again = HistoryStore(str(path))
    assert again.lookup("ialltoall@whale:P32:B1024:R0") == "dissemination"


def test_forget(tmp_path):
    path = tmp_path / "history.json"
    store = HistoryStore(str(path))
    store.record("a", "x", 0)
    store.forget("a")
    store.forget("a")  # idempotent
    assert HistoryStore(str(path)).lookup("a") is None


def test_corrupt_file_raises(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(HistoryError):
        HistoryStore(str(path))


def test_non_object_file_raises(tmp_path):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(HistoryError):
        HistoryStore(str(path))


# ---------------------------------------------------------------------------
# non-strict mode: corrupt-store recovery
# ---------------------------------------------------------------------------


def test_nonstrict_recovers_from_truncated_json(tmp_path):
    path = tmp_path / "trunc.json"
    path.write_text('{"a": {"winner": "pair')  # crashed mid-write
    store = HistoryStore(str(path), strict=False)
    assert len(store) == 0
    assert store.recovered_from == str(path) + ".corrupt"
    # the corrupt payload was preserved for post-mortem ...
    assert (tmp_path / "trunc.json.corrupt").read_text().startswith('{"a"')
    # ... and the store is fully usable again
    store.record("a", "pairwise", 3)
    assert HistoryStore(str(path)).lookup("a") == "pairwise"


def test_nonstrict_recovers_from_non_object_payload(tmp_path):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([1, 2, 3]))
    store = HistoryStore(str(path), strict=False)
    assert len(store) == 0
    assert store.recovered_from == str(path) + ".corrupt"


def test_nonstrict_leaves_healthy_store_alone(tmp_path):
    path = tmp_path / "ok.json"
    HistoryStore(str(path)).record("k", "linear", 0)
    store = HistoryStore(str(path), strict=False)
    assert store.recovered_from is None
    assert store.lookup("k") == "linear"


# ---------------------------------------------------------------------------
# shared-file concurrency: locked read-merge-write
# ---------------------------------------------------------------------------


def test_two_stores_sharing_a_file_lose_no_records(tmp_path):
    """Regression: two tuners writing disjoint keys through one history
    file used to last-writer-wins each other's records away.  The
    locked read-merge-write keeps both."""
    path = str(tmp_path / "shared.json")
    a = HistoryStore(path)
    b = HistoryStore(path)
    a.record("scenario-a", "linear", 3)
    b.record("scenario-b", "pairwise", 5)  # b never saw a's write
    a.record("scenario-a2", "dissemination", 7)
    fresh = HistoryStore(path)
    assert fresh.lookup("scenario-a") == "linear"
    assert fresh.lookup("scenario-b") == "pairwise"
    assert fresh.lookup("scenario-a2") == "dissemination"
    assert len(fresh) == 3


def test_forget_is_not_resurrected_by_own_merge(tmp_path):
    """The disk-merge on save must not undo this store's own forget —
    the forgotten key is gone from disk and stays out of memory on
    subsequent saves."""
    path = str(tmp_path / "shared.json")
    a = HistoryStore(path)
    a.record("k", "linear", 3)
    a.record("keep", "pairwise", 5)
    a.forget("k")
    assert HistoryStore(path).lookup("k") is None
    a.record("third", "linear", 9)  # save merges disk: k must stay gone
    final = HistoryStore(path)
    assert final.lookup("k") is None
    assert final.lookup("keep") == "pairwise"
    assert final.lookup("third") == "linear"


def test_concurrent_writers_many_keys(tmp_path):
    """Interleaved writers on one file: every record survives."""
    path = str(tmp_path / "shared.json")
    stores = [HistoryStore(path) for _ in range(3)]
    for i in range(12):
        stores[i % 3].record(f"key-{i}", f"winner-{i}", i)
    fresh = HistoryStore(path)
    for i in range(12):
        assert fresh.lookup(f"key-{i}") == f"winner-{i}"
    assert len(fresh) == 12


@pytest.mark.parametrize("flat,hier", [("alltoall", "alltoall_hier"),
                                       ("bcast", "bcast_hier")])
def test_hierarchical_winner_never_pins_the_flat_set(flat, hier):
    # the flat and hierarchical sets are distinct tuning problems: a
    # leader-based winner recorded for one must not be looked up (and
    # fail to resolve) in the other
    hist = HistoryStore()
    hier_set = function_set_for(hier)
    winner = next(f.name for f in hier_set if f.name.startswith("hier"))
    cfg = OverlapConfig(nprocs=8, operation=hier, nbytes=1024,
                        iterations=2, compute_total=1.0)
    run_overlap(cfg, selector=hier_set.index_of(winner),
                evals_per_function=1, history=hist)
    flat_cfg = dataclasses.replace(
        cfg, operation=flat, iterations=len(function_set_for(flat)) + 1)
    res = run_overlap(flat_cfg, evals_per_function=1, history=hist)
    assert res.winner in {f.name for f in function_set_for(flat)}
    assert len(hist) == 2
