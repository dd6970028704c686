"""Checker-engine tests: probe normalization, memoization, KB checks."""

import hashlib

import pytest

from repro.errors import GuidelineError
from repro.guidelines import (
    GuidelineEngine,
    check_kb_records,
    check_probe,
    defect_from_violation,
    normalize_probe,
    preset_probes,
    probe_key,
    validate_defect,
)


def test_normalize_fills_defaults_in_canonical_order():
    probe = normalize_probe({})
    assert probe["platform"] == "whale"
    assert probe["selector"] == "brute_force"
    assert list(probe) == list(normalize_probe({"nbytes": 1 << 20}))


@pytest.mark.parametrize("bad", [
    {"nprocs": 1},
    {"nbytes": 0},
    {"tolerance": -0.1},
    {"operation": "scan"},
    {"selector": "oracle"},
    {"nbytes": "big"},
    {"nbytes": True},
    {"platform": 7},
    {"bogus_field": 1},
    {"compute_total": -1.0},
    {"nprogress": -1},
])
def test_normalize_rejects_bad_probes(bad):
    with pytest.raises(GuidelineError):
        normalize_probe(bad)


def test_probe_key_is_canonical():
    k1 = probe_key(normalize_probe({"nbytes": 4096, "nprocs": 4}))
    k2 = probe_key(normalize_probe({"nprocs": 4, "nbytes": 4096}))
    assert k1 == k2
    assert k1.startswith("guideline:")


def test_preset_probe_keys_are_pinned():
    # defect fingerprints and audit records are keyed by probe_key
    keys = [probe_key(p) for p in preset_probes(
        ["bluegene_p", "crill", "whale", "whale_tcp"])]
    assert keys[0] == (
        'guideline:{"compute_total":50.0,"evals":2,"iterations":46,'
        '"nbytes":4096,"nprocs":4,"nprogress":5,"operation":"alltoall",'
        '"paper_iterations":1000,"platform":"bluegene_p","seed":0,'
        '"selector":"brute_force","tolerance":0.02}')
    assert hashlib.sha256("\n".join(keys).encode()).hexdigest() == (
        "0590708d7748af395e539bb10073bd9a0cd362202f2980d6424ee690ba2e0ff7")


def test_engine_memoizes_identical_scenarios():
    engine = GuidelineEngine()
    probe = normalize_probe({"nprocs": 4, "nbytes": 2048,
                             "operation": "alltoall", "iterations": 24})
    first = engine.tuned(probe)
    assert engine.tuned(probe) is first
    # overrides that normalize to the same probe share the memo entry
    assert engine.tuned(probe, nprocs=4) is first


def test_engine_mockup_rejects_unknown_candidates():
    with pytest.raises(GuidelineError):
        GuidelineEngine().mockup(normalize_probe({}), "warp_drive")


def test_small_preset_scenario_is_guideline_clean():
    violations = check_probe({
        "platform": "whale", "operation": "bcast",
        "nprocs": 4, "nbytes": 4096, "iterations": 46,
    })
    assert violations == []


def test_preset_probes_cover_the_grid():
    probes = preset_probes(["whale", "crill"], operations=("bcast",),
                           tolerance=0.03)
    # platforms x ops x nprocs x nbytes, plus one hierarchical-vs-flat
    # allreduce probe per platform
    assert len(probes) == 2 * 1 * 2 * 2 + 2
    assert {p["platform"] for p in probes} == {"whale", "crill"}
    assert all(p["tolerance"] == 0.03 for p in probes)
    hier = [p for p in probes if p["operation"] == "allreduce"]
    assert len(hier) == 2
    assert {p["platform"] for p in hier} == {"whale", "crill"}


# -- knowledge-base cross-check ---------------------------------------------

def _kb_record(key, nprocs, nbytes, cost, **req_extra):
    request = {
        "platform": "whale", "operation": "bcast", "nprocs": nprocs,
        "nbytes": nbytes, "compute_total": 50.0, "paper_iterations": 1000,
        "iterations": 46, "nprogress": 5, "selector": "brute_force",
        "evals": 3, "seed": 0, "epoch": 0,
    }
    request.update(req_extra)
    return {
        "key": key,
        "request": request,
        "decision": {"winner": "linear", "decided_at": 3,
                     "mean_after_learning": cost},
    }


def test_kb_consistent_records_are_clean():
    records = [
        _kb_record("k1", 4, 1024, 1.0),
        _kb_record("k2", 4, 2048, 2.0),
        _kb_record("k3", 8, 1024, 3.0),
    ]
    assert check_kb_records(records) == []


def test_kb_msgsize_inversion_is_flagged_as_valid_defect():
    records = [
        _kb_record("k1", 4, 1024, 2.0),
        _kb_record("k2", 4, 2048, 1.0),  # bigger message stored cheaper
    ]
    violations = check_kb_records(records)
    assert [v["rule"] for v in violations] == ["PG-MONO-MSGSIZE"]
    v = violations[0]
    assert v["evidence"]["subject"]["key"] == "k1"
    assert v["evidence"]["bound"]["key"] == "k2"
    # the violation feeds the standard defect pipeline
    report = defect_from_violation(v)
    assert validate_defect(report) == []


def test_kb_nprocs_inversion_is_flagged():
    records = [
        _kb_record("k1", 4, 1024, 5.0),
        _kb_record("k2", 8, 1024, 1.0),
    ]
    violations = check_kb_records(records)
    assert [v["rule"] for v in violations] == ["PG-MONO-NPROCS"]


def test_kb_different_contexts_are_never_compared():
    records = [
        _kb_record("k1", 4, 1024, 2.0, selector="brute_force"),
        _kb_record("k2", 4, 2048, 1.0, selector="heuristic"),
    ]
    assert check_kb_records(records) == []


def test_kb_tolerance_and_malformed_records():
    records = [
        _kb_record("k1", 4, 1024, 1.01),
        _kb_record("k2", 4, 2048, 1.0),   # 1% above: inside tolerance
        {"key": "junk"},                   # no request: skipped
        {"request": {"nprocs": 4}},        # partial request: skipped
        _kb_record("k3", 4, 4096, None),   # no cost: skipped
    ]
    assert check_kb_records(records, tolerance=0.02) == []
    assert len(check_kb_records(records, tolerance=0.001)) == 1
