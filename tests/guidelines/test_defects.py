"""Defect-pipeline tests: fingerprints, validation, audit parity."""

import json

from repro.guidelines import (
    GuidelineEngine,
    check_probe,
    defect_from_violation,
    minimize_violation,
    record_defects,
    validate_defect,
    write_defect_reports,
)
from repro.obs.audit import AuditLog
from repro.util.canonical import fingerprint


def _selection_violation(engine=None):
    return check_probe({"selector": "heuristic", "evals": 1, "seed": 0},
                       rules=["PG-SELECT-MOCKUP"], engine=engine)[0]


def test_defect_report_shape_and_fingerprint():
    report = defect_from_violation(_selection_violation())
    assert report["kind"] == "defect"
    assert report["component"] == "guidelines"
    assert report["schema"] == 1
    assert report["rule"] == "PG-SELECT-MOCKUP"
    assert report["key"].startswith("guideline:")
    assert validate_defect(report) == []
    body = {k: v for k, v in report.items() if k != "fingerprint"}
    assert report["fingerprint"] == fingerprint(body)


def test_defect_reports_are_bit_deterministic():
    r1 = defect_from_violation(_selection_violation())
    r2 = defect_from_violation(_selection_violation())
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_validate_defect_catches_tampering():
    report = defect_from_violation(_selection_violation())
    edited = dict(report)
    edited["reason"] = "nothing to see here"
    assert any("fingerprint mismatch" in e for e in validate_defect(edited))

    bad_hex = json.loads(json.dumps(report))
    bad_hex["evidence"]["subject"]["cost_hex"] = float(0.0).hex()
    assert any("cost_hex" in e for e in validate_defect(bad_hex))

    assert validate_defect("not a dict")
    assert validate_defect({"kind": "defect"})
    unknown_rule = dict(report)
    unknown_rule["rule"] = "PG-NOPE"
    assert any("unknown guideline rule" in e
               for e in validate_defect(unknown_rule))


def test_write_defect_reports_is_deterministic(tmp_path):
    reports = [defect_from_violation(_selection_violation())]
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_defect_reports(str(p1), reports)
    write_defect_reports(str(p2), reports)
    assert p1.read_bytes() == p2.read_bytes()
    doc = json.loads(p1.read_text())
    assert doc["schema"] == 1
    assert len(doc["defects"]) == 1


def test_audit_entries_equal_defect_reports():
    # the audit entry reassembles to exactly the defect report, so
    # `repro report --validate` can re-validate fingerprints from the
    # audit log alone
    report = defect_from_violation(_selection_violation())
    audit = AuditLog()
    record_defects(audit, [report])
    entries = audit.defects()
    assert len(entries) == 1
    assert entries[0] == report
    assert validate_defect(entries[0]) == []


def test_minimize_shrinks_while_preserving_the_rule():
    engine = GuidelineEngine()
    violation = check_probe(
        {"selector": "heuristic", "evals": 2, "seed": 0,
         "nprocs": 16, "nbytes": 1 << 20, "nprogress": 8},
        rules=["PG-SELECT-MOCKUP"], engine=engine)[0]
    minimized = minimize_violation(violation, engine=engine)
    assert minimized["rule"] == violation["rule"]
    probe = minimized["probe"]
    # the selection surface only depends on (selector, evals, seed);
    # every geometry field must have shrunk to its floor
    assert probe["nprocs"] == 2
    assert probe["nbytes"] == 1024
    assert probe["nprogress"] == 1
    assert probe["evals"] == 1
    # and the minimized probe still violates
    assert check_probe(probe, rules=["PG-SELECT-MOCKUP"],
                       engine=engine) != []


def test_minimize_returns_original_when_nothing_shrinks():
    engine = GuidelineEngine()
    violation = check_probe(
        {"selector": "heuristic", "evals": 1, "seed": 0,
         "nprocs": 2, "nbytes": 1024, "nprogress": 1},
        rules=["PG-SELECT-MOCKUP"], engine=engine)[0]
    assert minimize_violation(violation, engine=engine) == violation
