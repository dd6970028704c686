"""Defect reports: machine-readable guideline violations.

Every violation the checker finds becomes a *defect report* — a dict in
the PR-4 audit-log defect schema (``kind="defect"``), extended with the
guideline-specific payload (rule, normalized probe, hex-twinned cost
evidence) and sealed with a canonical-JSON fingerprint.  The same dict
is written to the defects file, appended to the
:class:`~repro.obs.audit.AuditLog`, and (minimized) exported as a
regression scenario — one shape, three sinks.

Reports are bit-deterministic: same probe, same rule, same violation ⇒
the same fingerprint on every machine, which is what lets CI detect
both new violations (unexpected fingerprints) and regressions that
stopped reproducing (expected fingerprint missing).
"""

from __future__ import annotations

import json
import os
from typing import List

from ..errors import GuidelineError
from ..util.canonical import canonical_json, fingerprint

__all__ = [
    "GUIDELINE_DEFECT_SCHEMA",
    "defect_from_violation",
    "minimize_violation",
    "record_defects",
    "validate_defect",
    "write_defect_reports",
]

#: schema version of guideline defect reports
GUIDELINE_DEFECT_SCHEMA = 1


def defect_from_violation(violation: dict) -> dict:
    """Seal a checker violation into a fingerprinted defect report."""
    body = {
        "kind": "defect",
        "component": "guidelines",
        "schema": GUIDELINE_DEFECT_SCHEMA,
        "rule": violation["rule"],
        "rule_kind": violation["kind"],
        "key": "guideline:" + canonical_json(violation["probe"]),
        "reason": violation["reason"],
        "probe": dict(violation["probe"]),
        "evidence": violation["evidence"],
    }
    body["fingerprint"] = fingerprint(body)
    return body


def validate_defect(report: object) -> List[str]:
    """Schema errors of one guideline defect report (empty = valid)."""
    errors: List[str] = []
    if not isinstance(report, dict):
        return [f"defect report must be a mapping, got "
                f"{type(report).__name__}"]
    if report.get("kind") != "defect":
        errors.append(f"kind must be 'defect', got {report.get('kind')!r}")
    if report.get("component") != "guidelines":
        errors.append(f"component must be 'guidelines', got "
                      f"{report.get('component')!r}")
    if report.get("schema") != GUIDELINE_DEFECT_SCHEMA:
        errors.append(f"schema must be {GUIDELINE_DEFECT_SCHEMA}, got "
                      f"{report.get('schema')!r}")
    rule = report.get("rule")
    from .rules import RULE_CATALOGUE
    if rule not in RULE_CATALOGUE:
        errors.append(f"unknown guideline rule {rule!r}")
    if not isinstance(report.get("reason"), str) or not report.get("reason"):
        errors.append("reason must be a non-empty string")
    if not isinstance(report.get("key"), str) or \
            not str(report.get("key", "")).startswith("guideline:"):
        errors.append("key must be a 'guideline:'-prefixed string")
    probe = report.get("probe")
    if not isinstance(probe, dict):
        errors.append("probe must be a mapping")
    evidence = report.get("evidence")
    if not isinstance(evidence, dict):
        errors.append("evidence must be a mapping")
    else:
        for side in ("subject", "bound"):
            meas = evidence.get(side)
            if not isinstance(meas, dict):
                errors.append(f"evidence.{side} must be a mapping")
                continue
            cost, cost_hex = meas.get("cost"), meas.get("cost_hex")
            if not isinstance(cost, (int, float)) or isinstance(cost, bool):
                errors.append(f"evidence.{side}.cost must be a number")
            elif not isinstance(cost_hex, str) or \
                    float.fromhex(cost_hex) != float(cost):
                errors.append(
                    f"evidence.{side}.cost_hex does not match cost")
    expected = report.get("fingerprint")
    if not isinstance(expected, str):
        errors.append("fingerprint must be a string")
    elif not errors:
        body = {k: v for k, v in report.items() if k != "fingerprint"}
        actual = fingerprint(body)
        if actual != expected:
            errors.append(
                f"fingerprint mismatch: stored {expected[:12]}..., "
                f"recomputed {actual[:12]}... (report was edited?)")
    return errors


def write_defect_reports(path: str, reports: List[dict]) -> None:
    """Write the defect reports document (deterministic bytes)."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    doc = {"schema": GUIDELINE_DEFECT_SCHEMA, "defects": list(reports)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def record_defects(audit, reports: List[dict]) -> None:
    """Append defect reports to an :class:`~repro.obs.audit.AuditLog`.

    Every field of the report lands in the audit entry, so the entry
    *is* the defect report — ``repro report --validate`` re-validates
    audit entries with :func:`validate_defect`.
    """
    for report in reports:
        extra = {k: v for k, v in report.items()
                 if k not in ("kind", "component", "key", "reason")}
        audit.defect("guidelines", report["key"], report["reason"], **extra)


# -- minimization ------------------------------------------------------------

def _shrink_steps(probe: dict) -> List[dict]:
    """Candidate single-field shrinks of a probe, most aggressive first."""
    steps: List[dict] = []
    if probe["nbytes"] >= 2 * 1024 and \
            probe["nbytes"] // 2 >= 2 * probe["nprocs"]:
        steps.append({"nbytes": probe["nbytes"] // 2})
    if probe["nprocs"] >= 4:
        steps.append({"nprocs": probe["nprocs"] // 2})
    if probe["nprogress"] > 1:
        steps.append({"nprogress": 1})
    if probe["evals"] > 1:
        steps.append({"evals": 1})
    if probe["seed"] != 0:
        steps.append({"seed": 0})
    return steps


def minimize_violation(violation: dict, engine=None) -> dict:
    """Greedy deterministic shrink of a violating probe.

    Tries single-field reductions (halve nbytes, halve nprocs, drop
    nprogress/evals, zero the seed) and keeps any that still violate
    the *same* rule, restarting from the shrunk probe; stops when no
    shrink reproduces, or after 64 accepted shrinks.  Returns the
    violation for the smallest reproducing probe — the one exported as
    a regression scenario.
    """
    from .checker import GuidelineEngine, check_probe

    engine = engine if engine is not None else GuidelineEngine()
    rule_id = violation["rule"]
    current = violation
    accepted = 0
    while accepted < 64:
        probe = current["probe"]
        for step in _shrink_steps(probe):
            try:
                shrunk = check_probe({**probe, **step}, rules=[rule_id],
                                     engine=engine)
            except GuidelineError:
                continue  # shrink left the rule's domain; try the next
            if shrunk:
                current = shrunk[0]
                accepted += 1
                break
        else:
            return current
    return current
