"""Regression scenarios: minimized defects checked into the test suite.

A scenario is the durable end of the defect pipeline: one JSON file
holding a minimized probe, the rule it violates, and the fingerprint of
the defect report it must reproduce.  The test suite auto-discovers the
scenario directory and re-checks every file — a guideline violation,
once found, can never silently stop reproducing (fixed behaviour must
retire the scenario explicitly) and never silently change shape
(fingerprint drift fails CI).
"""

from __future__ import annotations

import json
import os
from typing import List

from ..errors import GuidelineError
from .checker import normalize_probe
from .defects import defect_from_violation
from .rules import RULE_CATALOGUE

__all__ = [
    "SCENARIO_SCHEMA",
    "discover_scenarios",
    "load_scenario",
    "recheck_scenario",
    "save_scenario",
    "scenario_filename",
    "scenario_from_defect",
]

#: schema version of regression-scenario files
SCENARIO_SCHEMA = 1


def scenario_from_defect(report: dict) -> dict:
    """The regression scenario a (minimized) defect report exports to."""
    return {
        "schema": SCENARIO_SCHEMA,
        "rule": report["rule"],
        "probe": dict(report["probe"]),
        "reason": report["reason"],
        "fingerprint": report["fingerprint"],
    }


def scenario_filename(scenario: dict) -> str:
    """Stable, human-sortable filename for a scenario."""
    return f"{scenario['rule'].lower()}-{scenario['fingerprint'][:12]}.json"


def save_scenario(directory: str, scenario: dict) -> str:
    """Write a scenario into ``directory``; returns the file path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, scenario_filename(scenario))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def load_scenario(path: str) -> dict:
    """Parse and validate one scenario file (harness error if malformed)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            scenario = json.load(fh)
    except (OSError, ValueError) as exc:
        raise GuidelineError(f"unreadable scenario file {path}: {exc}")
    if not isinstance(scenario, dict):
        raise GuidelineError(f"scenario {path} must be a JSON object")
    if scenario.get("schema") != SCENARIO_SCHEMA:
        raise GuidelineError(
            f"scenario {path} has schema {scenario.get('schema')!r}; "
            f"this build reads schema {SCENARIO_SCHEMA}")
    rule = scenario.get("rule")
    if rule not in RULE_CATALOGUE:
        raise GuidelineError(f"scenario {path} names unknown rule {rule!r}")
    if not isinstance(scenario.get("fingerprint"), str):
        raise GuidelineError(f"scenario {path} is missing its fingerprint")
    try:
        scenario["probe"] = normalize_probe(scenario.get("probe"))
    except GuidelineError as exc:
        raise GuidelineError(f"scenario {path}: {exc}")
    scenario["path"] = path
    return scenario


def discover_scenarios(directory: str) -> List[dict]:
    """All scenarios under ``directory``, sorted by filename."""
    if not os.path.isdir(directory):
        return []
    scenarios = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            scenarios.append(load_scenario(os.path.join(directory, name)))
    return scenarios


def recheck_scenario(scenario: dict, engine=None) -> dict:
    """Re-run one scenario; did its defect fingerprint reproduce?

    Returns ``{"scenario", "reproduced", "expected", "actual"}`` where
    ``actual`` lists the fingerprints of the defects the re-check
    produced (usually one).  ``reproduced`` is True when the expected
    fingerprint is among them — the violation still exists *and* its
    evidence is bit-identical, so the regression corpus is live.
    """
    from .checker import check_probe

    violations = check_probe(scenario["probe"], rules=[scenario["rule"]],
                             engine=engine)
    actual = [defect_from_violation(v)["fingerprint"] for v in violations]
    return {
        "scenario": scenario,
        "reproduced": scenario["fingerprint"] in actual,
        "expected": scenario["fingerprint"],
        "actual": actual,
    }
