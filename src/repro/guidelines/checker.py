"""The guideline checker engine.

A *probe* is one scenario to verify: a plain JSON-able dict (platform,
operation, geometry, selector, tolerance, ...) normalized by
:func:`normalize_probe` exactly like the tuning service normalizes
requests — same canonical field order, same validation posture, and a
canonical string identity from :func:`probe_key`.

:class:`GuidelineEngine` is the measurement side: it runs tuned
decisions and mock-up candidates through the *real* overlap harness
(:func:`repro.bench.overlap.run_overlap` — same loop, timer, progress
engine and network model), memoizing per-scenario so one engine can
evaluate a whole rule matrix without re-simulating shared baselines.

:func:`check_kb_records` is the pure-dict variant used by the tuning
daemon on startup: it cross-checks the *stored* knowledge-base
decisions against the monotonicity guidelines without running any
simulation — stale or drifted decisions that break self-consistency
surface as defects the moment the daemon boots, not when a client
trips over them.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..adcl.fnsets import ibcast_mockup_function_set
from ..bench.overlap import normalize_scenario, run_overlap, scenario_config
from ..errors import GuidelineError
from ..serve.core import REQUEST_DEFAULTS
from ..util.canonical import canonical_json
from .rules import RULES, Guideline, rules_by_id

__all__ = [
    "PROBE_DEFAULTS",
    "GuidelineEngine",
    "check_kb_records",
    "check_probe",
    "normalize_probe",
    "preset_probes",
    "probe_key",
]

#: every field a guideline probe may carry, with its default; the
#: iteration budget covers brute force over the largest shipped set
#: (21 bcast candidates x 2 evals) with a steady-state tail
PROBE_DEFAULTS: Dict[str, object] = {
    "platform": "whale",
    "operation": "bcast",
    "nprocs": 8,
    "nbytes": 16 * 1024,
    "nprogress": 5,
    "selector": "brute_force",
    "evals": 2,
    "seed": 0,
    "compute_total": 50.0,
    "paper_iterations": 1000,
    "iterations": 46,
    "tolerance": 0.02,
}

#: mock-up candidate pools the composition rules can measure
MOCKUP_SETS = {
    "scatter_allgather": ibcast_mockup_function_set,
}


def normalize_probe(fields: Optional[dict]) -> dict:
    """Validated probe with defaults filled, in canonical field order
    (the tuning-service request schema, :func:`normalize_scenario`)."""
    return normalize_scenario(fields, PROBE_DEFAULTS, GuidelineError,
                              "guideline-probe")


def probe_key(probe: dict) -> str:
    """Canonical string identity of a probe (defect/audit key)."""
    return f"guideline:{canonical_json(probe, strict=True)}"


class GuidelineEngine:
    """Measures tuned decisions and mock-up candidates, memoized.

    One engine per process; the memo makes rule matrices cheap (the
    msg-size and nprocs monotonicity rules share each other's scaled
    scenarios, and every rule shares the probe's own tuned baseline).
    """

    def __init__(self) -> None:
        self._memo: Dict[str, dict] = {}

    def tuned(self, probe: dict, **overrides) -> dict:
        """Tuned steady-state measurement of ``probe`` (or a variant)."""
        p = normalize_probe({**probe, **overrides})
        memo_key = "tuned:" + probe_key(p)
        hit = self._memo.get(memo_key)
        if hit is not None:
            return hit
        res = run_overlap(scenario_config(p, p["seed"]),
                          selector=p["selector"],
                          evals_per_function=p["evals"])
        if res.winner is None:
            raise GuidelineError(
                f"probe reached no tuning decision within "
                f"{p['iterations']} iterations: {probe_key(p)}")
        out = self._measurement(res)
        self._memo[memo_key] = out
        return out

    def mockup(self, probe: dict, name: str, **overrides) -> dict:
        """Measurement of one composed mock-up candidate for ``probe``."""
        builder = MOCKUP_SETS.get(name)
        if builder is None:
            raise GuidelineError(
                f"unknown mock-up candidate {name!r}; known: "
                f"{', '.join(sorted(MOCKUP_SETS))}")
        p = normalize_probe({**probe, **overrides})
        memo_key = f"mockup:{name}:" + probe_key(p)
        hit = self._memo.get(memo_key)
        if hit is not None:
            return hit
        # a fixed single-candidate run: the mock-up is measured with the
        # identical harness, circumventing selection entirely
        res = run_overlap(scenario_config(p, p["seed"]), selector=0,
                          evals_per_function=1, fnset=builder())
        out = self._measurement(res)
        self._memo[memo_key] = out
        return out

    @staticmethod
    def _measurement(res) -> dict:
        cost = res.mean_after_learning()
        return {
            "cost": cost,
            "cost_hex": float(cost).hex(),
            "winner": res.winner,
            "decided_at": res.decided_at,
        }


RuleLike = Union[str, Guideline]


def _resolve_rules(rules: Optional[Iterable[RuleLike]]) -> List[Guideline]:
    if rules is None:
        return list(RULES)
    out: List[Guideline] = []
    for rule in rules:
        if isinstance(rule, str):
            out.extend(rules_by_id([rule]))
        else:
            out.append(rule)
    return out


def check_probe(probe: dict, rules: Optional[Iterable[RuleLike]] = None,
                engine: Optional[GuidelineEngine] = None) -> List[dict]:
    """Evaluate the applicable rules against one probe.

    Returns the violations (possibly empty), each carrying the
    normalized probe and hex-twinned cost evidence — everything the
    defect pipeline needs to fingerprint and reproduce the finding.
    """
    probe = normalize_probe(probe)
    engine = engine if engine is not None else GuidelineEngine()
    violations: List[dict] = []
    for rule in _resolve_rules(rules):
        if rule.applies_to(probe):
            violations.extend(rule.check(engine, probe))
    return violations


def preset_probes(platforms: Sequence[str],
                  operations: Sequence[str] = ("alltoall", "bcast"),
                  tolerance: float = 0.02,
                  selector: str = "brute_force") -> List[dict]:
    """The fixed verification matrix over the shipped platform presets.

    A small deterministic geometry grid per (platform, operation) — the
    default ``repro verify-guidelines`` workload, expected to be clean
    on every shipped preset — plus one hierarchical-vs-flat probe per
    platform: the Iallreduce set (binomial tree, ring, two-level leader
    tree) under PG-MONO-NPROCS, so scaling the process count must not
    make the tuned hierarchy-aware decision cheaper.
    """
    probes = []
    for platform in platforms:
        for operation in operations:
            for nprocs in (4, 8):
                for nbytes in (4 * 1024, 64 * 1024):
                    probes.append(normalize_probe({
                        "platform": platform,
                        "operation": operation,
                        "nprocs": nprocs,
                        "nbytes": nbytes,
                        "selector": selector,
                        "tolerance": tolerance,
                    }))
        probes.append(normalize_probe({
            "platform": platform,
            "operation": "allreduce",
            "nprocs": 8,
            "nbytes": 64 * 1024,
            "selector": selector,
            "tolerance": tolerance,
        }))
    return probes


# -- knowledge-base cross-check (no simulation) ------------------------------

#: request fields that must match for two stored decisions to be
#: comparable under a monotonicity guideline: all but the geometry
_KB_CONTEXT_FIELDS = tuple(f for f in REQUEST_DEFAULTS
                           if f not in ("nprocs", "nbytes"))


def _kb_cost(record: dict) -> Optional[float]:
    decision = record.get("decision") or {}
    cost = decision.get("mean_after_learning")
    return float(cost) if isinstance(cost, (int, float)) else None


def _kb_violation(rule_id: str, field: str, rec_a: dict, rec_b: dict,
                  cost_a: float, cost_b: float, tolerance: float) -> dict:
    req_a, req_b = rec_a["request"], rec_b["request"]
    margin = cost_a / cost_b - 1.0
    return {
        "rule": rule_id,
        "kind": "monotonicity",
        "probe": dict(req_a),
        "reason": (
            f"stored decision at {field}={req_a[field]} costs "
            f"{cost_a:.6g}s, more than {cost_b:.6g}s at "
            f"{field}={req_b[field]} (tolerance {tolerance:.0%}) — "
            f"the knowledge base is not self-consistent"),
        "evidence": {
            "subject": {"label": f"kb[{field}={req_a[field]}]",
                        "cost": cost_a, "cost_hex": float(cost_a).hex(),
                        "winner": (rec_a.get("decision") or {}).get("winner"),
                        "key": rec_a.get("key")},
            "bound": {"label": f"kb[{field}={req_b[field]}]",
                      "cost": cost_b, "cost_hex": float(cost_b).hex(),
                      "winner": (rec_b.get("decision") or {}).get("winner"),
                      "key": rec_b.get("key")},
            "tolerance": tolerance,
            "margin": margin,
            "margin_hex": float(margin).hex(),
        },
    }


def check_kb_records(records: Iterable[dict],
                     tolerance: float = 0.02) -> List[dict]:
    """Cross-check stored tuning decisions against monotonicity rules.

    Pure dict computation over knowledge-base records (each
    ``{"request": ..., "decision": ...}``): within every group of
    records that differ *only* in geometry, the stored steady-state
    cost must be monotone non-decreasing in message size (at fixed
    process count) and in process count (at fixed message size).
    Violations use the same shape as engine-checked ones, so they feed
    the same defect pipeline.
    """
    groups: Dict[str, List[Tuple[dict, float]]] = {}
    for record in records:
        req = record.get("request")
        if not isinstance(req, dict):
            continue
        cost = _kb_cost(record)
        if cost is None:
            continue
        try:
            context = canonical_json(
                {f: req[f] for f in _KB_CONTEXT_FIELDS}, strict=True)
        except (KeyError, TypeError, ValueError):
            continue  # foreign/partial request shape: not comparable
        groups.setdefault(context, []).append((record, cost))

    violations: List[dict] = []
    for _, members in sorted(groups.items()):
        # deterministic order regardless of shard iteration
        members = sorted(
            members,
            key=lambda rc: (rc[0]["request"]["nprocs"],
                            rc[0]["request"]["nbytes"],
                            rc[0].get("key") or ""))
        checks = (("PG-MONO-MSGSIZE", "nbytes", "nprocs"),
                  ("PG-MONO-NPROCS", "nprocs", "nbytes"))
        for rule_id, field, fixed in checks:
            for i, (rec_a, cost_a) in enumerate(members):
                for rec_b, cost_b in members[i + 1:]:
                    ra, rb = rec_a["request"], rec_b["request"]
                    if ra[fixed] != rb[fixed] or ra[field] >= rb[field]:
                        continue
                    if cost_a > cost_b * (1.0 + tolerance):
                        violations.append(_kb_violation(
                            rule_id, field, rec_a, rec_b,
                            cost_a, cost_b, tolerance))
    return violations
