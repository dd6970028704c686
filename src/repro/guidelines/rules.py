"""The performance-guideline rule catalogue.

Guidelines are declarative, first-class rules with machine-readable IDs
(after Hunold's PGMPITuneLib, "Tuning MPI Collectives by Verifying
Performance Guidelines").  Each rule states a self-consistency property
the tuner's decisions must satisfy:

* **monotonicity** — tuned steady-state cost must not *decrease* when
  the message size or process count grows, and must not *increase*
  when the application makes more progress calls;
* **composition** — a tuned collective must never lose to a *mock-up*
  built from collectives that subsume it (``Ibcast ≼ Iscatter +
  Iallgather``, van de Geijn's large-message broadcast);
* **selection** — the selection logic itself must find a planted
  mock-up candidate whose cost is known to be strictly optimal.

A rule evaluates a *probe* (a normalized scenario dict, see
:mod:`repro.guidelines.checker`) through an engine that measures tuned
decisions and mock-ups with the real overlap harness.  Violations are
plain dicts; the defect pipeline (:mod:`repro.guidelines.defects`)
turns them into fingerprinted reports and regression scenarios.

All comparisons carry the probe's relative ``tolerance``: simulated
costs are deterministic but not noise-free in structure (e.g. each
progress call has real overhead), so a guideline only *fails* when the
subject exceeds its bound by more than the tolerated margin.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from ..errors import GuidelineError

__all__ = [
    "Guideline",
    "CompositionGuideline",
    "MonotonicityGuideline",
    "SelectionMockupGuideline",
    "RULES",
    "RULE_CATALOGUE",
    "rules_by_id",
]


def _measurement_view(m: dict, label: str) -> dict:
    out = {"label": label, "cost": m["cost"], "cost_hex": m["cost_hex"]}
    for extra in ("winner", "decided_at"):
        if m.get(extra) is not None:
            out[extra] = m[extra]
    return out


class Guideline:
    """One performance guideline: an ID, a statement, and a check."""

    #: machine-readable rule identity, e.g. ``PG-MONO-MSGSIZE``
    rule_id: str
    #: rule family: ``monotonicity`` | ``composition`` | ``selection``
    kind: str
    #: one-line human statement of the guideline
    statement: str
    #: benchmark operations the rule applies to (``("*",)`` = all)
    operations: Sequence[str] = ("*",)

    def applies_to(self, probe: dict) -> bool:
        if "*" not in self.operations and \
                probe["operation"] not in self.operations:
            return False
        return self._applies(probe)

    def _applies(self, probe: dict) -> bool:
        return True

    def check(self, engine, probe: dict) -> List[dict]:
        """Violations of this rule for ``probe`` (empty = compliant)."""
        raise NotImplementedError

    def _violation(self, probe: dict, reason: str,
                   subject: dict, bound: dict) -> dict:
        margin = subject["cost"] / bound["cost"] - 1.0
        return {
            "rule": self.rule_id,
            "kind": self.kind,
            "probe": dict(probe),
            "reason": reason,
            "evidence": {
                "subject": subject,
                "bound": bound,
                "tolerance": probe["tolerance"],
                "margin": margin,
                "margin_hex": float(margin).hex(),
            },
        }

    def describe(self) -> str:
        ops = "all operations" if "*" in self.operations \
            else "/".join(self.operations)
        return f"{self.rule_id:<32} [{self.kind}] {self.statement} ({ops})"


class MonotonicityGuideline(Guideline):
    """Tuned cost must be monotone when one scenario field doubles.

    ``subject_is_scaled=False`` (message size, process count): the cost
    at the probe's value must not exceed the cost at double the value —
    a bigger problem cannot be cheaper.  ``subject_is_scaled=True``
    (progress calls): the cost at double the value must not exceed the
    probe's — giving the library *more* progress opportunities must
    never hurt.
    """

    kind = "monotonicity"

    def __init__(self, rule_id: str, field: str, statement: str,
                 subject_is_scaled: bool = False):
        self.rule_id = rule_id
        self.field = field
        self.statement = statement
        self.subject_is_scaled = subject_is_scaled

    def check(self, engine, probe: dict) -> List[dict]:
        value = probe[self.field]
        scaled_value = value * 2
        base = engine.tuned(probe)
        scaled = engine.tuned(probe, **{self.field: scaled_value})
        base_view = _measurement_view(base, f"tuned[{self.field}={value}]")
        scaled_view = _measurement_view(
            scaled, f"tuned[{self.field}={scaled_value}]")
        if self.subject_is_scaled:
            subject, bound = scaled_view, base_view
            direction = "increased"
        else:
            subject, bound = base_view, scaled_view
            direction = "decreased"
        tol = probe["tolerance"]
        if subject["cost"] <= bound["cost"] * (1.0 + tol):
            return []
        reason = (
            f"tuned cost {direction} when {self.field} doubled "
            f"({value} -> {scaled_value}): {subject['cost']:.6g}s vs "
            f"{bound['cost']:.6g}s bound (tolerance {tol:.0%})")
        return [self._violation(probe, reason, subject, bound)]


class CompositionGuideline(Guideline):
    """A tuned collective must not lose to a composed mock-up of it."""

    kind = "composition"

    def __init__(self, rule_id: str, mockup: str, statement: str,
                 operations: Sequence[str]):
        self.rule_id = rule_id
        self.mockup = mockup
        self.statement = statement
        self.operations = tuple(operations)

    def _applies(self, probe: dict) -> bool:
        # large-message regime only (the mock-up compiles for any size)
        return probe["nbytes"] >= 2 * probe["nprocs"]

    def check(self, engine, probe: dict) -> List[dict]:
        tuned = engine.tuned(probe)
        mock = engine.mockup(probe, self.mockup)
        subject = _measurement_view(tuned, "tuned")
        bound = _measurement_view(mock, f"mockup:{self.mockup}")
        tol = probe["tolerance"]
        if subject["cost"] <= bound["cost"] * (1.0 + tol):
            return []
        reason = (
            f"tuned {probe['operation']} decision "
            f"({tuned.get('winner')!r}) is slower than its "
            f"{self.mockup} mock-up: {subject['cost']:.6g}s vs "
            f"{bound['cost']:.6g}s (tolerance {tol:.0%}) — a faster "
            f"composed implementation exists but was not selected")
        return [self._violation(probe, reason, subject, bound)]


class SelectionMockupGuideline(Guideline):
    """The selection logic must find a planted optimal candidate.

    Builds a synthetic function-set whose per-candidate costs are known
    (seeded from the probe), plants one candidate strictly cheaper than
    every other, and drives the probe's selector offline over the cost
    table (:meth:`repro.adcl.selection.base.Selector.run_offline`).
    Selecting anything measurably worse than the planted candidate is a
    violation — the paper-style proof that a selection logic's
    structural assumptions (e.g. the heuristic's attribute
    independence) do not hold on this cost surface.
    """

    kind = "selection"
    rule_id = "PG-SELECT-MOCKUP"
    statement = ("the selector must find a planted candidate whose cost "
                 "is strictly optimal")

    def check(self, engine, probe: dict) -> List[dict]:
        from .mockup import plant_and_select

        res = plant_and_select(probe)
        subject = {
            "label": f"selected:{res['selected']}",
            "cost": res["selected_cost"],
            "cost_hex": float(res["selected_cost"]).hex(),
        }
        bound = {
            "label": f"planted:{res['planted']}",
            "cost": res["planted_cost"],
            "cost_hex": float(res["planted_cost"]).hex(),
        }
        tol = probe["tolerance"]
        if subject["cost"] <= bound["cost"] * (1.0 + tol):
            return []
        reason = (
            f"{probe['selector']} selected {res['selected']!r} "
            f"({res['selected_cost']:.6g}) over the planted optimum "
            f"{res['planted']!r} ({res['planted_cost']:.6g}) on a seeded "
            f"{res['candidates']}-candidate mock-up surface "
            f"(seed {probe['seed']})")
        violation = self._violation(probe, reason, subject, bound)
        violation["evidence"]["mockup"] = {
            "candidates": res["candidates"],
            "planted_index": res["planted_index"],
            "selected_index": res["selected_index"],
        }
        return [violation]


RULES = (
    MonotonicityGuideline(
        "PG-MONO-MSGSIZE", "nbytes",
        "tuned cost must not decrease when the message size doubles"),
    MonotonicityGuideline(
        "PG-MONO-NPROCS", "nprocs",
        "tuned cost must not decrease when the process count doubles"),
    MonotonicityGuideline(
        "PG-MONO-PROGRESS", "nprogress",
        "doubling the progress calls must not increase the tuned cost",
        subject_is_scaled=True),
    CompositionGuideline(
        "PG-COMP-BCAST-SCATTER-ALLGATHER", "scatter_allgather",
        "tuned Ibcast must not lose to the Iscatter+Iallgather mock-up",
        operations=("bcast",)),
    SelectionMockupGuideline(),
)

RULE_CATALOGUE = {rule.rule_id: rule for rule in RULES}


def rules_by_id(ids: Iterable[str]) -> List[Guideline]:
    """Resolve rule IDs to rule objects (unknown IDs are harness errors)."""
    out = []
    for rule_id in ids:
        rule = RULE_CATALOGUE.get(rule_id)
        if rule is None:
            raise GuidelineError(
                f"unknown guideline rule {rule_id!r}; known rules: "
                f"{', '.join(sorted(RULE_CATALOGUE))}")
        out.append(rule)
    return out
