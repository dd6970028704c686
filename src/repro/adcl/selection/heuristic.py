"""Attribute-based selection heuristic (§III-A, after [Gabriel & Huang]).

Assumption: the fastest implementation also has the optimal value for
every attribute *independently*.  The heuristic therefore decides one
attribute at a time, in the order of the set's derived attribute
domains (:attr:`~repro.adcl.function.FunctionSet.attribute_set`):

* round *i* evaluates the functions that share the already-decided
  attribute values (and baseline values for the not-yet-considered
  attributes) but differ in attribute *i*;
* the attribute value of the best candidate wins and all functions with
  a different value are pruned.

For the paper's ``Ibcast`` set this needs ``7 + 3 = 10`` candidates
instead of brute force's ``7 x 3 = 21`` — a materially shorter learning
phase with (empirically, §IV-A) the same decision quality.
"""

from __future__ import annotations

from typing import Optional

from ...errors import SelectionError
from ..function import FunctionSet
from .base import Selector

__all__ = ["HeuristicSelector"]


class HeuristicSelector(Selector):
    """Decide attribute-by-attribute, pruning the function pool."""

    def __init__(self, fnset: FunctionSet, evals_per_function: int = 5,
                 filter_method: str = "cluster"):
        super().__init__(fnset, evals_per_function, filter_method)
        # no attributes: degenerate to evaluating every function once
        self._attr_order = list(fnset.attribute_set or ())
        self._baseline = dict(fnset[0].attributes)
        self._decided_values: dict[str, object] = {}
        #: per-iteration plan of function indices, extended round by round
        self._plan: list[int] = []
        self._round_slices: list[tuple[int, int, Optional[str], list[int]]] = []
        self._next_attr = 0
        self._extend_plan()

    # ------------------------------------------------------------------

    def _candidates_for_attr(self, attr_name: str) -> list[int]:
        """Functions varying ``attr_name`` with other attributes pinned."""
        pinned = dict(self._baseline)
        pinned.update(self._decided_values)
        pinned.pop(attr_name, None)
        cands = self.fnset.subset_where(**pinned)
        if not cands:
            raise SelectionError(
                f"function-set {self.fnset.name!r} is not a full attribute "
                f"cross-product; cannot vary {attr_name!r} around {pinned}"
            )
        return cands

    def _extend_plan(self) -> None:
        """Append the next evaluation round to the plan."""
        if not self._attr_order:
            cands = list(range(len(self.fnset)))
            start = len(self._plan)
            for c in cands:
                self._plan.extend([c] * self.evals_per_function)
            self._round_slices.append((start, len(self._plan), None, cands))
            return
        attr_name = self._attr_order[self._next_attr]
        cands = self._candidates_for_attr(attr_name)
        start = len(self._plan)
        for c in cands:
            self._plan.extend([c] * self.evals_per_function)
        self._round_slices.append((start, len(self._plan), attr_name, cands))

    def _finish_round(self, it: int) -> int:
        """Close the current round; returns the next function index."""
        _, _, attr_name, cands = self._round_slices[-1]
        measured = [c for c in cands if self.log.count(c) > 0]
        if not measured:
            # round not yet measured at all (extreme rank skew): keep
            # using its first candidate instead of closing it blindly
            return cands[0]
        best = self.log.best(measured)
        if attr_name is None:
            return self._decide(it, measured)
        self._decided_values[attr_name] = self.fnset[best].attributes[attr_name]
        self._next_attr += 1
        if self._next_attr >= len(self._attr_order):
            final = self.fnset.subset_where(**self._decided_values)
            if not final:
                # should not happen for cross-product sets; fall back to
                # the best function measured anywhere
                final = [
                    i for i in range(len(self.fnset)) if self.log.count(i) > 0
                ]
            return self._decide(it, final)
        self._extend_plan()
        return self._plan[it] if it < len(self._plan) else self._finish_round(it)

    # ------------------------------------------------------------------

    def function_for_iteration(self, it: int) -> int:
        if self.decided:
            return self.winner
        if it < len(self._plan):
            return self._plan[it]
        return self._finish_round(it)

    def reset_learning(self) -> None:
        """Re-open tuning: restart the attribute rounds from scratch."""
        super().reset_learning()
        self._decided_values = {}
        self._plan = []
        self._round_slices = []
        self._next_attr = 0
        self._extend_plan()

    @property
    def learning_iterations(self) -> int:
        """Iterations spent learning so far (final once decided)."""
        return len(self._plan)
