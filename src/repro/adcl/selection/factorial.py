"""2^k factorial-design selection (§III-A, after Box/Hunter/Hunter [4]).

Unlike the one-attribute-at-a-time heuristic, the factorial design can
prune a search space with **correlated** parameters: it evaluates every
combination of two extreme *levels* (low/high) per attribute — the
first and last value of its derived domain, ``2^k`` corner points — and
computes per-attribute main effects plus the winner corner.  Each
attribute is then pinned to its better level (judged by
the mean over the corners containing it), and the function matching the
chosen levels wins; if the exact combination does not exist in the set,
the measured corner with the lowest time wins instead.

The paper notes this selector pays off for very large parameter spaces
and omits it from the evaluation; we implement it for completeness and
for the selection-logic ablation benchmark.
"""

from __future__ import annotations

import itertools
from typing import Any

from ...errors import SelectionError
from ..function import FunctionSet
from .base import Selector

__all__ = ["FactorialSelector"]


class FactorialSelector(Selector):
    """Evaluate the 2^k corner designs, pin each attribute to its better level."""

    def __init__(self, fnset: FunctionSet, evals_per_function: int = 5,
                 filter_method: str = "cluster"):
        super().__init__(fnset, evals_per_function, filter_method)
        aset = fnset.attribute_set
        if not aset:
            raise SelectionError(
                "FactorialSelector needs a function-set with attributes"
            )
        self._levels: dict[str, tuple[Any, Any]] = {
            name: (values[0], values[-1]) for name, values in aset.items()
        }
        self._corners: list[int] = []
        self._corner_values: list[dict[str, Any]] = []
        for bits in itertools.product((0, 1), repeat=len(aset)):
            values = {
                name: self._levels[name][b]
                for name, b in zip(aset, bits)
            }
            matches = fnset.subset_where(**values)
            if matches:
                self._corners.append(matches[0])
                self._corner_values.append(values)
        if not self._corners:
            raise SelectionError(
                f"no corner combination of {fnset.name!r} exists in the set"
            )
        # de-duplicate corners (single-valued attributes collapse levels)
        seen: dict[int, None] = {}
        corners, cvalues = [], []
        for c, v in zip(self._corners, self._corner_values):
            if c not in seen:
                seen[c] = None
                corners.append(c)
                cvalues.append(v)
        self._corners, self._corner_values = corners, cvalues

    # ------------------------------------------------------------------

    def function_for_iteration(self, it: int) -> int:
        if self.decided:
            return self.winner
        idx = it // self.evals_per_function
        if idx < len(self._corners):
            return self._corners[idx]
        return self._decide_from_effects(it)

    def _decide_from_effects(self, it: int) -> int:
        measured = [c for c in self._corners if self.log.count(c) > 0]
        if not measured:
            return self._corners[0]
        estimates = {c: self.log.estimate(c) for c in measured}
        chosen: dict[str, Any] = {}
        for name, (lo, hi) in self._levels.items():
            if lo == hi:
                chosen[name] = lo
                continue
            lo_times = [
                estimates[c]
                for c, v in zip(self._corners, self._corner_values)
                if c in estimates and v[name] == lo
            ]
            hi_times = [
                estimates[c]
                for c, v in zip(self._corners, self._corner_values)
                if c in estimates and v[name] == hi
            ]
            if not lo_times or not hi_times:
                chosen[name] = lo if lo_times else hi
                continue
            mean_lo = sum(lo_times) / len(lo_times)
            mean_hi = sum(hi_times) / len(hi_times)
            chosen[name] = lo if mean_lo <= mean_hi else hi
        exact = self.fnset.subset_where(**chosen)
        if exact:
            return self._decide(it, exact)
        # the level combination is not in the set: take the best corner
        return self._decide(it, measured)

    @property
    def learning_iterations(self) -> int:
        return len(self._corners) * self.evals_per_function
