"""Synthetic mock-up function-sets with seeded, *known* costs.

The paper-style trick for validating selection logic (not just
measurements): build a function-set whose per-candidate costs are a
known table, plant one candidate strictly cheaper than every other,
and drive a real selector over the table offline
(:meth:`~repro.adcl.selection.base.Selector.run_offline`).  Brute force
must always find the planted candidate; the attribute heuristic only
finds it when its independence assumption holds on the (deliberately
non-separable) cost surface — which is exactly what the
``PG-SELECT-MOCKUP`` guideline probes, seed by seed.

The synthetic candidates are never executed: their makers raise.  Cost
surfaces are seeded with :class:`random.Random`, so the same probe seed
reproduces the same surface, the same planted candidate, and the same
selection outcome in every process.
"""

from __future__ import annotations

import itertools
import random
from typing import List, Sequence, Tuple

from ..adcl.function import CollFunction, FunctionSet
from ..adcl.request import make_selector
from ..errors import GuidelineError

__all__ = [
    "MOCKUP_LEVELS",
    "plant_and_select",
    "synthetic_function_set",
]

#: attribute grid of the synthetic set: two attributes, three levels
#: each — small enough that every selector decides in a handful of
#: rounds, rich enough that non-separable surfaces defeat the heuristic
MOCKUP_LEVELS = (3, 3)

#: planted candidate's cost as a fraction of the runner-up minimum
PLANT_FACTOR = 0.8


def _never_run(ctx, spec, buffers):
    raise GuidelineError(
        "synthetic mock-up candidates carry known costs and are never "
        "executed")


def synthetic_function_set(
    seed: int, levels: Sequence[int] = MOCKUP_LEVELS,
) -> Tuple[FunctionSet, List[float], int]:
    """A seeded function-set with a known cost table and a planted optimum.

    Returns ``(fnset, costs, planted_index)``.  Costs are
    ``1 + Σ w_i(v_i) + x(cell)``: separable per-attribute weights plus a
    per-cell interaction term, both drawn from ``seed`` — so attribute
    independence genuinely fails on most surfaces.  The planted cell's
    cost is then forced to :data:`PLANT_FACTOR` times the minimum of
    the rest, making it strictly optimal by construction.
    """
    if len(levels) < 1 or any(n < 2 for n in levels):
        raise GuidelineError(
            f"mock-up attribute levels must each be >= 2, got {levels!r}")
    rng = random.Random(seed)
    weights = [[rng.uniform(0.0, 0.5) for _ in range(n)] for n in levels]
    cells = list(itertools.product(*[range(n) for n in levels]))
    costs = [
        1.0 + sum(weights[i][v] for i, v in enumerate(cell))
        + rng.uniform(0.0, 0.6)
        for cell in cells
    ]
    planted_index = rng.randrange(len(cells))
    costs[planted_index] = PLANT_FACTOR * min(costs)

    functions = [
        CollFunction(
            name="cand_" + "_".join(f"a{i}{v}" for i, v in enumerate(cell)),
            maker=_never_run,
            attributes={f"a{i}": v for i, v in enumerate(cell)},
        )
        for cell in cells
    ]
    return FunctionSet("guideline_mockup", functions), costs, planted_index


def plant_and_select(probe: dict) -> dict:
    """Run the probe's selector over a seeded planted-optimum surface.

    Pure selection-logic execution: no simulation, no timing — the
    outcome depends only on ``probe['seed']``, ``probe['selector']``
    and ``probe['evals']``.
    """
    fnset, costs, planted = synthetic_function_set(probe["seed"])
    selector = make_selector(probe["selector"], fnset,
                             evals_per_function=probe["evals"])
    winner = selector.run_offline(costs)
    return {
        "candidates": len(fnset),
        "selected_index": winner,
        "selected": fnset[winner].name,
        "selected_cost": costs[winner],
        "planted_index": planted,
        "planted": fnset[planted].name,
        "planted_cost": costs[planted],
        "decided_at": selector.decided_at,
    }
