"""Canonical tuning requests and the shared decision function.

The whole service contract hangs on one property: the daemon and a
degraded client must produce **bit-identical** decisions for the same
request.  Both therefore funnel through :func:`compute_decision` — a
pure function from a *normalized* request to a decision dict whose
float fields carry ``float.hex()`` twins (the PR-3 fidelity
convention), running the same deterministic simulation either side of
the socket.

A request is a plain JSON-able dict of scenario fields
(:data:`REQUEST_DEFAULTS`); :func:`normalize_request` fills defaults,
validates types and rejects unknown fields, and :func:`request_key`
derives the canonical string identity used for knowledge-base
sharding, WAL records and coalescing.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional

from ..adcl.history import history_key as adcl_history_key
from ..bench.overlap import (
    OPERATION_KINDS,
    function_set_for,
    normalize_scenario,
    run_overlap,
    scenario_config,
)
from ..errors import ServeError
from ..util.canonical import canonical_json

__all__ = [
    "REQUEST_DEFAULTS",
    "compute_decision",
    "geometry_distance",
    "history_key",
    "normalize_request",
    "request_key",
]

#: every field a tuning request may carry, with its default (the
#: ``repro tune``/``sweep`` scenario flags take their defaults from here,
#: so a flag-less `tune --serve` asks for the default request)
REQUEST_DEFAULTS: Dict[str, Any] = {
    "platform": "whale",
    "operation": "alltoall",
    "nprocs": 16,
    "nbytes": 64 * 1024,
    "compute_total": 10.0,
    "paper_iterations": 1000,
    "iterations": 20,
    "nprogress": 5,
    "selector": "brute_force",
    "evals": 3,
    "seed": 0,
    #: bumped by the daemon's drift-triggered background re-tune; a
    #: fresh client request is always epoch 0, so degraded-client and
    #: server-mode decisions stay bit-identical
    "epoch": 0,
}


def normalize_request(fields: Optional[dict]) -> dict:
    """Validated request with defaults filled, in canonical field order.

    Raises :class:`~repro.errors.ServeError` on unknown fields, type
    mismatches or values no simulation can run — the daemon turns that
    into a typed ``err`` reply rather than computing garbage.
    """
    return normalize_scenario(fields, REQUEST_DEFAULTS, ServeError,
                              "tuning-request")


def request_key(req: dict) -> str:
    """Canonical string identity of a normalized request.

    Stable across processes and sessions (sorted keys, no whitespace)
    — the knowledge-base / WAL / cache / coalescing key.
    """
    return f"tune:{canonical_json(req, strict=True)}"


def history_key(req: dict) -> str:
    """The :class:`~repro.adcl.request.ADCLRequest` history key this
    request's decision would be stored under by a local tuner
    (``fnset@platform:kind:P..:B..:R..``) — the bridge between the
    service's knowledge base and ADCL historic learning."""
    op = req["operation"]
    return adcl_history_key(function_set_for(op).name, req["platform"],
                            OPERATION_KINDS[op], req["nprocs"],
                            req["nbytes"], 0)


def compute_decision(req: dict) -> dict:
    """Run the tuning scenario and reduce it to a bit-exact decision.

    Deterministic: the same normalized request yields the same dict in
    any process — which is what makes a degraded client's local
    fallback indistinguishable from a daemon-computed answer.  Raises
    :class:`~repro.errors.ServeError` when the scenario does not reach
    a decision (too few iterations for the candidate count), because a
    knowledge base must never cache "no answer" as an answer.
    """
    # a drift re-tune (epoch > 0) re-measures under a fresh seed
    cfg = scenario_config(req, req["seed"] + 0x5EED * req["epoch"])
    res = run_overlap(cfg, selector=req["selector"],
                      evals_per_function=req["evals"])
    if res.winner is None:
        fnset = function_set_for(req["operation"])
        raise ServeError(
            f"scenario reached no decision: {req['iterations']} iterations "
            f"cannot cover {len(fnset)} candidates x {req['evals']} evals; "
            f"increase 'iterations'"
        )
    steady = res.mean_after_learning()
    return {
        "winner": res.winner,
        "decided_at": res.decided_at,
        "mean_iteration": res.mean_iteration,
        "mean_iteration_hex": float(res.mean_iteration).hex(),
        "mean_after_learning": steady,
        "mean_after_learning_hex": float(steady).hex(),
        "events": res.events,
    }


def geometry_distance(a: dict, b: dict) -> float:
    """Log-scale distance between two requests' geometries.

    Used for nearest-geometry warm starts: two scenarios are close when
    their process counts and message sizes differ by small *factors*
    (the survey's observation that winners are stable across nearby
    geometries, not nearby byte counts).
    """
    return (abs(math.log2(a["nprocs"] / b["nprocs"]))
            + abs(math.log2(a["nbytes"] / b["nbytes"])))
