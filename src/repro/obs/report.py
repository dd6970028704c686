"""Turn a trace file into a human-readable report.

Backs the ``repro report`` CLI subcommand: per-rank busy/idle breakdown,
overlap ratio per tuning candidate, and the ADCL decision narrative,
with an optional ASCII timeline.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from .audit import AuditLog
from .critpath import render_critical_path
from .export import render_timeline
from .schema import WORLD_TID, validate_trace

__all__ = ["batched_syscalls_in", "load_trace", "overlap_by_candidate",
           "render_report"]

_US = 1e6


def load_trace(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _rank_events(doc: dict) -> Dict[Tuple[int, int], List[dict]]:
    """X-events grouped by (pid, tid), excluding the world track."""
    lanes: Dict[Tuple[int, int], List[dict]] = {}
    for e in doc.get("traceEvents", []):
        if e.get("ph") != "X" or e.get("tid") == WORLD_TID:
            continue
        lanes.setdefault((e["pid"], e["tid"]), []).append(e)
    return lanes


def busy_idle_table(doc: dict) -> List[dict]:
    """Per-(pid, rank) time split: compute / progress / wait / idle."""
    rows: List[dict] = []
    for (pid, tid), events in sorted(_rank_events(doc).items()):
        t0 = min(e["ts"] for e in events)
        t1 = max(e["ts"] + e["dur"] for e in events)
        by_cat = {"compute": 0.0, "progress": 0.0, "communication": 0.0}
        for e in events:
            if e["cat"] in by_cat:
                by_cat[e["cat"]] += e["dur"]
        span = t1 - t0
        busy = by_cat["compute"] + by_cat["progress"]
        idle = max(span - busy - by_cat["communication"], 0.0)
        rows.append({
            "pid": pid, "rank": tid, "span": span,
            "compute": by_cat["compute"], "progress": by_cat["progress"],
            "wait": by_cat["communication"], "idle": idle,
            "busy_frac": busy / span if span > 0 else 0.0,
        })
    return rows


def overlap_by_candidate(doc: dict) -> Dict[str, dict]:
    """Overlap ratio per candidate: compute time inside each tuning
    ``iteration`` span divided by the span's duration, averaged over all
    (rank, iteration) pairs that ran that candidate."""
    acc: Dict[str, List[float]] = {}
    for (_, _), events in _rank_events(doc).items():
        computes = sorted((e["ts"], e["dur"]) for e in events
                          if e["cat"] == "compute")
        iters = sorted((e["ts"], e["dur"], e.get("args", {}).get("fn", "?"))
                       for e in events
                       if e["cat"] == "tuning" and e["name"] == "iteration")
        ci = 0
        for ts, dur, fn in iters:
            if dur <= 0:
                continue
            end = ts + dur
            while ci < len(computes) and computes[ci][0] + computes[ci][1] <= ts:
                ci += 1
            inside = 0.0
            j = ci
            while j < len(computes) and computes[j][0] < end:
                cts, cdur = computes[j]
                inside += min(cts + cdur, end) - max(cts, ts)
                j += 1
            acc.setdefault(fn, []).append(inside / dur)
    return {fn: {"ratio": sum(v) / len(v), "n": len(v)}
            for fn, v in sorted(acc.items())}


def batched_syscalls_in(doc: dict) -> int:
    """The fast-lane ``batched_syscalls`` count carried by a trace.

    Prefers the metrics snapshot (``engine.batched_syscalls``); falls
    back to the per-run engine instants' args.  The count is cumulative
    per engine, so events take the max, not the sum.
    """
    metrics = doc.get("repro", {}).get("metrics", {})
    m = metrics.get("engine.batched_syscalls")
    if isinstance(m, dict) and m.get("type") in ("counter", "gauge"):
        return int(m.get("value", 0))
    batched = 0
    for e in doc.get("traceEvents", []):
        if e.get("cat") == "engine" and e.get("name") in ("run",
                                                          "fastlane.batch"):
            args = e.get("args") or {}
            batched = max(batched, int(args.get("batched_syscalls", 0)))
    return batched


def render_report(doc: dict, timeline: bool = False, width: int = 100,
                  critical_path: bool = False) -> str:
    """Full report text (assumes the document already validated)."""
    lines: List[str] = []
    repro = doc.get("repro", {})
    if repro.get("scenario"):
        lines.append(f"scenario: {repro['scenario']}")
    lines.append(f"trace schema {repro.get('schema')}, "
                 f"{len(doc.get('traceEvents', []))} events, "
                 f"{len(repro.get('worlds', []))} process track(s)")

    rows = busy_idle_table(doc)
    if rows:
        lines.append("")
        lines.append("per-rank busy/idle breakdown (ms of virtual time):")
        lines.append(f"  {'proc':>4} {'rank':>4} {'compute':>9} {'progress':>9} "
                     f"{'wait':>9} {'idle':>9} {'busy%':>6}")
        for r in rows:
            lines.append(
                f"  {r['pid']:>4} {r['rank']:>4}"
                f" {r['compute'] / _US * 1e3:>9.3f}"
                f" {r['progress'] / _US * 1e3:>9.3f}"
                f" {r['wait'] / _US * 1e3:>9.3f}"
                f" {r['idle'] / _US * 1e3:>9.3f}"
                f" {r['busy_frac'] * 100:>5.1f}%")

    overlap = overlap_by_candidate(doc)
    lines.append("")
    if overlap:
        lines.append("overlap ratio per candidate (compute inside iteration / "
                     "iteration span):")
        for fn, stats in overlap.items():
            lines.append(f"  {fn:<24} {stats['ratio'] * 100:>5.1f}%  "
                         f"({stats['n']} rank-iterations)")
    else:
        lines.append("overlap ratio per candidate: no tuning iteration spans "
                     "in this trace")

    batched = batched_syscalls_in(doc)
    if batched:
        lines.append(f"fast lane: {batched} batched syscall flush(es)")
    else:
        lines.append("fast lane: 0 batched syscalls (the degenerate-topology "
                     "fast lane disarms itself while tracing)")

    if critical_path:
        lines.append("")
        for ln in render_critical_path(doc).splitlines():
            lines.append(ln)

    lines.append("")
    lines.append("decision narrative:")
    audit = AuditLog.from_json(repro.get("audit", []))
    for ln in audit.narrative().splitlines():
        lines.append(f"  {ln}")

    metrics = repro.get("metrics", {})
    if metrics:
        lines.append("")
        lines.append("metrics:")
        for name in sorted(metrics):
            m = metrics[name]
            if m["type"] == "histogram":
                mean = m["sum"] / m["total"] if m["total"] else 0.0
                lines.append(f"  {name:<40} n={m['total']} mean={mean:.3e}")
            else:
                lines.append(f"  {name:<40} {m['value']}")

    if timeline:
        lines.append("")
        lines.append(render_timeline(doc, width=width))
    return "\n".join(lines)


def validate_or_errors(path: str) -> Tuple[dict, List[str]]:
    """Load + validate in one step (shared by the CLI and CI smoke).

    On top of the trace schema, guideline defect reports embedded in
    the audit log (``kind="defect"``, ``component="guidelines"``) are
    validated against the guideline-defect schema — fingerprints must
    recompute, cost hex twins must match — so a hand-edited or torn
    defect trail fails ``repro report --validate`` like any other
    schema violation.
    """
    try:
        doc = load_trace(path)
    except (OSError, json.JSONDecodeError) as exc:
        return {}, [f"cannot load {path}: {exc}"]
    errors = validate_trace(doc)
    audit = doc.get("repro", {}).get("audit", [])
    if isinstance(audit, list):
        for i, entry in enumerate(audit):
            if not isinstance(entry, dict) or \
                    entry.get("kind") != "defect" or \
                    entry.get("component") != "guidelines":
                continue
            from ..guidelines.defects import validate_defect
            errors.extend(f"audit[{i}]: {e}" for e in validate_defect(entry))
    return doc, errors
