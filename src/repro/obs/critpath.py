"""Critical-path profiler: where a candidate's completion time hides.

The PR-4 recorder captures *what* happened (compute / progress / wait
spans, message posts and deliveries); this module reconstructs *why an
iteration took as long as it did*: the event-dependency DAG
(send -> deliver -> wait-release -> compute edges, per rank and per
round), the dominant chain through it, and a per-category blame
attribution whose components sum exactly to the measured completion
time of the window they describe.

Everything here is a pure function of the loaded trace document: the
same trace bytes produce a byte-identical blame report, byte-identical
audit explanations and byte-identical flow overlays — the profiler
never looks at wall clocks, RNGs or process state.

Blame taxonomy (per dominant-chain segment):

``compute``
    application compute on the chain (useful work gating completion);
``progress``
    explicit progress calls on the chain (the paper's manual
    progression cost);
``progress_gap``
    tail of a wait span *after* the releasing message had already been
    delivered — time the rank spent completing/progressing the
    operation although the data had arrived (Hoefler's progression
    gap);
``network``
    post -> deliver transit of the releasing message (alpha/beta wire
    time plus any queueing behind earlier traffic);
``blocked``
    wait time with no releasing delivery inside the window — the rank
    was simply early and the chain continues on the same rank;
``serialization``
    gaps between spans on the chain (library/runtime bookkeeping
    between syscalls);
``straggler_slack``
    reported alongside (NOT part of the sum): mean idle slack of the
    non-critical ranks, i.e. how unevenly the window ended.

The send->deliver matching is positional per (src, dst) channel — the
simulator delivers in order per channel — which makes the DAG exact on
fault-free traces and a documented approximation under retransmits.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

from .schema import WORLD_TID

__all__ = [
    "analyze",
    "attach_explanations",
    "blame_categories",
    "critical_path_flow_events",
    "explain_decision",
    "overlay_critical_path",
    "render_critical_path",
]

#: microseconds; trace timestamps are virtual-time µs
_EPS = 1e-9

#: blame categories in reporting order (sum of the first six equals the
#: window's completion time exactly; slack is informational)
_CATEGORIES = ("compute", "progress", "progress_gap", "network",
               "blocked", "serialization")


def blame_categories() -> Tuple[str, ...]:
    """The blame taxonomy, in canonical reporting order."""
    return _CATEGORIES


# ---------------------------------------------------------------------------
# per-process event index
# ---------------------------------------------------------------------------


class _PidIndex:
    """Sorted per-rank spans + positional message matching for one pid."""

    __slots__ = ("spans", "span_starts", "iters", "posts", "delivers")

    def __init__(self):
        #: rank -> [(ts, end, cat)] sorted by ts
        self.spans: Dict[int, List[Tuple[float, float, str]]] = {}
        #: rank -> [ts, ...] parallel to spans (bisect key)
        self.span_starts: Dict[int, List[float]] = {}
        #: it -> rank -> (ts, end, fn)
        self.iters: Dict[int, Dict[int, Tuple[float, float, str]]] = {}
        #: (src, dst) -> [post ts, ...] in emission order
        self.posts: Dict[Tuple[int, int], List[float]] = {}
        #: dst rank -> [(ts, src, index_in_channel)] in emission order
        self.delivers: Dict[int, List[Tuple[float, int, int]]] = {}

    def freeze(self) -> None:
        for rank, spans in self.spans.items():
            spans.sort(key=lambda s: (s[0], s[1]))
            self.span_starts[rank] = [s[0] for s in spans]


def _index_events(doc: dict) -> Dict[int, _PidIndex]:
    """One :class:`_PidIndex` per Chrome pid, built in document order."""
    pids: Dict[int, _PidIndex] = {}
    channel_counts: Dict[Tuple[int, Tuple[int, int]], int] = {}
    for ev in doc.get("traceEvents", []):
        ph = ev.get("ph")
        if ph not in ("X", "i"):
            continue
        tid = ev.get("tid")
        if tid == WORLD_TID:
            continue
        pid = ev.get("pid")
        idx = pids.get(pid)
        if idx is None:
            idx = pids[pid] = _PidIndex()
        cat, name = ev.get("cat"), ev.get("name")
        ts = float(ev.get("ts", 0.0))
        if ph == "X":
            dur = float(ev.get("dur", 0.0))
            if cat in ("compute", "progress"):
                idx.spans.setdefault(tid, []).append((ts, ts + dur, cat))
            elif cat == "communication" and name == "wait":
                idx.spans.setdefault(tid, []).append((ts, ts + dur, "wait"))
            elif cat == "tuning" and name == "iteration":
                args = ev.get("args") or {}
                it = args.get("it", len(idx.iters))
                idx.iters.setdefault(int(it), {})[tid] = (
                    ts, ts + dur, str(args.get("fn", "?")))
        elif cat == "communication":
            args = ev.get("args") or {}
            if name == "msg.post" and "dst" in args:
                idx.posts.setdefault((tid, int(args["dst"])), []).append(ts)
            elif name == "msg.deliver" and "src" in args:
                src = int(args["src"])
                key = (pid, (src, tid))
                k = channel_counts.get(key, 0)
                channel_counts[key] = k + 1
                idx.delivers.setdefault(tid, []).append((ts, src, k))
    for idx in pids.values():
        idx.freeze()
    return pids


# ---------------------------------------------------------------------------
# dominant-chain walk
# ---------------------------------------------------------------------------


def _last_span_before(idx: _PidIndex, rank: int, t: float):
    """The span on ``rank`` with the largest start strictly before ``t``."""
    starts = idx.span_starts.get(rank)
    if not starts:
        return None
    i = bisect_right(starts, t - _EPS) - 1
    if i < 0:
        return None
    return idx.spans[rank][i]


def _last_deliver_in(idx: _PidIndex, rank: int, lo: float, hi: float):
    """The latest delivery instant on ``rank`` inside ``(lo, hi]``."""
    best = None
    for entry in idx.delivers.get(rank, ()):
        ts = entry[0]
        if lo + _EPS < ts <= hi + _EPS:
            if best is None or ts >= best[0]:
                best = entry
    return best


def _walk_chain(idx: _PidIndex, w0: float, w1: float,
                rank: int) -> Tuple[Dict[str, float], List[dict]]:
    """Walk the dependency chain backwards from (rank, w1) to w0.

    Returns ``(blame, chain)`` where the blame components sum to
    ``w1 - w0`` exactly and ``chain`` lists segments in forward time
    order: ``{"rank", "cat", "t0", "t1"}`` (for network hops ``rank``
    is the *receiving* rank and ``src`` carries the sender).
    """
    blame = {cat: 0.0 for cat in _CATEGORIES}
    chain: List[dict] = []

    def acc(r: int, cat: str, t0: float, t1: float, **extra) -> None:
        if t1 - t0 <= _EPS:
            return
        blame[cat] += t1 - t0
        seg = {"rank": r, "cat": cat, "t0": t0, "t1": t1}
        seg.update(extra)
        chain.append(seg)

    t, r = w1, rank
    # the guard bounds pathological traces; every loop iteration below
    # strictly decreases t, so well-formed traces terminate on their own
    for _ in range(1_000_000):
        if t - w0 <= _EPS:
            break
        span = _last_span_before(idx, r, t)
        if span is None:
            acc(r, "serialization", w0, t)
            break
        s_ts, s_end, s_cat = span
        if s_end < t - _EPS:
            # nothing covers t: runtime gap back to the previous span
            acc(r, "serialization", max(s_end, w0), t)
            t = max(s_end, w0)
            continue
        seg_start = max(s_ts, w0)
        if s_cat != "wait":
            acc(r, s_cat, seg_start, t)
            t = seg_start
            continue
        deliver = _last_deliver_in(idx, r, seg_start, t)
        if deliver is None:
            acc(r, "blocked", seg_start, t)
            t = seg_start
            continue
        d_ts, src, k = deliver
        acc(r, "progress_gap", d_ts, t)
        posts = idx.posts.get((src, r))
        if posts is not None and k < len(posts) and \
                w0 - _EPS <= posts[k] < d_ts - _EPS:
            acc(r, "network", max(posts[k], w0), d_ts, src=src)
            t, r = max(posts[k], w0), src
        else:
            # unmatched (retransmit / pre-window post): stay local
            acc(r, "blocked", seg_start, d_ts)
            t = seg_start
    chain.reverse()
    return blame, chain


# ---------------------------------------------------------------------------
# window extraction & analysis
# ---------------------------------------------------------------------------


def _mean(values: List[float]) -> float:
    """Mean summed left to right: ``sum()`` compensates float rounding
    since Python 3.12, so it would make trace bytes depend on the
    interpreter version."""
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


def _windows_for_pid(pid: int, idx: _PidIndex) -> List[dict]:
    """One analysis window per tuning iteration (or one per pid when the
    trace has no iteration spans — e.g. a bare world trace)."""
    windows: List[dict] = []
    if idx.iters:
        for it in sorted(idx.iters):
            ranks = idx.iters[it]
            w0 = min(v[0] for v in ranks.values())
            w1 = max(v[1] for v in ranks.values())
            crit = min(r for r, v in ranks.items() if v[1] >= w1 - _EPS)
            slacks = [w1 - v[1] for v in ranks.values()]
            windows.append({
                "pid": pid, "it": it,
                "fn": ranks[crit][2],
                "t0": w0, "t1": w1,
                "completion": w1 - w0,
                "critical_rank": crit,
                "straggler_slack": _mean(slacks),
                "nranks": len(ranks),
            })
        return windows
    if not idx.spans:
        return windows
    w0 = min(s[0] for spans in idx.spans.values() for s in spans)
    w1 = max(s[1] for spans in idx.spans.values() for s in spans)
    ends = {r: max(s[1] for s in spans) for r, spans in idx.spans.items()}
    crit = min(r for r, end in ends.items() if end >= w1 - _EPS)
    slacks = [w1 - end for end in ends.values()]
    windows.append({
        "pid": pid, "it": None, "fn": f"pid {pid}",
        "t0": w0, "t1": w1, "completion": w1 - w0,
        "critical_rank": crit,
        "straggler_slack": _mean(slacks),
        "nranks": len(ends),
    })
    return windows


def analyze(doc: dict) -> dict:
    """Full critical-path analysis of a loaded trace document.

    Returns ``{"windows": [...], "candidates": {...}, "winner": ...}``.
    Each window carries its blame attribution (components summing to
    its completion time) and dominant chain; candidates aggregate the
    windows by candidate name.  Pure and deterministic.
    """
    pids = _index_events(doc)
    windows: List[dict] = []
    for pid in sorted(pids):
        idx = pids[pid]
        for win in _windows_for_pid(pid, idx):
            blame, chain = _walk_chain(idx, win["t0"], win["t1"],
                                       win["critical_rank"])
            win["blame"] = blame
            win["chain"] = chain
            windows.append(win)

    candidates: Dict[str, dict] = {}
    for win in windows:
        agg = candidates.setdefault(win["fn"], {
            "n": 0, "completion": 0.0, "straggler_slack": 0.0,
            "blame": {cat: 0.0 for cat in _CATEGORIES},
        })
        agg["n"] += 1
        agg["completion"] += win["completion"]
        agg["straggler_slack"] += win["straggler_slack"]
        for cat in _CATEGORIES:
            agg["blame"][cat] += win["blame"][cat]
    for agg in candidates.values():
        agg["mean_completion"] = agg["completion"] / agg["n"]

    winner = None
    for entry in reversed(doc.get("repro", {}).get("audit", [])):
        if isinstance(entry, dict) and entry.get("kind") == "decision":
            winner = entry.get("name")
            break
    return {"windows": windows, "candidates": candidates, "winner": winner}


# ---------------------------------------------------------------------------
# audit explanations ("why this candidate won/lost")
# ---------------------------------------------------------------------------


def explain_decision(analysis: dict) -> List[dict]:
    """Deterministic audit entries explaining the decision.

    One ``kind="explanation"`` entry per candidate, ordered by mean
    completion (fastest first), naming the dominant blame category and
    the margin to the winner.  Floats carry ``.hex()`` twins so the
    entries survive JSON round-trips bit-exactly.
    """
    candidates = analysis["candidates"]
    if not candidates:
        return []
    order = sorted(candidates,
                   key=lambda fn: (candidates[fn]["mean_completion"], fn))
    winner = analysis.get("winner")
    if winner not in candidates:
        winner = order[0]
    best = candidates[winner]["mean_completion"]
    entries: List[dict] = []
    for fn in order:
        agg = candidates[fn]
        mean = agg["mean_completion"]
        dominant = max(_CATEGORIES, key=lambda c: (agg["blame"][c], c))
        share = (agg["blame"][dominant] / agg["completion"]
                 if agg["completion"] > 0 else 0.0)
        if fn == winner:
            reason = (f"won: fastest mean completion "
                      f"{mean / 1e3:.3f} ms over {agg['n']} window(s); "
                      f"critical path dominated by {dominant} "
                      f"({share * 100:.1f}%)")
        else:
            margin = mean - best
            rel = margin / best * 100 if best > 0 else 0.0
            reason = (f"lost to {winner!r} by {margin / 1e3:+.3f} ms "
                      f"({rel:+.1f}%); critical path dominated by "
                      f"{dominant} ({share * 100:.1f}%)")
        entries.append({
            "kind": "explanation", "component": "critpath",
            "name": fn, "won": fn == winner,
            "n": agg["n"],
            "mean_completion_us": mean,
            "mean_completion_us_hex": float(mean).hex(),
            "dominant": dominant,
            "dominant_share": share,
            "straggler_slack_us": agg["straggler_slack"] / agg["n"],
            "reason": reason,
        })
    return entries


def attach_explanations(doc: dict) -> List[dict]:
    """Append the decision explanations to the document's audit log.

    Idempotent: a document that already carries critpath explanations
    is left unchanged.  Returns the entries now present.
    """
    audit = doc.setdefault("repro", {}).setdefault("audit", [])
    existing = [e for e in audit if isinstance(e, dict)
                and e.get("kind") == "explanation"
                and e.get("component") == "critpath"]
    if existing:
        return existing
    entries = explain_decision(analyze(doc))
    audit.extend(entries)
    return entries


# ---------------------------------------------------------------------------
# Perfetto flow-event overlay
# ---------------------------------------------------------------------------


def critical_path_flow_events(doc: dict,
                              analysis: Optional[dict] = None) -> List[dict]:
    """Flow arrows (ph ``s``/``f``) along every window's dominant chain.

    One arrow per cross-rank hop (the ``network`` segments): start on
    the sender's track at post time, finish on the receiver's track at
    delivery time.  Load the overlaid document in Perfetto to see the
    chain drawn through the timeline.
    """
    if analysis is None:
        analysis = analyze(doc)
    flows: List[dict] = []
    flow_id = 0
    for win in analysis["windows"]:
        for seg in win["chain"]:
            if seg["cat"] != "network" or "src" not in seg:
                continue
            flow_id += 1
            common = {"cat": "critpath", "name": "crit",
                      "id": flow_id, "pid": win["pid"]}
            flows.append(dict(common, ph="s", tid=seg["src"],
                              ts=seg["t0"]))
            flows.append(dict(common, ph="f", bp="e", tid=seg["rank"],
                              ts=seg["t1"]))
    return flows


def overlay_critical_path(doc: dict) -> dict:
    """A copy of ``doc`` with the flow-event overlay appended (and the
    decision explanations attached to its audit log)."""
    analysis = analyze(doc)
    out = dict(doc)
    out["traceEvents"] = list(doc.get("traceEvents", [])) + \
        critical_path_flow_events(doc, analysis)
    out["repro"] = dict(doc.get("repro", {}))
    out["repro"]["audit"] = list(out["repro"].get("audit", []))
    existing = [e for e in out["repro"]["audit"] if isinstance(e, dict)
                and e.get("kind") == "explanation"
                and e.get("component") == "critpath"]
    if not existing:
        out["repro"]["audit"].extend(explain_decision(analysis))
    return out


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _render_chain(chain: List[dict]) -> str:
    """Compact one-line rendering of the chain's last 12 segments
    (forward time order)."""
    parts = []
    for seg in chain[-12:]:
        ms = (seg["t1"] - seg["t0"]) / 1e3
        if seg["cat"] == "network":
            parts.append(f"r{seg.get('src', '?')}->r{seg['rank']} "
                         f"network {ms:.3f}ms")
        else:
            parts.append(f"r{seg['rank']} {seg['cat']} {ms:.3f}ms")
    prefix = "... -> " if len(chain) > 12 else ""
    return prefix + " -> ".join(parts)


def render_critical_path(doc: dict, analysis: Optional[dict] = None) -> str:
    """The ``repro report --critical-path`` section (deterministic)."""
    if analysis is None:
        analysis = analyze(doc)
    lines: List[str] = []
    candidates = analysis["candidates"]
    if not candidates:
        return ("critical path: no rank spans in this trace "
                "(record with --trace)")
    lines.append("critical-path blame per candidate "
                 "(ms of virtual time on the dominant chain):")
    header = (f"  {'candidate':<24} {'n':>3} {'complete':>9} "
              + " ".join(f"{cat[:9]:>9}" for cat in _CATEGORIES)
              + f" {'slack':>9}")
    lines.append(header)
    order = sorted(candidates,
                   key=lambda fn: (candidates[fn]["mean_completion"], fn))
    for fn in order:
        agg = candidates[fn]
        n = agg["n"]
        cells = " ".join(f"{agg['blame'][cat] / n / 1e3:>9.3f}"
                         for cat in _CATEGORIES)
        lines.append(f"  {fn:<24} {n:>3} "
                     f"{agg['mean_completion'] / 1e3:>9.3f} {cells} "
                     f"{agg['straggler_slack'] / n / 1e3:>9.3f}")
    lines.append("  (complete = mean window completion; the six blame "
                 "columns sum to it; slack = mean straggler idle)")

    lines.append("")
    lines.append("why the decision went this way:")
    for entry in explain_decision(analysis):
        lines.append(f"  {entry['name']:<24} {entry['reason']}")

    slowest = max(analysis["windows"],
                  key=lambda w: (w["completion"], w["pid"]),
                  default=None)
    if slowest is not None and slowest["chain"]:
        lines.append("")
        what = (f"iteration {slowest['it']}" if slowest["it"] is not None
                else "window")
        lines.append(f"dominant chain of the slowest window "
                     f"({slowest['fn']!r}, {what}, "
                     f"{slowest['completion'] / 1e3:.3f} ms):")
        lines.append(f"  {_render_chain(slowest['chain'])}")
    return "\n".join(lines)
