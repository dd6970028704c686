"""ADCL decision audit log.

Records *why* the tuner did what it did: every candidate selection and
measurement, quarantine verdicts, re-tune (drift) events, and the final
decision together with its evidence — per-candidate sample counts,
outlier-filter keep/discard verdicts and the resulting estimates.

Entries are plain JSON-able dicts appended in event order.  The hooks
live inside ``ADCLRequest`` on code paths traversed both by live runs
and by ``ADCLRequest.replay`` (the PR-2 journal), so an audit log can be
reconstructed bit-identically from a checkpointed journal alone.
"""

from __future__ import annotations

from typing import List, Optional

__all__ = ["AuditLog"]


class AuditLog:
    """Append-only log of tuning decisions with a narrative renderer."""

    def __init__(self):
        self.entries: List[dict] = []

    # -- hooks (called from adcl/request.py) --------------------------------

    def selection(self, iteration: int, fn_index: int, fn_name: str,
                  learning: bool) -> None:
        self.entries.append({
            "kind": "selection", "it": iteration, "fn": fn_index,
            "name": fn_name, "learning": learning,
        })

    def measurement(self, iteration: int, fn_index: int, fn_name: str,
                    seconds: float) -> None:
        self.entries.append({
            "kind": "measurement", "it": iteration, "fn": fn_index,
            "name": fn_name, "seconds": seconds,
        })

    def quarantine(self, fn_index: int, fn_name: str, reason: str) -> None:
        self.entries.append({
            "kind": "quarantine", "fn": fn_index, "name": fn_name,
            "reason": reason,
        })

    def retune(self, iteration: int) -> None:
        self.entries.append({"kind": "retune", "it": iteration})

    def decision(self, iteration: int, fn_index: int, fn_name: str,
                 evidence: List[dict]) -> None:
        """Record the winner; ``evidence`` is one dict per candidate with
        sample counts, outlier keep/discard verdicts and the estimate."""
        self.entries.append({
            "kind": "decision", "it": iteration, "fn": fn_index,
            "name": fn_name, "evidence": evidence,
        })

    def defect(self, component: str, key: str, reason: str,
               **extra) -> None:
        """Record a machine-readable defect report.

        Used by subsystems outside the tuner proper — e.g. the sweep
        fabric quarantining a poison task (a task that killed several
        workers) or flagging a determinism violation between duplicate
        executions.  ``extra`` fields must be JSON-able.
        """
        entry = {"kind": "defect", "component": component, "key": key,
                 "reason": reason}
        entry.update(extra)
        self.entries.append(entry)

    def defects(self) -> List[dict]:
        return [e for e in self.entries if e["kind"] == "defect"]

    # -- accessors ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    def to_json(self) -> List[dict]:
        return list(self.entries)

    @classmethod
    def from_json(cls, entries: List[dict]) -> "AuditLog":
        log = cls()
        log.entries = [dict(e) for e in entries]
        return log

    def final_decision(self) -> Optional[dict]:
        for e in reversed(self.entries):
            if e["kind"] == "decision":
                return e
        return None

    # -- rendering ----------------------------------------------------------

    def narrative(self) -> str:
        """Human-readable decision narrative.

        Individual measurements are summarised as a count (they can run
        to thousands of lines).
        """
        lines: List[str] = []
        n_meas = 0
        for e in self.entries:
            kind = e["kind"]
            if kind == "measurement":
                n_meas += 1
                continue
            if kind == "selection":
                continue  # implied by the measurement feed
            if kind == "quarantine":
                lines.append(f"quarantined {e['name']!r}: {e['reason']}")
            elif kind == "defect":
                lines.append(f"defect [{e.get('component', '?')}] "
                             f"{e.get('key', '?')}: {e['reason']}")
            elif kind == "explanation":
                lines.append(f"critical path for {e.get('name', '?')!r}: "
                             f"{e.get('reason', '')}")
            elif kind == "retune":
                lines.append(f"drift detected at iteration {e['it']}: "
                             f"tuning re-opened")
            elif kind == "decision":
                lines.append(f"decision at iteration {e['it']}: "
                             f"winner {e['name']!r}")
                for ev in e.get("evidence", []):
                    parts = [f"  - {ev['name']!r}: {ev.get('n', 0)} samples"]
                    if "kept" in ev:
                        parts.append(f", kept {ev['kept']}, "
                                     f"discarded {ev['discarded']} as outliers")
                    if "estimate" in ev:
                        parts.append(f"; estimate {ev['estimate'] * 1e3:.3f} ms")
                    if "quarantined" in ev:
                        parts.append(f" [quarantined: {ev['quarantined']}]")
                    if ev.get("winner"):
                        parts.append("  <== winner")
                    lines.append("".join(parts))
        header = (f"{n_meas} candidate measurements recorded"
                  if n_meas else "no candidate measurements recorded")
        if not lines:
            return header + "; no decision events"
        return header + "\n" + "\n".join(lines)
