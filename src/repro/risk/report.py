"""``repro risk-report`` — one page of durable risk-loop state.

Everything rendered here is read from disk (queue segments + cursor,
snapshot calibration, worker history), so the report works on a live
deployment, after a crash, or in a post-mortem — no running process
required.  In-process ``risk.*`` registry counters are appended when the
caller happens to share a process with the router.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..artifacts import ArtifactStore
from ..telemetry import REGISTRY
from .adapt import HISTORY_NAME
from .calibration import load_calibrator
from .queue import ReviewQueue


def risk_summary(queue_dir: Union[str, Path],
                 snapshot: Union[str, Path, None] = None,
                 workdir: Union[str, Path, None] = None) -> Dict[str, Any]:
    """Structured risk-loop state (the dict ``format_risk_report`` renders)."""
    queue = ReviewQueue(queue_dir)
    summary: Dict[str, Any] = {"queue": queue.stats()}
    if snapshot is not None:
        store = ArtifactStore(Path(snapshot))
        calibrator = load_calibrator(store)
        summary["snapshot"] = {
            "directory": str(snapshot),
            "digest": store.manifest_digest(),
            "calibration": calibrator.to_json() if calibrator else None,
        }
    if workdir is not None:
        history: List[Dict[str, Any]] = []
        try:
            text = ArtifactStore(Path(workdir)).read(
                HISTORY_NAME, lambda p: p.read_text())
            history = [json.loads(line) for line in text.splitlines()
                       if line.strip()]
        except FileNotFoundError:
            pass
        by_status: Dict[str, int] = {}
        for entry in history:
            by_status[entry.get("status", "?")] = (
                by_status.get(entry.get("status", "?"), 0) + 1)
        summary["adaptation"] = {"cycles": len(history),
                                 "by_status": by_status,
                                 "recent": history[-5:]}
    counters = {name: value for name, value in REGISTRY.snapshot().items()
                if name.startswith("risk.") and isinstance(value,
                                                           (int, float))}
    if counters:
        summary["counters"] = counters
    return summary


def format_risk_report(summary: Dict[str, Any]) -> str:
    """Human-readable rendering of :func:`risk_summary`."""
    lines = ["risk loop", "========="]
    queue = summary["queue"]
    lines.append(f"review queue      {queue['directory']}")
    lines.append(f"  pending         {queue['pending']}")
    lines.append(f"  acked through   seq {queue['acked_through']}")
    lines.append(f"  segments        {queue['segments']}")
    corrupt = queue["corrupt_segments"]
    lines.append(f"  corrupt         {len(corrupt)}"
                 + (f" ({', '.join(corrupt)})" if corrupt else ""))
    snapshot = summary.get("snapshot")
    if snapshot is not None:
        lines.append(f"snapshot          {snapshot['directory']}")
        lines.append(f"  digest          {snapshot['digest'][:16]}...")
        calibration = snapshot["calibration"]
        if calibration is None:
            lines.append("  calibration     (none — serving raw "
                         "probabilities)")
        else:
            lines.append(
                f"  calibration     {calibration['method']} "
                f"a={calibration['a']:.4f} b={calibration['b']:.4f} "
                f"({calibration['num_pairs']} pairs)")
            lines.append(
                f"  ece             {calibration['ece_before']:.4f} -> "
                f"{calibration['ece_after']:.4f}")
    adaptation = summary.get("adaptation")
    if adaptation is not None:
        lines.append(f"re-adaptation     {adaptation['cycles']} cycle(s)")
        for status, count in sorted(adaptation["by_status"].items()):
            lines.append(f"  {status:<15} {count}")
        for entry in adaptation["recent"]:
            detail = ""
            if "candidate_f1" in entry:
                detail = (f"  F1 {entry['candidate_f1']:.4f} vs floor "
                          f"{entry['f1_floor']:.4f}")
            lines.append(f"  cycle {entry['cycle']}: {entry['status']}"
                         f" ({entry['items']} items){detail}")
    counters = summary.get("counters")
    if counters:
        lines.append("counters")
        for name, value in sorted(counters.items()):
            lines.append(f"  {name:<28} {value}")
    return "\n".join(lines)


__all__ = ["format_risk_report", "risk_summary"]
