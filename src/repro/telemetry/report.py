"""Load and pretty-print exported trace files (``repro trace-summary``).

A trace file is JSONL: one header record, then span/event records in finish
order, then optional ``op`` aggregates (autograd profiler) and one optional
``metrics`` record (registry snapshot).  This module reconstructs the span
tree from parent ids and renders it with durations, collapsing long runs of
same-named siblings (hundreds of ``train.step`` spans become one summary
line) so a summary stays readable at any scale.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from .trace import DEFAULT_TRACE_DIR, TRACE_SUFFIX

#: Siblings of one name shown individually before collapsing into a rollup.
MAX_SIBLINGS = 8


def resolve_trace_path(run: Union[str, Path],
                       trace_dir: Union[str, Path] = DEFAULT_TRACE_DIR
                       ) -> Path:
    """Turn a run name or path into a readable trace file path.

    Accepts a direct path to a ``*.trace.jsonl`` file, or a bare run id
    that is looked up under ``trace_dir``.
    """
    direct = Path(run)
    if direct.is_file():
        return direct
    candidate = Path(trace_dir) / f"{run}{TRACE_SUFFIX}"
    if candidate.is_file():
        return candidate
    raise FileNotFoundError(
        f"no trace found: neither {direct} nor {candidate} exists "
        f"(run `adapt --telemetry` first, or pass the path of a trace "
        f"that `python -m perf run --trace` wrote)")


def load_trace(path: Union[str, Path]) -> Dict[str, Any]:
    """Parse a trace file into ``{header, spans, ops, metrics}``."""
    header: Dict[str, Any] = {}
    spans: List[Dict[str, Any]] = []
    ops: List[Dict[str, Any]] = []
    metrics: Optional[Dict[str, Any]] = None
    for line_no, line in enumerate(
            Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{line_no}: bad trace record: {exc}")
        kind = record.get("type")
        if kind == "header":
            header = record
        elif kind in ("span", "event"):
            spans.append(record)
        elif kind == "op":
            ops.append(record)
        elif kind == "metrics":
            metrics = record.get("metrics", {})
    return {"header": header, "spans": spans, "ops": ops, "metrics": metrics}


def _attr_text(attrs: Dict[str, Any]) -> str:
    if not attrs:
        return ""
    parts = []
    for key in sorted(attrs):
        value = attrs[key]
        if isinstance(value, float):
            value = f"{value:.4g}"
        parts.append(f"{key}={value}")
    return " [" + " ".join(parts) + "]"


def _render(span: Dict[str, Any], children: Dict[str, List[Dict[str, Any]]],
            depth: int, lines: List[str]) -> None:
    indent = "  " * depth
    marker = "· " if span.get("type") == "event" else ""
    duration = span.get("duration", 0.0)
    timing = "" if span.get("type") == "event" else f"  {duration * 1e3:.1f} ms"
    lines.append(f"{indent}{marker}{span['name']}"
                 f"{_attr_text(span.get('attrs') or {})}{timing}")
    kids = sorted(children.get(span.get("id"), []),
                  key=lambda s: s.get("start", 0.0))
    by_name: Dict[str, List[Dict[str, Any]]] = {}
    for kid in kids:
        by_name.setdefault(kid["name"], []).append(kid)
    for kid in kids:
        group = by_name[kid["name"]]
        if len(group) <= MAX_SIBLINGS:
            _render(kid, children, depth + 1, lines)
            continue
        position = group.index(kid)
        if position < MAX_SIBLINGS - 1:
            _render(kid, children, depth + 1, lines)
        elif position == MAX_SIBLINGS - 1:
            rest = group[MAX_SIBLINGS - 1:]
            total = sum(s.get("duration", 0.0) for s in rest)
            lines.append(f"{'  ' * (depth + 1)}... {len(rest)} more "
                         f"{kid['name']} spans  {total * 1e3:.1f} ms total")


def span_tree_depth(spans: List[Dict[str, Any]]) -> int:
    """Maximum nesting depth of the span forest (1 = roots only)."""
    parents = {span["id"]: span.get("parent") for span in spans}

    def depth_of(span_id: Optional[str], hops: int = 0) -> int:
        if span_id is None or span_id not in parents or hops > len(parents):
            return 0
        return 1 + depth_of(parents[span_id], hops + 1)

    return max((depth_of(span["id"]) for span in spans), default=0)


def format_ops_table(ops: List[Dict[str, Any]], k: int = 10) -> str:
    """The per-op top-K table from exported ``op`` records."""
    rows = sorted(ops, key=lambda o: (-o.get("total_seconds", 0.0),
                                      o.get("op", "")))[:k]
    if not rows:
        return ""
    lines = ["per-op autograd profile (top "
             f"{len(rows)} by forward+backward time):",
             f"  {'op':<12s} {'calls':>8s} {'fwd ms':>10s} {'bwd ms':>10s} "
             f"{'total ms':>10s} {'MB':>9s}"]
    for op in rows:
        lines.append(
            f"  {op['op']:<12s} {op['calls']:>8d} "
            f"{op['forward_seconds'] * 1e3:>10.1f} "
            f"{op['backward_seconds'] * 1e3:>10.1f} "
            f"{op['total_seconds'] * 1e3:>10.1f} "
            f"{op.get('bytes_produced', 0) / 1e6:>9.1f}")
    return "\n".join(lines)


def format_trace(trace: Dict[str, Any], top_k: int = 10) -> str:
    """Human-readable summary of a loaded trace: tree, ops, metrics."""
    header = trace.get("header", {})
    spans = trace.get("spans", [])
    lines = [f"trace {header.get('run', '?')} — {len(spans)} spans, "
             f"schema v{header.get('schema', '?')}"]
    known = {span["id"] for span in spans}
    children: Dict[str, List[Dict[str, Any]]] = {}
    roots = []
    for span in spans:
        parent = span.get("parent")
        if parent in known:
            children.setdefault(parent, []).append(span)
        else:
            roots.append(span)
    for root in sorted(roots, key=lambda s: s.get("start", 0.0)):
        _render(root, children, 1, lines)
    ops_table = format_ops_table(trace.get("ops", []), k=top_k)
    if ops_table:
        lines.append("")
        lines.append(ops_table)
    metrics = trace.get("metrics")
    if metrics:
        lines.append("")
        lines.append(f"metrics snapshot: {len(metrics)} instruments "
                     "(counters/gauges/histograms)")
        for name in sorted(metrics):
            value = metrics[name]
            if isinstance(value, dict):
                value = (f"count={value.get('count')} "
                         f"mean={value.get('mean', 0.0):.4g}s "
                         f"max={value.get('max', 0.0):.4g}s")
            lines.append(f"  {name:<28s} {value}")
    return "\n".join(lines)


def summarize(run: Union[str, Path],
              trace_dir: Union[str, Path] = DEFAULT_TRACE_DIR,
              top_k: int = 10) -> str:
    """One-call load + format, used by ``repro trace-summary``."""
    return format_trace(load_trace(resolve_trace_path(run, trace_dir)),
                        top_k=top_k)
