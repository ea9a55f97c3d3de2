"""Sample statistics and span attribution for the benchmark.

Two rules keep the numbers honest:

* a percentile is only reported when at least :data:`MIN_BEYOND` samples
  lie beyond it, so a "p99" of 200 samples is refused rather than printed;
* a traced pass's wall time is split into per-span *self* time (a span's
  duration minus the part of it its children cover), and whatever the
  root's children leave uncovered is reported as unattributed, so the
  self times plus the residual add back up to the wall time.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Sequence, Tuple

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """A percentile was asked of too few samples to support it."""


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values``.

    Raises :class:`InsufficientSamples` unless at least :data:`MIN_BEYOND`
    samples rank above the returned one (the median needs 20 samples, p90
    needs 100, p99 needs 1000).
    """
    if not 0.0 < q < 100.0:
        raise ValueError("q must be in (0, 100)")
    count = len(values)
    rank = max(0, math.ceil(q / 100.0 * count) - 1)
    if count - rank - 1 < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{q:g} of {count} samples has {max(0, count - rank - 1)} "
            f"beyond it; at least {MIN_BEYOND} are required")
    return sorted(values)[rank]


def percentile_or_zero(values: Sequence[float], q: float) -> float:
    """:func:`percentile`, or 0.0 (meaning *not measured*) when the sample
    cannot support it.  For per-layer metrics only."""
    try:
        return percentile(values, q)
    except InsufficientSamples:
        return 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def f1_score(true_positive: int, false_positive: int,
             false_negative: int) -> float:
    precision = ratio(true_positive, true_positive + false_positive)
    recall = ratio(true_positive, true_positive + false_negative)
    return ratio(2 * precision * recall, precision + recall)


# --------------------------------------------------------------------------- #
# span attribution
# --------------------------------------------------------------------------- #

def _covered(intervals: Iterable[Tuple[float, float]], start: float,
             end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def spans_under(records: Sequence[Dict[str, Any]], ancestor: str
                ) -> List[Dict[str, Any]]:
    """Span records with some ancestor span named ``ancestor``."""
    spans = {r["id"]: r for r in records if r.get("type") == "span"}
    inside: Dict[str, bool] = {}

    def has_ancestor(span_id: str) -> bool:
        chain = []
        found = False
        while span_id in spans and span_id not in inside:
            chain.append(span_id)
            parent = spans[span_id].get("parent")
            if parent in spans and spans[parent]["name"] == ancestor:
                found = True
                break
            span_id = parent
        else:
            found = inside.get(span_id, False)
        for visited in chain:
            inside[visited] = found
        return found

    return [r for r in spans.values() if has_ancestor(r["id"])]


def self_times(records: Sequence[Dict[str, Any]], root: str
               ) -> Dict[str, Any]:
    """Attribute the wall time of the span named ``root`` to its subtree.

    ``records`` are exported trace records (``type == "span"`` ones are
    used).  Returns ``{"wall": root duration, "self": {span name: summed
    self seconds}, "total": {span name: summed duration}, "count": {span
    name: spans}, "unattributed": the root's own self time}``.  For a
    single-threaded pass the self times, root included, sum to the wall
    time; concurrent siblings are each charged their own self time.
    """
    spans = [r for r in records if r.get("type") == "span"]
    roots = [r for r in spans if r["name"] == root]
    if len(roots) != 1:
        raise ValueError(f"expected one {root!r} span, found {len(roots)}")
    children: Dict[str, List[Dict[str, Any]]] = {}
    for record in spans:
        if record.get("parent"):
            children.setdefault(record["parent"], []).append(record)
    own: Dict[str, float] = {}
    total: Dict[str, float] = {}
    count: Dict[str, int] = {}
    unattributed = 0.0
    stack = [roots[0]]
    while stack:
        record = stack.pop()
        start = record["start"]
        end = start + record["duration"]
        kids = children.get(record["id"], [])
        covered = _covered(((k["start"], k["start"] + k["duration"])
                            for k in kids), start, end)
        self_s = record["duration"] - covered
        name = record["name"]
        if record is roots[0]:
            unattributed = self_s
        else:
            own[name] = own.get(name, 0.0) + self_s
            total[name] = total.get(name, 0.0) + record["duration"]
            count[name] = count.get(name, 0) + 1
        stack.extend(kids)
    return {"wall": roots[0]["duration"], "self": own, "total": total,
            "count": count, "unattributed": unattributed}
