"""Risk-aware routing: auto-decide only what the snapshot can defend.

A :class:`RiskRouter` looks at every scored pair *after* the engine has
produced its decision list and sorts each decision into one of three
outcomes based on the snapshot's **calibrated** probability ``q``:

* ``q <  band.low``   → auto ``non-match``
* ``band.low <= q < band.high`` → ``review`` (durably queued, not decided)
* ``q >= band.high``  → auto ``match``

The band test is half-open on purpose: a pair sitting *exactly* on a
boundary routes deterministically (``q == low`` reviews, ``q == high``
auto-matches), which the hypothesis tier pins — routing must never depend
on floating-point luck at the edges.

Crucially the router is **observational with respect to the decision
list**: it annotates, it never mutates.  The :class:`~repro.pipeline
.MatchDecision` objects an engine emits are byte-for-byte the same with
routing on or off — that is the serving path's bit-identity contract, and
it holds under every injected fault because faults can only ever delay or
drop *annotations*, never touch probabilities.

One router instance is shared by the sequential engine, the parallel
engine, ``score_tables()`` windows, and the daemon (via
:class:`~repro.serve.registry.ModelRegistry`), so routing rates and the
review queue are consistent no matter which path a pair arrived through.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from ..data import EntityPair
from ..pipeline import MatchDecision
from .calibration import Calibrator
from .queue import ReviewQueue

#: Decision labels carried on the wire and in review items.
AUTO_MATCH = "match"
AUTO_NON_MATCH = "non-match"
REVIEW = "review"


@dataclass(frozen=True)
class RiskBand:
    """The calibrated-probability interval that refuses to auto-decide."""

    low: float = 0.25
    high: float = 0.75

    def __post_init__(self) -> None:
        if not 0.0 <= self.low <= self.high <= 1.0:
            raise ValueError(
                f"risk band must satisfy 0 <= low <= high <= 1, got "
                f"[{self.low}, {self.high})")

    def needs_review(self, q: float) -> bool:
        """Half-open band test: ``low <= q < high`` routes to review."""
        return self.low <= q < self.high

    @classmethod
    def from_spec(cls, spec: str) -> "RiskBand":
        """Parse ``"0.25:0.75"`` (the ``--risk-band`` CLI syntax)."""
        low, sep, high = spec.partition(":")
        if not sep:
            raise ValueError(
                f"bad risk band {spec!r}: expected LOW:HIGH, e.g. 0.25:0.75")
        return cls(low=float(low), high=float(high))


@dataclass(frozen=True)
class RoutedDecision:
    """Routing annotation for one decision (the decision itself is intact)."""

    decision: str       # "match" | "non-match" | "review"
    confidence: float   # max(q, 1-q) of the calibrated probability
    calibrated: float   # the calibrated probability q itself

    def to_wire(self) -> Dict[str, Any]:
        return {"decision": self.decision, "confidence": self.confidence,
                "calibrated": self.calibrated}


def _entity_obj(entity) -> Dict[str, Any]:
    return {"id": entity.entity_id, "attributes": dict(entity.attributes)}


def review_item(pair: EntityPair, decision: MatchDecision, calibrated: float,
                digest: Optional[str], domain: str) -> Dict[str, Any]:
    """The durable payload queued for one pair the router refused to decide.

    Carries everything a reviewer or the re-adaptation worker needs: the
    raw pair (wire format), the raw and calibrated probabilities, and the
    snapshot digest that produced them.  ``label`` starts ``None`` and is
    filled by whoever reviews the pair.
    """
    return {
        "left": _entity_obj(pair.left),
        "right": _entity_obj(pair.right),
        "probability": float(decision.probability),
        "calibrated": float(calibrated),
        "digest": digest,
        "domain": domain,
        "label": pair.label if pair.label is not None else None,
    }


class RiskRouter:
    """Sorts scored pairs into auto / review and feeds the review queue.

    Thread-safe: the daemon's scoring lane, ``score_tables`` windows, and
    direct engine calls may all route concurrently; queue appends and the
    in-process tallies are serialized by one lock (the queue additionally
    holds its own inter-process lock on disk).
    """

    def __init__(self, band: Optional[RiskBand] = None,
                 queue: Optional[ReviewQueue] = None):
        self.band = band or RiskBand()
        self.queue = queue
        self._lock = threading.Lock()
        #: In-process routing tallies (durable counts live on the queue).
        self.counts = {AUTO_MATCH: 0, AUTO_NON_MATCH: 0, REVIEW: 0}

    def route(self, pairs: Sequence[EntityPair],
              decisions: Sequence[MatchDecision],
              calibrator: Optional[Calibrator],
              digest: Optional[str], domain: str) -> List[RoutedDecision]:
        """Annotate one request's decisions; queue the uncertain ones.

        ``decisions`` is read, never written: auto-decided probabilities
        stay bit-identical to a router-less run by construction.  Without
        a ``calibrator`` the raw probabilities are routed as-is (the
        engine logs the fallback when it loads the snapshot).
        """
        if len(pairs) != len(decisions):
            raise ValueError("pairs and decisions disagree on length")
        raw = [d.probability for d in decisions]
        calibrated = (calibrator.calibrate(raw) if calibrator is not None
                      else raw)
        routed: List[RoutedDecision] = []
        queued: List[Dict[str, Any]] = []
        for pair, decision, q in zip(pairs, decisions, calibrated):
            q = float(q)
            if self.band.needs_review(q):
                outcome = REVIEW
                queued.append(review_item(pair, decision, q, digest, domain))
            else:
                outcome = AUTO_MATCH if decision.is_match else AUTO_NON_MATCH
            confidence = max(q, 1.0 - q)
            routed.append(RoutedDecision(outcome, confidence, q))
        with self._lock:
            for item in routed:
                self.counts[item.decision] += 1
            if queued and self.queue is not None:
                self.queue.append(queued)
        return routed

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            counts = dict(self.counts)
        total = sum(counts.values())
        return {
            "band": [self.band.low, self.band.high],
            "counts": counts,
            "review_rate": counts[REVIEW] / total if total else 0.0,
            "queue": self.queue.stats() if self.queue is not None else None,
        }


__all__ = ["AUTO_MATCH", "AUTO_NON_MATCH", "REVIEW", "RiskBand",
           "RiskRouter", "RoutedDecision", "review_item"]
