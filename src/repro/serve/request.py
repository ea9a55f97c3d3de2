"""Request and response types for the serving path.

A long-lived service interleaves many callers, so the serving stack passes
requests around, not bare pairs lists:

* :class:`ScoreRequest` — one caller's unit of work: candidate pairs plus
  routing identity (``domain`` selects the tenant snapshot in a
  :class:`~repro.serve.registry.ModelRegistry`) and a caller-chosen
  ``request_id`` that survives into the response;
* :class:`ScoreResponse` — the decisions in request order, the per-run
  :class:`~repro.serve.metrics.ServeMetrics`, and the manifest digest of
  the snapshot that actually scored the request (under hot-swap, proof of
  *which* model answered).

Engines score one request with ``score_request``; ``score_pairs`` wraps
one anonymous request.  The daemon hands each admitted
:class:`ScoreRequest` to its scoring lane as one job.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..data import EntityPair
from ..pipeline import MatchDecision
from .metrics import ServeMetrics

#: Tenant key used when a caller does not name a (source→target) domain.
DEFAULT_DOMAIN = "default"

_request_ids = itertools.count(1)


def next_request_id() -> str:
    """Process-unique fallback id for requests whose caller supplied none."""
    return f"req-{next(_request_ids)}"


@dataclass(frozen=True)
class ScoreRequest:
    """One caller's scoring request: candidate pairs plus routing identity."""

    pairs: Tuple[EntityPair, ...]
    request_id: str = ""
    domain: str = DEFAULT_DOMAIN

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", tuple(self.pairs))
        if not self.request_id:
            object.__setattr__(self, "request_id", next_request_id())

    @property
    def num_pairs(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class ScoreResponse:
    """Decisions for one :class:`ScoreRequest`, in request order."""

    request_id: str
    domain: str
    decisions: List[MatchDecision]
    #: Manifest digest of the snapshot that scored this request (``None``
    #: only for engines constructed around an unsaved in-memory pipeline).
    snapshot_digest: Optional[str] = None
    metrics: Optional[ServeMetrics] = None
    #: End-to-end daemon latency (admission to response), seconds; filled
    #: by the daemon, 0.0 for direct engine calls.
    latency_seconds: float = 0.0
    #: Per-decision risk annotations (:class:`repro.risk.RoutedDecision`),
    #: aligned with ``decisions``; ``None`` when the engine has no
    #: :class:`~repro.risk.RiskRouter`.  Annotations never alter the
    #: decisions themselves — auto-decided probabilities are bit-identical
    #: with routing on or off.
    routing: Optional[list] = None

    @property
    def num_pairs(self) -> int:
        return len(self.decisions)


def as_request(pairs_or_request, domain: str = DEFAULT_DOMAIN) -> ScoreRequest:
    """Coerce a bare pairs sequence to a :class:`ScoreRequest`."""
    if isinstance(pairs_or_request, ScoreRequest):
        return pairs_or_request
    return ScoreRequest(pairs=tuple(pairs_or_request), domain=domain)


__all__ = ["DEFAULT_DOMAIN", "ScoreRequest", "ScoreResponse", "as_request",
           "next_request_id"]
