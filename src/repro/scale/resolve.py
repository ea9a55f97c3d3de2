"""Two tables in, entity clusters out: the one resolution loop.

:func:`resolve` streams both tables through a blocker, scores the
candidates in bounded windows and folds the decisions into transitive
clusters.  The whole call runs in one ``scale.resolve`` span, and each
window in ``scale.resolve.block``, ``scale.resolve.score`` and
``scale.resolve.cluster`` children, so a trace of a resolution explains
its wall time.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Iterable, Iterator

from .. import telemetry
from ..blocking import CandidateStream
from ..data import Entity
from ..serve import STREAM_WINDOW
from .cluster import Clusters, TransitiveClusterer


def _registered(table: Iterable, clusterer: TransitiveClusterer
                ) -> Iterator:
    """Pass ``table`` (entities or entity chunks) through unchanged,
    registering every entity read as a singleton."""
    for item in table:
        if isinstance(item, Entity):
            clusterer.add_entity(item.entity_id)
        else:
            clusterer.add_entities(entity.entity_id for entity in item)
        yield item


def resolve(left: Iterable, right: Iterable, scorer,
            blocker: CandidateStream, window: int = STREAM_WINDOW
            ) -> Clusters:
    """Resolve two entity tables into clusters.

    ``left`` and ``right`` are entity iterables or chunk streams such as
    :func:`repro.data.iter_entity_table`.  ``scorer`` is anything with
    ``score_pairs(pairs)`` and ``threshold`` (the serve engines); it scores
    ``window`` candidates of ``blocker``'s stream at a time, and the
    decisions fold, in blocker order, into a
    :class:`TransitiveClusterer` at the scorer's threshold.  Every entity
    of both tables is in the result, including rows the blocker never
    reads (:class:`~repro.scale.ShardedBlocker` skips the right table when
    the left one is empty).  Memory holds one window of candidates, the
    blocker's own state and one clusterer entry per entity.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    clusterer = TransitiveClusterer(scorer.threshold)
    left = _registered(left, clusterer)
    right = _registered(right, clusterer)
    candidates = 0
    with telemetry.span("scale.resolve", window=window) as run:
        stream = blocker.iter_candidates(left, right)
        while True:
            with telemetry.span("scale.resolve.block"):
                pairs = list(islice(stream, window))
            if not pairs:
                break
            candidates += len(pairs)
            with telemetry.span("scale.resolve.score", num_pairs=len(pairs)):
                decisions = scorer.score_pairs(pairs)
            with telemetry.span("scale.resolve.cluster"):
                clusterer.add_decisions(decisions)
        with telemetry.span("scale.resolve.cluster"):
            for __ in chain(left, right):  # rows the blocker left unread
                pass
            clusters = clusterer.clusters()
            run.set(candidates=candidates, entities=clusters.num_entities,
                    clusters=clusters.num_clusters)
    return clusters
