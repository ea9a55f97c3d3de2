"""Transitive clustering of pairwise match decisions (union-find).

The serve path emits independent pairwise :class:`~repro.pipeline.
MatchDecision` verdicts; an end-to-end resolution needs *entities*: the
transitive closure of the accepted matches.  This module folds a decision
stream into clusters with three hard guarantees:

* **order invariance** — union-find with path compression and union by
  rank produces the same partition for any permutation (or duplication)
  of the edge stream; pinned by a Hypothesis property test.
* **deterministic naming** — a cluster's canonical id is the
  lexicographically smallest member entity id, a pure function of the
  partition.  Two runs that accept the same edges produce bit-identical
  ``{entity id -> cluster id}`` assignments, which is what lets the e2e
  bench assert cluster equality across sequential / parallel / daemon
  scoring and across blocker shard counts.
* **abstention safety** — a decision routed to the ``review`` risk band
  is an *abstention*, not a match: the edge is deferred (counted, sampled
  for the report, never merged).  A low-confidence pair can therefore
  never glue two large clusters together behind the reviewer's back.

Quality is scored pairwise (:func:`cluster_quality`): precision / recall /
F1 over co-clustered entity pairs, computed from cluster-size counts — no
materialized pair sets, so it holds at millions of entities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

from .. import telemetry
from ..pipeline import MatchDecision

#: Deferred review edges kept verbatim for the report; the rest are counted.
_DEFERRED_SAMPLE = 32


class UnionFind:
    """Disjoint sets over hashable items: path compression + union by rank.

    Both classic optimizations together give effectively-constant
    amortized operations (inverse Ackermann).  The *partition* is
    invariant to operation order; internal root choice is not, which is
    why consumers name clusters via :func:`canonical_clusters`, never via
    raw roots.
    """

    def __init__(self) -> None:
        self._parent: Dict[Any, Any] = {}
        self._rank: Dict[Any, int] = {}

    def __len__(self) -> int:
        return len(self._parent)

    def __contains__(self, item: Any) -> bool:
        return item in self._parent

    def add(self, item: Any) -> None:
        """Register ``item`` as its own singleton set (idempotent)."""
        if item not in self._parent:
            self._parent[item] = item
            self._rank[item] = 0

    def find(self, item: Any) -> Any:
        """The current root of ``item``'s set (registers it if new).

        Iterative two-pass path compression: no recursion depth limit to
        trip over on a path built from a million chained unions.
        """
        self.add(item)
        parent = self._parent
        root = item
        while parent[root] != root:
            root = parent[root]
        while parent[item] != root:
            parent[item], item = root, parent[item]
        return root

    def union(self, a: Any, b: Any) -> Any:
        """Merge the sets of ``a`` and ``b``; returns the surviving root."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        rank = self._rank
        if rank[ra] < rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if rank[ra] == rank[rb]:
            rank[ra] += 1
        return ra

    def items(self) -> Iterator[Any]:
        return iter(self._parent)

    def components(self) -> Dict[Any, List[Any]]:
        """``{root: members}`` — root identity is order-dependent; use
        :func:`canonical_clusters` for stable naming."""
        out: Dict[Any, List[Any]] = {}
        for item in list(self._parent):
            out.setdefault(self.find(item), []).append(item)
        return out


def canonical_clusters(dsu: UnionFind) -> Dict[str, str]:
    """Order-invariant ``{entity id -> cluster id}`` assignment.

    The cluster id is the lexicographically smallest member id — a pure
    function of the partition, so any union order yields the same mapping.
    """
    smallest: Dict[Any, str] = {}
    for item in dsu.items():
        root = dsu.find(item)
        if root not in smallest or item < smallest[root]:
            smallest[root] = item
    return {item: smallest[dsu.find(item)] for item in dsu.items()}


@dataclass(frozen=True)
class Clusters:
    """A finished partition: canonical assignments plus fold statistics."""

    assignments: Dict[str, str]
    merged_edges: int = 0
    redundant_edges: int = 0
    non_match_edges: int = 0
    deferred_edges: int = 0
    deferred_sample: Tuple[Tuple[str, str], ...] = ()

    @property
    def num_entities(self) -> int:
        return len(self.assignments)

    @property
    def num_clusters(self) -> int:
        return len(set(self.assignments.values()))

    def members(self) -> Dict[str, List[str]]:
        """``{cluster id -> sorted member ids}``."""
        out: Dict[str, List[str]] = {}
        for entity_id, cluster_id in self.assignments.items():
            out.setdefault(cluster_id, []).append(entity_id)
        for members in out.values():
            members.sort()
        return out

    def sizes(self) -> List[int]:
        """Cluster sizes, descending."""
        counts: Dict[str, int] = {}
        for cluster_id in self.assignments.values():
            counts[cluster_id] = counts.get(cluster_id, 0) + 1
        return sorted(counts.values(), reverse=True)

    def describe(self) -> Dict[str, Any]:
        sizes = self.sizes()
        return {
            "entities": self.num_entities,
            "clusters": self.num_clusters,
            "largest_cluster": sizes[0] if sizes else 0,
            "singletons": sum(1 for s in sizes if s == 1),
            "merged_edges": self.merged_edges,
            "redundant_edges": self.redundant_edges,
            "non_match_edges": self.non_match_edges,
            "deferred_edges": self.deferred_edges,
        }


def _routing_verdict(annotation: Any) -> Optional[str]:
    """Normalize a routing annotation to its verdict string (or None)."""
    if annotation is None:
        return None
    if isinstance(annotation, str):
        return annotation
    verdict = getattr(annotation, "decision", None)
    if not isinstance(verdict, str):
        raise TypeError(
            f"routing annotation {annotation!r} has no 'decision' verdict")
    return verdict


class TransitiveClusterer:
    """Fold a pairwise decision stream into entity clusters.

    Parameters
    ----------
    threshold:
        Probability at or above which an un-routed decision is an accepted
        match edge (use the pipeline's own decision threshold).

    Feed decisions with :meth:`add_decision` (optionally paired with a
    risk-routing annotation — a :class:`repro.risk.RoutedDecision` or its
    verdict string).  Routing, when present, **overrides** the raw
    threshold: ``"match"`` merges, ``"non-match"`` does not, and
    ``"review"`` defers the edge entirely — an abstained pair never links
    clusters.  Entities seen only in rejected or deferred pairs (or
    registered via :meth:`add_entity`) still appear, as singletons.
    """

    def __init__(self, threshold: float = 0.5):
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        self.threshold = threshold
        self._dsu = UnionFind()
        self._merged = 0
        self._redundant = 0
        self._non_match = 0
        self._deferred = 0
        self._deferred_sample: List[Tuple[str, str]] = []

    def add_entity(self, entity_id: str) -> None:
        """Register an entity with no accepted edges (a singleton so far)."""
        self._dsu.add(entity_id)

    def add_entities(self, entity_ids: Iterable[str]) -> None:
        for entity_id in entity_ids:
            self._dsu.add(entity_id)

    def add_decision(self, decision: MatchDecision,
                     routing: Any = None) -> None:
        left, right = decision.left_id, decision.right_id
        self._dsu.add(left)
        self._dsu.add(right)
        verdict = _routing_verdict(routing)
        if verdict == "review":
            self._deferred += 1
            if len(self._deferred_sample) < _DEFERRED_SAMPLE:
                self._deferred_sample.append((left, right))
            return
        if verdict is None:
            is_match = decision.probability >= self.threshold
        else:
            is_match = verdict == "match"
        if not is_match:
            self._non_match += 1
            return
        if self._dsu.find(left) == self._dsu.find(right):
            self._redundant += 1
        else:
            self._merged += 1
        self._dsu.union(left, right)

    def add_decisions(self, decisions: Iterable[MatchDecision],
                      routing: Optional[Sequence[Any]] = None) -> None:
        """Fold a decision batch; ``routing`` aligns by position when given."""
        if routing is None:
            for decision in decisions:
                self.add_decision(decision)
            return
        decisions = list(decisions)
        if len(routing) != len(decisions):
            raise ValueError(
                f"routing length {len(routing)} != decisions "
                f"{len(decisions)}")
        for decision, annotation in zip(decisions, routing):
            self.add_decision(decision, annotation)

    def clusters(self) -> Clusters:
        """Finish: canonical assignments + fold statistics."""
        with telemetry.span("scale.cluster.finalize",
                            entities=len(self._dsu)):
            assignments = canonical_clusters(self._dsu)
        return Clusters(assignments=assignments,
                        merged_edges=self._merged,
                        redundant_edges=self._redundant,
                        non_match_edges=self._non_match,
                        deferred_edges=self._deferred,
                        deferred_sample=tuple(self._deferred_sample))


@dataclass(frozen=True)
class ClusterQuality:
    """Pairwise precision / recall / F1 of a predicted partition."""

    precision: float
    recall: float
    f1: float
    true_pairs: int
    predicted_pairs: int
    common_pairs: int

    def to_dict(self) -> Dict[str, float]:
        return {"precision": self.precision, "recall": self.recall,
                "f1": self.f1, "true_pairs": self.true_pairs,
                "predicted_pairs": self.predicted_pairs,
                "common_pairs": self.common_pairs}


def _pair_count(sizes: Iterable[int]) -> int:
    return sum(n * (n - 1) // 2 for n in sizes)


def cluster_quality(predicted: Mapping[str, str],
                    truth: Mapping[str, str]) -> ClusterQuality:
    """Pairwise cluster quality of ``predicted`` against ``truth``.

    Both arguments map entity id to cluster id; entities missing from
    either side are ignored (the bench always scores the full corpus, so
    in practice the key sets coincide).  Counting goes through cluster
    sizes and joint-label sizes only — O(entities) memory, never a
    materialized pair set.
    """
    keys = predicted.keys() & truth.keys()
    if not keys:
        raise ValueError("no entities shared between predicted and truth")
    predicted_sizes: Dict[str, int] = {}
    true_sizes: Dict[str, int] = {}
    joint_sizes: Dict[Tuple[str, str], int] = {}
    for key in keys:
        p, t = predicted[key], truth[key]
        predicted_sizes[p] = predicted_sizes.get(p, 0) + 1
        true_sizes[t] = true_sizes.get(t, 0) + 1
        joint_sizes[(p, t)] = joint_sizes.get((p, t), 0) + 1
    predicted_pairs = _pair_count(predicted_sizes.values())
    true_pairs = _pair_count(true_sizes.values())
    common_pairs = _pair_count(joint_sizes.values())
    precision = common_pairs / predicted_pairs if predicted_pairs else 1.0
    recall = common_pairs / true_pairs if true_pairs else 1.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return ClusterQuality(precision=precision, recall=recall, f1=f1,
                          true_pairs=true_pairs,
                          predicted_pairs=predicted_pairs,
                          common_pairs=common_pairs)
