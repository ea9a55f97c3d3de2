"""repro.scale — end-to-end entity resolution at millions of rows.

The training stack resolves *datasets*; this package resolves *tables*:
a constant-memory pipeline that streams two entity tables through sharded
blocking, windowed matcher scoring, and transitive clustering, with every
intermediate spilled through :mod:`repro.artifacts` and every stage timed
through :mod:`repro.telemetry` (``scale.resolve.*``, ``scale.block.*``,
``scale.cluster.*``).

* :mod:`~repro.scale.minhash` — vectorized MinHash signatures + LSH band
  keys, deterministic across processes and shard layouts.
* :mod:`~repro.scale.blocker` — :class:`ShardedBlocker`, the spilling
  MinHash/LSH :class:`~repro.blocking.CandidateStream`, with a
  shard-invariant candidate order.
* :mod:`~repro.scale.cluster` — union-find (path compression + union by
  rank) folding pairwise decisions — review abstentions excluded — into
  entity clusters with order-invariant canonical ids, plus pairwise
  cluster-quality metrics.
* :mod:`~repro.scale.resolve` — :func:`resolve`, the one table-in,
  clusters-out loop: block, score in windows, cluster, under one
  ``scale.resolve`` span with per-window block/score/cluster children.
* :mod:`~repro.scale.bench` — the matcher snapshot
  (:func:`~repro.scale.bench.build_e2e_pipeline`), blocker operating point
  and corpus dirt that the e2e tier, CI and ``python -m perf run`` resolve
  synthetic corpora with.

See DESIGN.md §14 for the shard layout, spill format, and the
determinism contract (cluster assignments bit-identical across engines and
shard counts).
"""

from .minhash import DEFAULT_BANDS, DEFAULT_ROWS, MinHasher, jaccard, token_hash
from .blocker import DEFAULT_SHARD_SIZE, ShardedBlocker
from .cluster import (ClusterQuality, Clusters, TransitiveClusterer,
                      UnionFind, cluster_quality)
from .synth import (ScaleCorpus, generate_scale_corpus, true_assignments,
                    true_cluster_of)
from .resolve import resolve

__all__ = [
    "DEFAULT_BANDS", "DEFAULT_ROWS", "DEFAULT_SHARD_SIZE",
    "MinHasher", "ShardedBlocker", "jaccard", "token_hash",
    "UnionFind", "TransitiveClusterer", "Clusters", "ClusterQuality",
    "cluster_quality",
    "ScaleCorpus", "generate_scale_corpus", "true_assignments",
    "true_cluster_of",
    "resolve",
]
