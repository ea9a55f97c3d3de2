"""End-to-end scale-resolution tier (``pytest -m e2e``).

One small but complete :func:`repro.scale.resolve` run — synthetic
corpus, trained snapshot, sharded blocking, parallel scoring, transitive
clustering — asserting blocking and cluster quality, then the engine
equivalence gate: one corpus resolved through the sequential engine, two
worker threads and an in-process daemon, each at its own scoring window,
and through a second shard layout, must give identical decision lists and
cluster assignments.
"""

import pytest

from repro.data import iter_entity_table
from repro.scale import (ShardedBlocker, cluster_quality,
                         generate_scale_corpus, resolve, true_cluster_of)
from repro.scale.bench import BENCH_BLOCKER, BENCH_DIRT, build_e2e_pipeline
from repro.serve import (DaemonClient, DaemonConfig, ModelRegistry,
                         ParallelScorer, SequentialScorer,
                         start_daemon_thread)

pytestmark = pytest.mark.e2e

#: Two (shard rows, chunk rows) layouts for the equivalence corpus: small
#: and co-prime-ish enough to force several shards and ragged chunks.
LAYOUTS = ((512, 128), (200, 77))


class _Recording:
    """A scorer wrapper that keeps every decision it hands back."""

    def __init__(self, scorer):
        self.scorer = scorer
        self.threshold = scorer.threshold
        self.decisions = []

    def score_pairs(self, pairs):
        decisions = self.scorer.score_pairs(pairs)
        self.decisions.extend(decisions)
        return decisions


class _DaemonScorer:
    """``score_pairs`` over the wire: each window is one daemon request."""

    def __init__(self, client, threshold):
        self.client = client
        self.threshold = threshold

    def score_pairs(self, pairs):
        return self.client.score(pairs).decisions


def _resolved(corpus, layout, scorer, window, spill_dir=None):
    """Resolve ``corpus`` with ``layout``; returns (blocker, decisions,
    clusters)."""
    shard_size, chunk_size = layout
    blocker = ShardedBlocker(shard_size=shard_size, chunk_size=chunk_size,
                             spill_dir=spill_dir, **BENCH_BLOCKER)
    recording = _Recording(scorer)
    clusters = resolve(iter_entity_table(corpus.left_path, chunk_size),
                       iter_entity_table(corpus.right_path, chunk_size),
                       recording, blocker, window=window)
    return blocker, recording.decisions, clusters


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    work = tmp_path_factory.mktemp("e2e")
    build_e2e_pipeline(work / "pipeline", "fodors_zagats", seed=0, epochs=2,
                       train_scale=1.0)
    return work


@pytest.fixture(scope="module")
def resolved(work):
    corpus = generate_scale_corpus(work / "corpus", 3000, dirt=BENCH_DIRT)
    with ParallelScorer(work / "pipeline", num_workers=2) as scorer:
        blocker, decisions, clusters = _resolved(
            corpus, (1024, 512), scorer, 512, spill_dir=work / "shards")
    return corpus, blocker.last_stats, decisions, clusters


class TestResolve:
    def test_blocking_is_bounded_and_recalls(self, resolved):
        corpus, block, decisions, __ = resolved
        caught = sum(1 for d in decisions if true_cluster_of(d.left_id)
                     == true_cluster_of(d.right_id))
        assert caught / corpus.true_matches >= 0.95
        assert (len(decisions) / (corpus.left_rows * corpus.right_rows)
                < 0.01)
        assert block["num_shards"] >= 2
        assert 0 < block["max_shard_rows"] <= 1024
        assert block["spilled_bytes"] > 0

    def test_cluster_sanity(self, resolved):
        corpus, __, __, clusters = resolved
        assert 0 < clusters.num_clusters <= clusters.num_entities
        assert clusters.num_entities == corpus.records
        truth = {i: true_cluster_of(i) for i in clusters.assignments}
        quality = cluster_quality(clusters.assignments, truth)
        assert 0.0 <= quality.f1 <= 1.0
        assert quality.precision > 0.9  # trained matcher, easy corpus


def test_engines_windows_and_layouts_resolve_identically(work):
    """Scoring is batch-invariant, so neither the engine, nor its window,
    nor the shard layout may move a probability or a cluster."""
    pipeline_dir = work / "pipeline"
    corpus = generate_scale_corpus(work / "equivalence", 1500, seed=1,
                                   dirt=BENCH_DIRT)
    sequential = SequentialScorer.from_directory(pipeline_dir)
    results = {
        "sequential": _resolved(corpus, LAYOUTS[0], sequential, 512),
        "sequential-resharded": _resolved(corpus, LAYOUTS[1], sequential,
                                          777),
    }
    with ParallelScorer(str(pipeline_dir), num_workers=2) as parallel:
        results["parallel-2"] = _resolved(corpus, LAYOUTS[0], parallel, 300)
    registry = ModelRegistry()
    registry.publish("default", str(pipeline_dir))
    try:
        with start_daemon_thread(registry, DaemonConfig(port=0)) as handle:
            with DaemonClient(*handle.address) as client:
                daemon = _DaemonScorer(client, sequential.threshold)
                results["daemon"] = _resolved(corpus, LAYOUTS[0], daemon,
                                              128)
    finally:
        registry.close()
    __, decisions, clusters = results["sequential"]
    assert len(decisions) > 300  # several windows at every size
    assert clusters.num_clusters < clusters.num_entities
    for name, (__, got_decisions, got_clusters) in results.items():
        assert got_decisions == decisions, name
        assert got_clusters.assignments == clusters.assignments, name
