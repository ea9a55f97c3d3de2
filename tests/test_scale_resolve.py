"""Tier-1 tests for :func:`repro.scale.resolve`, the one table-in,
clusters-out loop: it equals a fold of :func:`repro.serve.score_tables`
decisions, keeps entities the blocker never reads, and its trace explains
its wall time."""

import numpy as np
import pytest

from repro.data import iter_entity_table, load_entity_table
from repro.matcher import MlpMatcher
from repro.pipeline import ERPipeline
from repro.pretrain import fresh_copy
from repro.scale import (ShardedBlocker, TransitiveClusterer,
                         generate_scale_corpus, resolve)
from repro.scale.bench import BENCH_BLOCKER, BENCH_DIRT
from repro.serve import SequentialScorer, score_tables
from repro.telemetry import TRACER, TelemetrySession

CHUNK = 50


def _blocker():
    return ShardedBlocker(shard_size=128, chunk_size=CHUNK, **BENCH_BLOCKER)


def _tables(corpus):
    return (iter_entity_table(corpus.left_path, CHUNK),
            iter_entity_table(corpus.right_path, CHUNK))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return generate_scale_corpus(tmp_path_factory.mktemp("resolve"), 400,
                                 dirt=BENCH_DIRT)


@pytest.fixture(scope="module")
def pipeline(tiny_lm, corpus):
    """An untrained pipeline thresholded at its median candidate
    probability, so resolving both merges and rejects edges."""
    extractor = fresh_copy(tiny_lm[0], seed=0)
    extractor.eval()
    matcher = MlpMatcher(extractor.feature_dim, np.random.default_rng(0))
    matcher.eval()
    probabilities = [d.probability for d in score_tables(
        ERPipeline(extractor, matcher), *_tables(corpus),
        blocker=_blocker())]
    return ERPipeline(extractor, matcher,
                      threshold=float(np.median(probabilities)))


class _Unused:
    threshold = 0.5

    def score_pairs(self, pairs):
        raise AssertionError("no candidate should reach the scorer")


def test_equals_a_fold_of_score_tables(pipeline, corpus):
    left = load_entity_table(corpus.left_path)
    right = load_entity_table(corpus.right_path)
    reference = TransitiveClusterer(pipeline.threshold)
    reference.add_entities(e.entity_id for e in left + right)
    reference.add_decisions(score_tables(pipeline, left, right,
                                         blocker=_blocker()))
    expected = reference.clusters()
    assert expected.merged_edges and expected.non_match_edges

    got = resolve(*_tables(corpus), SequentialScorer(pipeline), _blocker(),
                  window=64)
    assert got == expected
    assert got.num_entities == corpus.records


def test_empty_left_table_keeps_every_right_entity(corpus):
    right = load_entity_table(corpus.right_path)  # flat, not chunked
    clusters = resolve([], right, _Unused(), _blocker())
    assert clusters.assignments == {e.entity_id: e.entity_id for e in right}


def test_rejects_non_positive_window(corpus):
    with pytest.raises(ValueError, match="window"):
        resolve(*_tables(corpus), _Unused(), _blocker(), window=0)


def test_trace_explains_the_wall_time(pipeline, corpus):
    with TelemetrySession("resolve-test"):
        clusters = resolve(*_tables(corpus), SequentialScorer(pipeline),
                           _blocker(), window=64)
    spans = TRACER.records()
    root, = [s for s in spans if s["name"] == "scale.resolve"]
    children = [s for s in spans if s["parent"] == root["id"]]
    assert {s["name"] for s in children} == {
        "scale.resolve.block", "scale.resolve.score",
        "scale.resolve.cluster"}
    assert (sum(s["duration"] for s in children)
            >= 0.95 * root["duration"])
    assert root["attrs"]["entities"] == clusters.num_entities
