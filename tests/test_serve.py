"""Equivalence and scheduling tests for the repro.serve engine.

The load-bearing guarantee: scoring is batch-invariant, so every engine —
in-process or across worker threads, any worker count, any scheduler
configuration — returns MatchDecision lists *bit-identical* to the
fixed-stride, full-padding oracle :meth:`ERPipeline.score_pairs`.
"""

import numpy as np
import pytest

from repro.data import Entity, EntityPair
from repro.pipeline import ERPipeline
from repro.serve import (BatchScheduler, ParallelScorer, SequentialScorer,
                         score_tables)


#: Tokens in the tiny LM's vocabulary: pairs that differ only in one of
#: these encode differently, so dedup keeps them apart.
_YEARS = ("1995", "2018", "2007", "2015", "2002", "2003", "2001", "1998",
          "2014", "2020", "2006", "2005")


def _ragged_pairs(count, seed=0):
    """Candidate pairs with widely varying serialized lengths."""
    rng = np.random.default_rng(seed)
    words = ["mesa", "rook", "tide", "volt", "wick", "yarn", "zinc",
             "opal", "pine", "quay"]
    pairs = []
    for i in range(count):
        n_left = int(rng.integers(1, 12))
        n_right = int(rng.integers(1, 12))
        left = Entity(f"l{i}", {"name": " ".join(rng.choice(words, n_left)),
                                "city": str(rng.choice(words))})
        right = Entity(f"r{i}", {"name": " ".join(rng.choice(words, n_right)),
                                 "city": str(rng.choice(words))})
        pairs.append(EntityPair(left, right))
    return pairs


@pytest.fixture(scope="module")
def served(tmp_path_factory, tiny_lm):
    """A live pipeline plus its persisted snapshot directory."""
    from repro.matcher import MlpMatcher
    from repro.pretrain import fresh_copy
    extractor = fresh_copy(tiny_lm[0], seed=0)
    extractor.eval()
    matcher = MlpMatcher(extractor.feature_dim, np.random.default_rng(0))
    matcher.eval()
    pipeline = ERPipeline(extractor, matcher)
    directory = tmp_path_factory.mktemp("serve") / "pipeline"
    pipeline.save(directory)
    return pipeline, directory


class TestBatchScheduler:
    def test_covers_every_pair_exactly_once(self, served):
        pipeline, __ = served
        pairs = _ragged_pairs(57)
        scheduler = BatchScheduler(pipeline.extractor.vocab,
                                   pipeline.extractor.max_len,
                                   max_batch_pairs=13)
        seen = np.concatenate([b.indices for b in scheduler.schedule(pairs)])
        assert sorted(seen.tolist()) == list(range(57))

    def test_respects_both_caps(self, served):
        pipeline, __ = served
        pairs = _ragged_pairs(80)
        scheduler = BatchScheduler(pipeline.extractor.vocab,
                                   pipeline.extractor.max_len,
                                   max_batch_pairs=16, max_batch_tokens=256)
        for batch in scheduler.schedule(pairs):
            assert batch.num_pairs <= 16
            assert batch.num_pairs * batch.padded_length <= max(
                256, batch.padded_length)  # one long row is always allowed

    def test_bucket_padding_is_tight(self, served):
        pipeline, __ = served
        pairs = _ragged_pairs(40)
        scheduler = BatchScheduler(pipeline.extractor.vocab,
                                   pipeline.extractor.max_len,
                                   bucket_rounding=8)
        for batch in scheduler.schedule(pairs):
            assert batch.padded_length % 8 == 0 or \
                batch.padded_length == pipeline.extractor.max_len
            lengths = batch.mask.sum(axis=1)
            assert lengths.max() <= batch.padded_length
            assert batch.padded_length - lengths.max() < 8

    def test_reference_policy_matches_legacy_stride(self, served,
                                                    monkeypatch):
        # The oracle cuts fixed strides in input order, each padded to
        # max_len, and scores every pair once (no dedup).
        pipeline, __ = served
        pairs = _ragged_pairs(150)
        shapes = []
        forward = pipeline.probabilities

        def record(ids, mask):
            shapes.append(ids.shape)
            return forward(ids, mask)

        monkeypatch.setattr(pipeline, "probabilities", record)
        decisions = pipeline.score_pairs(pairs)
        max_len = pipeline.extractor.max_len
        assert shapes == [(64, max_len), (64, max_len), (22, max_len)]
        assert [(d.left_id, d.right_id) for d in decisions] == \
            [(p.left.entity_id, p.right.entity_id) for p in pairs]

    def test_empty_input_yields_nothing(self, served):
        pipeline, __ = served
        scheduler = BatchScheduler(pipeline.extractor.vocab,
                                   pipeline.extractor.max_len)
        assert list(scheduler.schedule([])) == []

    def test_overlong_pair_gets_its_own_batch(self, served):
        # A pair whose (truncated) length fills the whole token budget must
        # still be scheduled — alone, at max_len, never dropped or split.
        pipeline, __ = served
        max_len = pipeline.extractor.max_len
        long_name = " ".join(["mesa"] * (3 * max_len))
        # Distinct leading in-vocabulary tokens keep dedup from merging them.
        pairs = [EntityPair(Entity(f"l{i}", {"name": f"{year} {long_name}"}),
                            Entity(f"r{i}", {"name": long_name}))
                 for i, year in enumerate(_YEARS[:3])]
        scheduler = BatchScheduler(pipeline.extractor.vocab, max_len,
                                   max_batch_tokens=max_len)  # minimum legal
        batches = list(scheduler.schedule(pairs))
        assert [b.num_pairs for b in batches] == [1, 1, 1]
        assert all(b.padded_length == max_len for b in batches)
        seen = np.concatenate([b.indices for b in batches])
        assert sorted(seen.tolist()) == [0, 1, 2]
        # Three identical pairs collapse to ONE scored row that still
        # covers all three positions.
        same = [EntityPair(Entity(f"l{i}", {"name": long_name}),
                           Entity(f"r{i}", {"name": long_name}))
                for i in range(3)]
        batches = list(scheduler.schedule(same))
        assert [b.num_pairs for b in batches] == [1]
        assert batches[0].num_covered == 3
        assert sorted(batches[0].indices.tolist()) == [0, 1, 2]

    def test_exact_capacity_bucket_fills_without_spill(self, served):
        # Uniform-length pairs whose bucket exactly fills both caps must cut
        # into full batches with no off-by-one spill batch.  (Each pair
        # carries its own in-vocabulary year, so dedup keeps all 12.)
        pipeline, __ = served
        pairs = [EntityPair(Entity(f"l{i}", {"name": f"mesa rook {year}"}),
                            Entity(f"r{i}", {"name": "volt wick yarn"}))
                 for i, year in enumerate(_YEARS)]
        probe = BatchScheduler(pipeline.extractor.vocab,
                               pipeline.extractor.max_len)
        padded = next(iter(probe.schedule(pairs))).padded_length
        scheduler = BatchScheduler(pipeline.extractor.vocab, padded,
                                   max_batch_pairs=4,
                                   max_batch_tokens=4 * padded)
        batches = list(scheduler.schedule(pairs))
        assert [b.num_pairs for b in batches] == [4, 4, 4]
        assert all(b.num_pairs * b.padded_length == 4 * padded
                   for b in batches)

    def test_pair_order_is_stable_within_buckets(self, served):
        # Within every batch the original positions must appear in input
        # order — bucketing may regroup pairs but never reorders a bucket.
        pipeline, __ = served
        pairs = _ragged_pairs(64, seed=3)
        scheduler = BatchScheduler(pipeline.extractor.vocab,
                                   pipeline.extractor.max_len,
                                   max_batch_pairs=7, max_batch_tokens=512)
        batches = list(scheduler.schedule(pairs))
        assert len(batches) > 1
        for batch in batches:
            # Scored rows follow input order (first occurrence per row) and
            # no position is covered twice within a batch.
            rep = batch.row_positions.tolist()
            assert rep == sorted(rep)
            idx = batch.indices.tolist()
            assert len(set(idx)) == len(idx)
        covered = np.concatenate([b.indices for b in batches])
        assert sorted(covered.tolist()) == list(range(len(pairs)))

    def test_validation(self, served):
        pipeline, __ = served
        vocab = pipeline.extractor.vocab
        with pytest.raises(ValueError):
            BatchScheduler(vocab, 0)
        with pytest.raises(ValueError):
            BatchScheduler(vocab, 96, max_batch_pairs=0)
        with pytest.raises(ValueError):
            BatchScheduler(vocab, 96, max_batch_tokens=10)
        with pytest.raises(ValueError):
            BatchScheduler(vocab, 96, bucket_rounding=0)


class TestSequentialEquivalence:
    def test_bit_identical_to_pipeline_with_same_scheduler(self, served):
        # The oracle needs no scheduler: an engine with odd caps matches it.
        pipeline, __ = served
        pairs = _ragged_pairs(45)
        scheduler = BatchScheduler(pipeline.extractor.vocab,
                                   pipeline.extractor.max_len,
                                   max_batch_pairs=11)
        engine = SequentialScorer(pipeline, scheduler)
        assert engine.score_pairs(pairs) == pipeline.score_pairs(pairs)

    def test_close_to_reference_across_policies(self, served):
        pipeline, __ = served
        pairs = _ragged_pairs(45)
        reference = pipeline.score_pairs(pairs)
        bucketed = SequentialScorer(pipeline).score_pairs(pairs)
        assert bucketed == reference

    def test_empty_candidate_set(self, served):
        pipeline, __ = served
        assert SequentialScorer(pipeline).score_pairs([]) == []

    def test_metrics_recorded(self, served):
        pipeline, __ = served
        engine = SequentialScorer(pipeline)
        engine.score_pairs(_ragged_pairs(30))
        metrics = engine.last_metrics
        assert metrics.num_pairs == 30
        assert metrics.num_batches >= 1
        assert metrics.pairs_per_second > 0
        assert 0.0 < metrics.busy_seconds <= metrics.wall_seconds


class TestParallelEquivalence:
    @pytest.mark.parametrize("num_workers", [1, 4])
    def test_bit_identical_to_sequential(self, served, num_workers):
        pipeline, directory = served
        pairs = _ragged_pairs(60)
        sequential = SequentialScorer(pipeline).score_pairs(pairs)
        with ParallelScorer(directory, num_workers=num_workers) as scorer:
            assert scorer.score_pairs(pairs) == sequential

    def test_ragged_batch_caps(self, served):
        pipeline, directory = served
        pairs = _ragged_pairs(53, seed=7)
        scheduler = BatchScheduler(pipeline.extractor.vocab,
                                   pipeline.extractor.max_len,
                                   max_batch_pairs=7, max_batch_tokens=300)
        sequential = SequentialScorer(pipeline, scheduler).score_pairs(pairs)
        with ParallelScorer(directory, num_workers=2, max_batch_pairs=7,
                            max_batch_tokens=300) as scorer:
            assert scorer.score_pairs(pairs) == sequential

    def test_empty_candidate_set(self, served):
        __, directory = served
        with ParallelScorer(directory, num_workers=2) as scorer:
            assert scorer.score_pairs([]) == []
            assert scorer.last_metrics.num_pairs == 0

    def test_worker_metrics(self, served):
        __, directory = served
        with ParallelScorer(directory, num_workers=2,
                            max_batch_pairs=10) as scorer:
            scorer.score_pairs(_ragged_pairs(40))
            metrics = scorer.last_metrics
        assert metrics.engine == "parallel"
        assert metrics.num_workers == 2
        assert metrics.num_pairs == 40
        assert metrics.busy_seconds > 0

    def test_rejects_bad_worker_count(self, served):
        __, directory = served
        with pytest.raises(ValueError):
            ParallelScorer(directory, num_workers=0)


class TestScoreTables:
    def test_streaming_matches_unwindowed(self, served):
        pipeline, __ = served
        pairs = _ragged_pairs(40, seed=3)
        left = [p.left for p in pairs]
        right = [p.right for p in pairs]
        unwindowed = list(score_tables(pipeline, left, right, window=10_000))
        # Different windows re-batch the stream; agreement is policy-level.
        windowed = list(score_tables(pipeline, left, right, window=9))
        assert [(d.left_id, d.right_id) for d in windowed] == \
            [(d.left_id, d.right_id) for d in unwindowed]
        for a, b in zip(windowed, unwindowed):
            assert abs(a.probability - b.probability) <= 1e-9

    def test_covers_exactly_the_blocked_candidates(self, served):
        pipeline, __ = served
        pairs = _ragged_pairs(40, seed=3)
        left = [p.left for p in pairs]
        right = [p.right for p in pairs]
        candidates = pipeline.blocker.candidates(left, right)
        streamed = list(score_tables(pipeline, left, right))
        assert [(d.left_id, d.right_id) for d in streamed] == \
            [(p.left.entity_id, p.right.entity_id) for p in candidates]

    def test_parallel_streaming(self, served):
        pipeline, directory = served
        pairs = _ragged_pairs(30, seed=5)
        left = [p.left for p in pairs]
        right = [p.right for p in pairs]
        sequential = list(score_tables(pipeline, left, right, window=16))
        parallel = list(score_tables(directory, left, right, window=16,
                                     num_workers=2))
        assert parallel == sequential

    def test_parallel_accepts_live_pipeline(self, served):
        pipeline, __ = served
        pairs = _ragged_pairs(30, seed=5)
        left = [p.left for p in pairs]
        right = [p.right for p in pairs]
        sequential = list(score_tables(pipeline, left, right, window=16))
        parallel = list(score_tables(pipeline, left, right, window=16,
                                     num_workers=2))
        assert parallel == sequential

    def test_match_tables_threshold(self, served):
        pipeline, directory = served
        pairs = _ragged_pairs(30, seed=5)
        left = [p.left for p in pairs]
        right = [p.right for p in pairs]
        with ParallelScorer(directory, num_workers=1) as scorer:
            matches = scorer.match_tables(left, right)
            decisions = list(scorer.score_tables(left, right))
        expected = [(d.left_id, d.right_id) for d in decisions
                    if d.probability >= scorer.threshold]
        assert matches == expected


def test_importing_serve_does_not_load_scipy():
    # Only t-SNE and the mixing score use scipy; a scoring process (every
    # daemon and benchmark worker) must not pay for importing it.
    import subprocess
    import sys
    code = ("import sys, repro, repro.serve; "
            "sys.exit(1 if 'scipy' in sys.modules else 0)")
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr or "scipy was imported"
