"""Tests for the end-to-end ER pipeline."""

import numpy as np
import pytest

from repro.blocking import OverlapBlocker
from repro.data import Entity, EntityPair
from repro.datasets import load_dataset
from repro.pipeline import (LENGTH_MULTIPLE, ROW_MULTIPLE, ERPipeline,
                            MatchDecision)
from repro.text import encode_batch


@pytest.fixture()
def pipeline(lm_copy, matcher_factory):
    return ERPipeline(lm_copy, matcher_factory(lm_copy.feature_dim))


def _tables():
    ds = load_dataset("fz", scale=0.1, seed=0)
    left = [p.left for p in ds.pairs[:15]]
    right = [p.right for p in ds.pairs[:15]]
    return left, right


class TestScoring:
    def test_score_pairs_returns_decisions(self, pipeline):
        ds = load_dataset("fz", scale=0.1, seed=0)
        decisions = pipeline.score_pairs(ds.pairs[:5])
        assert len(decisions) == 5
        assert all(isinstance(d, MatchDecision) for d in decisions)
        assert all(0.0 <= d.probability <= 1.0 for d in decisions)

    def test_decision_ids_match_pairs(self, pipeline):
        ds = load_dataset("fz", scale=0.1, seed=0)
        decision = pipeline.score_pairs(ds.pairs[:1])[0]
        assert decision.left_id == ds.pairs[0].left.entity_id
        assert decision.right_id == ds.pairs[0].right.entity_id

    def test_probabilities_pads_rows_and_positions(self, pipeline,
                                                   monkeypatch):
        # The forward sees aligned rows and positions; the caller gets its
        # own rows back, each equal to scoring that row alone.
        ds = load_dataset("fz", scale=0.1, seed=0)
        ids, mask = encode_batch([p.tokens() for p in ds.pairs[:5]],
                                 pipeline.extractor.vocab, 61)
        alone = [pipeline.probabilities(ids[i:i + 1], mask[i:i + 1])[0]
                 for i in range(5)]
        shapes = []
        encode = pipeline.extractor.encode

        def record(ids, mask):
            shapes.append(ids.shape)
            return encode(ids, mask)

        monkeypatch.setattr(pipeline.extractor, "encode", record)
        probabilities = pipeline.probabilities(ids, mask)
        assert probabilities.tolist() == alone
        assert shapes == [(8, 64)]
        assert 8 % ROW_MULTIPLE == 0 and 64 % LENGTH_MULTIPLE == 0

    def test_is_match_property(self):
        assert MatchDecision("a", "b", 0.7).is_match
        assert not MatchDecision("a", "b", 0.3).is_match

    def test_match_tables_returns_id_pairs(self, pipeline):
        left, right = _tables()
        matches = pipeline.match_tables(left, right)
        assert all(isinstance(pair, tuple) and len(pair) == 2
                   for pair in matches)

    def test_threshold_validated(self, lm_copy, matcher_factory):
        with pytest.raises(ValueError):
            ERPipeline(lm_copy, matcher_factory(lm_copy.feature_dim),
                       threshold=1.0)


class TestPersistence:
    def test_save_load_roundtrip(self, pipeline, tmp_path):
        directory = tmp_path / "pipe"
        pipeline.save(directory)
        loaded = ERPipeline.load(directory)
        ds = load_dataset("fz", scale=0.1, seed=0)
        original = pipeline.score_pairs(ds.pairs[:4])
        reloaded = loaded.score_pairs(ds.pairs[:4])
        for a, b in zip(original, reloaded):
            assert a.probability == pytest.approx(b.probability, abs=1e-9)

    def test_saved_files_present(self, pipeline, tmp_path):
        directory = tmp_path / "pipe"
        pipeline.save(directory)
        for name in ("extractor.npz", "matcher.npz", "vocab.txt",
                     "pipeline.json"):
            assert (directory / name).exists()

    def test_load_preserves_blocker_config(self, lm_copy, matcher_factory,
                                           tmp_path):
        pipeline = ERPipeline(lm_copy, matcher_factory(lm_copy.feature_dim),
                              blocker=OverlapBlocker(min_overlap=3,
                                                     stop_fraction=0.4),
                              threshold=0.7)
        pipeline.save(tmp_path / "p")
        loaded = ERPipeline.load(tmp_path / "p")
        assert loaded.blocker.min_overlap == 3
        assert loaded.threshold == 0.7

    def test_load_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ERPipeline.load(tmp_path / "missing")
