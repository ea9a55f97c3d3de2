"""Failure-injection tests: corrupt caches, malformed inputs, edge shapes —
plus the chaos tier (``pytest -m chaos``), which injects deterministic NaN
training steps through :mod:`repro.resilience.chaos` and asserts the guard
rolls back and converges, or fails with a structured diagnosis.

A library that trains for minutes must fail *fast and loud* on bad inputs;
these tests pin the error behaviour.
"""

import numpy as np
import pytest

from repro.data import Entity, EntityPair, ERDataset, load_csv
from repro.datasets import load_dataset
from repro.matcher import MlpMatcher
from repro.nn import Tensor, save_state
from repro.pretrain.cache import _load_vocab, pretrained_lm
from repro.resilience import ChaosConfig, Fault, TrainingDiverged
from repro.text import Vocabulary, pad_sequences
from repro.train import TrainConfig, evaluate, match_metrics, train_source_only


class TestCorruptCache:
    def test_corrupt_vocab_file_rejected(self, tmp_path):
        bad = tmp_path / "bad.vocab.txt"
        # Nine lines (so not truncation), but the specials are wrong.
        bad.write_text("\n".join(["[PAD]", "not-the-right-specials"]
                                 + [f"tok{i}" for i in range(7)]))
        with pytest.raises(ValueError, match="token mismatch"):
            _load_vocab(bad)

    def test_trailing_newline_is_not_a_phantom_token(self, tmp_path):
        from repro.pretrain.cache import _save_vocab
        from repro.text import Vocabulary
        vocab = Vocabulary(["alpha", "beta"])
        good = tmp_path / "good.vocab.txt"
        _save_vocab(vocab, good)
        good.write_text(good.read_text() + "\n")  # POSIX-style trailing \n
        reloaded = _load_vocab(good)
        assert len(reloaded) == len(vocab)

    def test_truncated_vocab_names_truncation(self, tmp_path):
        bad = tmp_path / "short.vocab.txt"
        bad.write_text("[PAD]\n[UNK]\n")
        with pytest.raises(ValueError, match="truncated"):
            _load_vocab(bad)

    def test_wrong_shape_checkpoint_regenerates(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        kwargs = dict(dim=16, num_layers=1, num_heads=2, max_len=48,
                      corpus_scale=0.01, steps=2, seed=0)
        extractor, vocab = pretrained_lm(**kwargs)
        # Overwrite the cached weights with a mismatched architecture.
        from repro.extractors import TransformerExtractor
        other = TransformerExtractor(vocab, np.random.default_rng(0),
                                     dim=8, num_layers=1, num_heads=2,
                                     max_len=48)
        npz = next(tmp_path.glob("*.npz"))
        save_state(other, npz)
        # Self-healing: the mismatched checkpoint is quarantined and the LM
        # re-pretrained instead of crashing the caller.
        healed, __ = pretrained_lm(**kwargs)
        assert healed.dim == 16
        assert list(tmp_path.glob("*.npz.corrupt*"))


class TestMalformedData:
    def test_csv_with_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("left_id,left_t,right_id,right_t,label\n"
                        "a,x,b\n")  # missing columns
        with pytest.raises((ValueError, IndexError)):
            load_csv(path)

    def test_dataset_with_single_class_split_fails_cleanly(self):
        pairs = [EntityPair(Entity(f"a{i}", {"t": "x"}),
                            Entity(f"b{i}", {"t": "y"}), 0)
                 for i in range(10)]
        ds = ERDataset("allneg", "t", pairs)
        # Metrics still work: zero matches means F1 = 0 with no crash.
        labels = ds.labels()
        assert match_metrics(labels, np.zeros(10, dtype=int)).f1 == 0.0

    def test_evaluate_on_unlabeled_raises(self, lm_copy, matcher_factory):
        target = load_dataset("fz", scale=0.1, seed=0).without_labels()
        matcher = matcher_factory(lm_copy.feature_dim)
        with pytest.raises(ValueError):
            evaluate(lm_copy, matcher, target)


class TestEdgeShapes:
    def test_single_pair_batch(self, lm_copy, matcher_factory):
        ds = load_dataset("fz", scale=0.1, seed=0)
        matcher = matcher_factory(lm_copy.feature_dim)
        features = lm_copy(ds.pairs[:1])
        assert features.shape == (1, lm_copy.feature_dim)
        assert matcher.predict(features).shape == (1,)

    def test_empty_pad_batch(self):
        ids, mask = pad_sequences([], max_len=4, pad_id=0)
        assert ids.shape == (0, 4)

    def test_matcher_on_zero_rows(self):
        matcher = MlpMatcher(4, np.random.default_rng(0))
        out = matcher(Tensor(np.zeros((0, 4))))
        assert out.shape == (0, 2)

    def test_training_with_batch_larger_than_source(self, lm_copy,
                                                    matcher_factory):
        source = load_dataset("fz", scale=0.1, seed=0)
        sub = source.subset(range(6), suffix="tiny")
        target = load_dataset("zy", scale=0.1, seed=0)
        from repro.data import target_da_split
        valid, test = target_da_split(target, np.random.default_rng(0))
        matcher = matcher_factory(lm_copy.feature_dim)
        config = TrainConfig(epochs=1, batch_size=64,
                             iterations_per_epoch=2, seed=0)
        result = train_source_only(lm_copy, matcher, sub, valid, test,
                                   config)
        assert len(result.history) == 1


# --------------------------------------------------------------------------- #
# chaos tier: injected NaN training steps (`pytest -m chaos`)
# --------------------------------------------------------------------------- #

@pytest.mark.chaos
class TestTrainingChaos:
    def test_nan_at_step_k_rolls_back_and_converges(self, lm_copy,
                                                    matcher_factory,
                                                    books_restaurants):
        source, __, valid, test = books_restaurants
        matcher = matcher_factory(lm_copy.feature_dim)
        config = TrainConfig(epochs=2, batch_size=16, iterations_per_epoch=4,
                             seed=0,
                             chaos=ChaosConfig((Fault("nan_loss", step=3),)))
        result = train_source_only(lm_copy, matcher, source, valid, test,
                                   config)
        assert result.events.rollbacks == 1
        assert result.events.lr_halvings == 1
        assert np.isfinite(result.best_f1)
        assert len(result.history) == 2  # training ran to completion

    def test_persistent_nan_raises_structured_diagnosis(self, lm_copy,
                                                        matcher_factory,
                                                        books_restaurants):
        source, __, valid, test = books_restaurants
        matcher = matcher_factory(lm_copy.feature_dim)
        config = TrainConfig(epochs=1, batch_size=16, iterations_per_epoch=4,
                             seed=0, guard_max_recoveries=2,
                             chaos=ChaosConfig((Fault("nan_loss"),)))
        with pytest.raises(TrainingDiverged) as exc_info:
            train_source_only(lm_copy, matcher, source, valid, test, config)
        diverged = exc_info.value
        assert diverged.recoveries == 2
        assert len(diverged.incidents) == 3
        assert diverged.method == "noda"
