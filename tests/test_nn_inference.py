"""The tape inference path: the pruned [CLS] forward and its guarantees.

Pins the contract of ``TransformerExtractor.encode``: the last encoder block
runs its query, residual stream, FFN and the final norm for position 0 only,
and the result equals ``hidden_states(ids, mask)[:, 0]`` up to GEMM-shape
rounding (<= 1e-12, identical decisions), in value and in every parameter
gradient.  Also pins the serving hot-path guarantees that the forward relies
on: the cached/clamped additive mask (a fully padded query row must softmax
to finite, uniform weights), ``no_grad`` building zero tape on every
inference entry point, eval-mode Dropout being a structural identity, and
the vectorized overlap indicators matching the old per-row
set-intersection loop exactly.
"""

import numpy as np
import pytest

from repro.data import Entity, EntityPair, ERDataset
from repro.extractors import TransformerExtractor
from repro.matcher import MlpMatcher
from repro.nn import Tensor, grad_enabled, no_grad
from repro.nn import functional as F
from repro.nn.attention import MASK_BIAS, _causal_bias, additive_mask
from repro.nn.layers import Dropout
from repro.pipeline import ERPipeline
from repro.pretrain import fresh_copy
from repro.serve import SequentialScorer
from repro.train.metrics import predict_dataset

#: How far the pruned [CLS] forward may drift from the full-sequence one:
#: the two run different GEMM shapes, which may round differently.
PRUNED_TOLERANCE = 1e-12


def _ragged_pairs(count, seed=0):
    """Candidate pairs whose serialized lengths span many buckets."""
    rng = np.random.default_rng(seed)
    words = ["mesa", "rook", "tide", "volt", "wick", "yarn", "zinc",
             "opal", "pine", "quay"]
    pairs = []
    for i in range(count):
        n_left = int(rng.integers(1, 14))
        n_right = int(rng.integers(1, 14))
        left = Entity(f"l{i}", {"name": " ".join(rng.choice(words, n_left)),
                                "city": str(rng.choice(words))})
        right = Entity(f"r{i}", {"name": " ".join(rng.choice(words, n_right)),
                                 "city": str(rng.choice(words))})
        pairs.append(EntityPair(left, right))
    return pairs


def _ragged_batch(vocab, n, t, seed):
    """Random ids with ragged 0/1 masks; row 1 (if any) fully padded."""
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, len(vocab), size=(n, t))
    lengths = rng.integers(1, t + 1, size=n)
    mask = (np.arange(t)[None, :] < lengths[:, None]).astype(np.float64)
    if n > 1:
        mask[1] = 0.0
    return ids, mask


@pytest.fixture(scope="module")
def eval_pipeline(tiny_lm):
    """An eval-mode pipeline on the session's pre-trained 1-layer LM."""
    extractor = fresh_copy(tiny_lm[0], seed=0)
    extractor.eval()
    matcher = MlpMatcher(extractor.feature_dim, np.random.default_rng(0))
    matcher.eval()
    return ERPipeline(extractor, matcher)


@pytest.fixture(params=[1, 2], ids=["1-layer", "2-layer"])
def extractor_and_matcher(request, tiny_lm):
    """A training-mode extractor with ``param`` layers plus a matcher."""
    __, vocab = tiny_lm
    extractor = TransformerExtractor(vocab, np.random.default_rng(3), dim=32,
                                     num_layers=request.param, num_heads=2,
                                     max_len=96)
    matcher = MlpMatcher(extractor.feature_dim, np.random.default_rng(4))
    return extractor, matcher


# --------------------------------------------------------------------------- #
# the pruned [CLS] forward equals the full forward's row 0
# --------------------------------------------------------------------------- #

class TestPrunedEncode:
    @pytest.mark.parametrize("n, t", [(7, 23), (1, 23), (64, 72)],
                             ids=["ragged", "single-row", "bucket"])
    def test_encode_matches_hidden_states_row_zero(
            self, extractor_and_matcher, n, t):
        extractor, matcher = extractor_and_matcher
        ids, mask = _ragged_batch(extractor.vocab, n, t, seed=n + t)
        with no_grad():
            pruned = extractor.encode(ids, mask)
            full = extractor.hidden_states(ids, mask).data[:, 0, :]
        assert pruned.shape == (n, extractor.dim)
        assert np.max(np.abs(pruned.data - full)) <= PRUNED_TOLERANCE
        with no_grad():
            assert np.array_equal(matcher.predict(pruned),
                                  matcher.predict(Tensor(full)))

    def test_gradients_match_the_full_forward(self, extractor_and_matcher):
        # Training computes the same function: every parameter gradient of
        # a matching loss through the pruned path equals the one through
        # the full sequence, first layer of a 2-layer stack included.
        extractor, matcher = extractor_and_matcher
        assert extractor.training and matcher.training
        ids, mask = _ragged_batch(extractor.vocab, 9, 19, seed=11)
        labels = np.random.default_rng(12).integers(0, 2, size=9)

        def gradients(features_of):
            extractor.zero_grad()
            matcher.zero_grad()
            logits = matcher(features_of(ids, mask))
            F.cross_entropy(logits, labels).backward()
            named = [*extractor.named_parameters("extractor."),
                     *matcher.named_parameters("matcher.")]
            assert all(p.grad is not None for __, p in named)
            return {name: p.grad.copy() for name, p in named}

        pruned = gradients(extractor.encode)
        full = gradients(
            lambda i, m: extractor.hidden_states(i, m)[:, 0, :])
        assert pruned.keys() == full.keys()
        assert "extractor.layers.0.attention.query.weight" in pruned
        for name in pruned:
            drift = np.max(np.abs(pruned[name] - full[name]))
            assert drift <= PRUNED_TOLERANCE, (name, drift)

    def test_extractor_needs_a_layer(self, tiny_lm):
        with pytest.raises(ValueError, match="num_layers"):
            TransformerExtractor(tiny_lm[1], np.random.default_rng(0),
                                 dim=32, num_layers=0, num_heads=2)


# --------------------------------------------------------------------------- #
# additive mask: causal-bias cache and the MASK_BIAS clamp floor
# --------------------------------------------------------------------------- #

class TestAdditiveMask:
    def test_causal_bias_is_cached_and_readonly(self):
        first = _causal_bias(7)
        assert _causal_bias(7) is first
        assert not first.flags.writeable
        assert first[0, 1] == MASK_BIAS and first[1, 0] == 0.0

    def test_noncausal_bias_matches_formula(self):
        mask = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        bias = additive_mask(mask)
        assert bias.shape == (2, 1, 1, 3)
        expected = (1.0 - mask)[:, None, None, :] * MASK_BIAS
        assert np.array_equal(bias, expected)

    def test_padding_plus_causal_is_clamped_at_floor(self):
        # A position that is both padded and future must sit at MASK_BIAS,
        # not 2 * MASK_BIAS — the overflow-prone double bias was the bug.
        mask = np.zeros((1, 5))
        bias = additive_mask(mask, causal=True)
        assert bias.min() == MASK_BIAS
        assert bias.max() == MASK_BIAS

    def test_fully_padded_query_row_softmax_is_finite_and_uniform(self):
        # Regression: every key masked out for a query row used to produce
        # exp(-2e9)-style underflow paths; the clamp guarantees a uniform,
        # finite distribution (which the zeroed value rows then discard).
        t = 6
        mask = np.zeros((1, t))
        bias = additive_mask(mask, causal=True)
        scores = np.zeros((1, 1, t, t)) + bias
        weights = F.softmax(Tensor(scores), axis=-1).data
        assert np.all(np.isfinite(weights))
        assert np.allclose(weights, 1.0 / t)
        assert np.allclose(weights.sum(axis=-1), 1.0)


# --------------------------------------------------------------------------- #
# no_grad: zero tape growth on every inference entry point
# --------------------------------------------------------------------------- #

@pytest.fixture()
def taped(monkeypatch):
    """Every tensor an op creates while the test runs."""
    created = []
    original = Tensor._make

    def spy(self, data, parents, backward):
        out = original(self, data, parents, backward)
        created.append(out)
        return out

    monkeypatch.setattr(Tensor, "_make", spy)
    return created


def _assert_no_tape(created):
    assert created, "the forward should have run tensor ops"
    assert all(t._parents == () and t._backward is None
               and not t.requires_grad for t in created)


class TestNoGrad:
    def test_no_grad_blocks_graph_construction(self):
        weight = Tensor(np.ones((2, 2)), requires_grad=True)
        with no_grad():
            out = weight * 2.0
        assert not out.requires_grad
        assert out._parents == ()
        assert out._backward is None
        assert grad_enabled()
        tracked = weight * 2.0
        assert tracked.requires_grad and tracked._parents

    def test_grad_mode_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                assert not grad_enabled()
                raise RuntimeError("boom")
        assert grad_enabled()

    def test_scorer_builds_zero_tape(self, eval_pipeline, taped):
        SequentialScorer(eval_pipeline).score_pairs(_ragged_pairs(12))
        _assert_no_tape(taped)

    def test_pipeline_score_pairs_builds_zero_tape(self, eval_pipeline,
                                                   taped):
        eval_pipeline.score_pairs(_ragged_pairs(12))
        _assert_no_tape(taped)

    def test_predict_dataset_builds_zero_tape(self, tiny_lm, taped):
        # Per-epoch validation: the modules are in training mode around it.
        extractor = fresh_copy(tiny_lm[0], seed=0)
        matcher = MlpMatcher(extractor.feature_dim, np.random.default_rng(0))
        dataset = ERDataset("valid", "test", [
            pair.with_label(i % 2)
            for i, pair in enumerate(_ragged_pairs(12))])
        assert len(predict_dataset(extractor, matcher, dataset,
                                   batch_size=5)) == 12
        _assert_no_tape(taped)
        assert extractor.training and matcher.training

    def test_features_builds_zero_tape(self, tiny_lm, taped):
        extractor = fresh_copy(tiny_lm[0], seed=0)
        features = extractor.features(_ragged_pairs(12), batch_size=5)
        assert features.shape == (12, extractor.feature_dim)
        _assert_no_tape(taped)
        assert extractor.training


# --------------------------------------------------------------------------- #
# dropout: structural identity in eval mode
# --------------------------------------------------------------------------- #

class TestDropoutIdentity:
    def test_eval_dropout_returns_the_input_object(self):
        module = Dropout(0.5, np.random.default_rng(0))
        module.eval()
        x = Tensor(np.ones((3, 4)))
        assert module(x) is x

    def test_zero_rate_is_identity_even_in_training(self):
        module = Dropout(0.0, np.random.default_rng(0))
        x = Tensor(np.ones((3, 4)))
        assert module(x) is x

    def test_training_dropout_is_not_identity(self):
        module = Dropout(0.5, np.random.default_rng(0))
        x = Tensor(np.ones((64, 64)))
        assert module(x) is not x


# --------------------------------------------------------------------------- #
# vectorized overlap indicators == the old per-row set-intersection loop
# --------------------------------------------------------------------------- #

def _overlap_reference(ids, sep, special_limit):
    """The pre-vectorization semantics, verbatim: first [SEP] splits the
    row, non-special tokens occurring on both sides are flagged."""
    n, t = ids.shape
    out = np.zeros((n, t), dtype=np.int64)
    for i in range(n):
        row = ids[i].tolist()
        boundary = row.index(sep) if sep in row else t
        left = {tok for tok in row[:boundary] if tok >= special_limit}
        right = {tok for tok in row[boundary + 1:] if tok >= special_limit}
        shared = left & right
        for j, tok in enumerate(row):
            out[i, j] = int(tok >= special_limit and tok in shared)
    return out


class TestOverlapIndicators:
    def test_matches_loop_reference_on_random_batches(self, eval_pipeline):
        extractor = eval_pipeline.extractor
        vocab = extractor.vocab
        rng = np.random.default_rng(7)
        for __ in range(50):
            n = int(rng.integers(1, 9))
            t = int(rng.integers(2, 24))
            ids = rng.integers(0, len(vocab), size=(n, t))
            # Plant 0-3 [SEP]s per row so every boundary case appears.
            for i in range(n):
                for pos in rng.integers(0, t, size=int(rng.integers(0, 4))):
                    ids[i, pos] = vocab.sep_id
            got = extractor.overlap_indicators(ids)
            want = _overlap_reference(ids, vocab.sep_id, vocab.num_special)
            assert np.array_equal(got, want)

    def test_row_without_sep_shares_nothing(self, eval_pipeline):
        extractor = eval_pipeline.extractor
        limit = extractor.vocab.num_special
        ids = np.full((1, 6), limit + 5, dtype=np.int64)  # no [SEP] at all
        assert extractor.overlap_indicators(ids).sum() == 0
