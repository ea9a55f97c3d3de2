"""Equivalence suite for the compiled trace-and-replay inference path.

Pins the contract from ``repro.nn.compiled``: replay is bit-identical
run-to-run on the same buffers, agrees with the ``no_grad`` tape path to
1e-9 in probability with bit-identical decisions across every scheduler
bucket shape, programs are keyed by snapshot digest (hot swap recompiles),
and anything outside the contract — RNN extractors, training-mode modules,
shape mismatches — falls back to the tape loudly and losslessly.

Also pins the serving hot-path fixes that rode along: the cached/clamped
additive mask (a fully padded query row must softmax to finite, uniform
weights), ``no_grad`` building zero tape on the scorers' fallback path,
eval-mode Dropout being a structural identity, and the vectorized overlap
indicators matching the old per-row set-intersection loop exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Entity, EntityPair
from repro.extractors.rnn import RnnExtractor
from repro.matcher import MlpMatcher
from repro.nn import Tensor, grad_enabled, no_grad
from repro.nn import functional as F
from repro.nn.attention import MASK_BIAS, _causal_bias, additive_mask
from repro.nn.compiled import (CompiledInference, CompiledProgram,
                               TraceError, record_program)
from repro.nn.layers import Dropout
from repro.pipeline import ERPipeline
from repro.pretrain import fresh_copy
from repro.serve import BatchScheduler, ParallelScorer, SequentialScorer

PROB_TOLERANCE = 1e-9


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


def _tape_probabilities(pipeline, ids, mask):
    with no_grad():
        return pipeline.matcher.probabilities(
            pipeline.extractor.encode(ids, mask))


def _first_batch(pipeline, pairs):
    scheduler = BatchScheduler(pipeline.extractor.vocab,
                               pipeline.extractor.max_len)
    return next(iter(scheduler.schedule(pairs)))


@pytest.fixture(scope="module")
def compiled_setup(tmp_path_factory, tiny_lm):
    """An eval-mode pipeline plus its saved snapshot (for the digest)."""
    extractor = fresh_copy(tiny_lm[0], seed=0)
    extractor.eval()
    matcher = MlpMatcher(extractor.feature_dim, np.random.default_rng(0))
    matcher.eval()
    pipeline = ERPipeline(extractor, matcher)
    directory = tmp_path_factory.mktemp("compiled") / "pipeline"
    pipeline.save(directory)
    return pipeline, directory


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
# no_grad: zero tape growth on the inference path
# --------------------------------------------------------------------------- #

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

    def test_scorer_fallback_path_builds_zero_tape(self, compiled_setup,
                                                   monkeypatch):
        # Satellite 2: the tape fallback inside the scorers runs under
        # no_grad, so NO tensor created while scoring may carry parents or
        # a backward closure — the tape must not grow at all.
        pipeline, __ = compiled_setup
        created = []
        original = Tensor._make

        def spy(self, data, parents, backward):
            out = original(self, data, parents, backward)
            created.append(out)
            return out

        monkeypatch.setattr(Tensor, "_make", spy)
        scorer = SequentialScorer(pipeline)  # compiled=False: pure tape
        scorer.score_pairs(_ragged_pairs(12))
        assert created, "the tape path should have run tensor ops"
        assert all(t._parents == () and t._backward is None
                   and not t.requires_grad for t in created)


# --------------------------------------------------------------------------- #
# dropout: structural identity in eval mode, absent from recorded programs
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

    def test_recorded_program_contains_no_dropout_op(self, tiny_lm):
        # Satellite 3: an extractor built WITH dropout must record the
        # same op list as one without — eval dropout is structurally gone.
        from repro.extractors.transformer import TransformerExtractor
        __, vocab = tiny_lm
        programs = []
        for rate in (0.0, 0.3):
            extractor = TransformerExtractor(
                vocab, np.random.default_rng(0), dim=32, num_layers=1,
                num_heads=2, max_len=96, dropout=rate)
            extractor.eval()
            matcher = MlpMatcher(extractor.feature_dim,
                                 np.random.default_rng(0))
            matcher.eval()
            pipeline = ERPipeline(extractor, matcher)
            batch = _first_batch(pipeline, _ragged_pairs(6))
            programs.append(record_program(pipeline, batch.ids, batch.mask))
        clean, dropped = programs
        assert clean.op_names == dropped.op_names
        assert not any("dropout" in name for name in dropped.op_names)


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
    def test_matches_loop_reference_on_random_batches(self, compiled_setup):
        pipeline, __ = compiled_setup
        extractor = pipeline.extractor
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

    def test_row_without_sep_shares_nothing(self, compiled_setup):
        pipeline, __ = compiled_setup
        extractor = pipeline.extractor
        limit = extractor.vocab.num_special
        ids = np.full((1, 6), limit + 5, dtype=np.int64)  # no [SEP] at all
        assert extractor.overlap_indicators(ids).sum() == 0


# --------------------------------------------------------------------------- #
# record/replay equivalence against the tape path
# --------------------------------------------------------------------------- #

class TestRecordReplay:
    def test_compiled_matches_tape_across_every_bucket_shape(
            self, compiled_setup):
        pipeline, __ = compiled_setup
        pairs = _ragged_pairs(60)
        tape = SequentialScorer(pipeline).score_pairs(pairs)
        compiled_scorer = SequentialScorer(pipeline, compiled=True)
        compiled = compiled_scorer.score_pairs(pairs)

        assert [d.is_match for d in compiled] == [d.is_match for d in tape]
        drift = max(abs(a.probability - b.probability)
                    for a, b in zip(compiled, tape))
        assert drift <= PROB_TOLERANCE

        engine = compiled_scorer.compiled
        assert engine.stats["fallbacks"] == 0
        assert engine.stats["failed_shapes"] == 0
        # Ragged lengths must exercise more than one bucket shape, and
        # every shape must have compiled exactly once.
        shapes = engine.compiled_shapes
        assert len(shapes) >= 2
        assert engine.stats["compiles"] == len(shapes)

    def test_empty_single_and_overlong_batches(self, compiled_setup):
        pipeline, __ = compiled_setup
        compiled_scorer = SequentialScorer(pipeline, compiled=True)
        tape_scorer = SequentialScorer(pipeline)

        assert compiled_scorer.score_pairs([]) == []

        single = _ragged_pairs(1)
        overlong = [EntityPair(
            Entity("L", {"name": " ".join(f"tok{i}" for i in range(400))}),
            Entity("R", {"name": " ".join(f"tok{i}" for i in range(400))}))]
        for pairs in (single, overlong, single + overlong):
            tape = tape_scorer.score_pairs(pairs)
            compiled = compiled_scorer.score_pairs(pairs)
            assert [d.is_match for d in compiled] == \
                   [d.is_match for d in tape]
            assert all(abs(a.probability - b.probability) <= PROB_TOLERANCE
                       for a, b in zip(compiled, tape))

    def test_replay_reuses_buffers_bit_identically(self, compiled_setup):
        # Satellite 4 property: replay on the SAME buffers twice yields
        # the same bytes — nothing in the program depends on buffer
        # residue from the previous call.
        pipeline, __ = compiled_setup
        vocab_size = len(pipeline.extractor.vocab)
        batch = _first_batch(pipeline, _ragged_pairs(8))
        program = record_program(pipeline, batch.ids, batch.mask)
        n, t = batch.ids.shape

        @settings(max_examples=25, deadline=None)
        @given(st.integers(min_value=0, max_value=2**32 - 1))
        def check(seed):
            rng = np.random.default_rng(seed)
            ids = rng.integers(0, vocab_size, size=(n, t))
            lengths = rng.integers(0, t + 1, size=n)
            mask = (np.arange(t)[None, :] < lengths[:, None]).astype(float)
            first = program.run(ids, mask)
            second = program.run(ids, mask)
            assert first.tobytes() == second.tobytes()
            tape = _tape_probabilities(pipeline, ids, mask)
            assert np.max(np.abs(first - tape)) <= PROB_TOLERANCE

        check()

    def test_program_rejects_other_shapes(self, compiled_setup):
        pipeline, __ = compiled_setup
        batch = _first_batch(pipeline, _ragged_pairs(8))
        program = record_program(pipeline, batch.ids, batch.mask)
        n, t = batch.ids.shape
        with pytest.raises(TraceError):
            program.run(np.zeros((n + 1, t), dtype=np.int64),
                        np.ones((n + 1, t)))

    def test_record_refuses_training_mode(self, tiny_lm):
        extractor = fresh_copy(tiny_lm[0], seed=0)  # training=True default
        matcher = MlpMatcher(extractor.feature_dim, np.random.default_rng(0))
        pipeline = ERPipeline(extractor, matcher)
        batch = _first_batch(pipeline, _ragged_pairs(4))
        with pytest.raises(TraceError, match="eval-mode"):
            record_program(pipeline, batch.ids, batch.mask)

    def test_record_refuses_degenerate_batches(self, compiled_setup):
        pipeline, __ = compiled_setup
        with pytest.raises(TraceError):
            record_program(pipeline, np.zeros((0, 8), dtype=np.int64),
                           np.zeros((0, 8)))
        with pytest.raises(TraceError):
            record_program(pipeline, np.zeros((2, 8), dtype=np.int64),
                           np.zeros((2, 9)))

    def test_patching_leaves_no_residue(self, compiled_setup):
        # Record once, then verify the tape path is byte-for-byte the
        # plain (unpatched) forward: patch-in/patch-out restored cleanly.
        from repro.extractors import transformer as transformer_mod
        pipeline, __ = compiled_setup
        saved_add = Tensor.__dict__["__add__"]
        saved_mask = transformer_mod.additive_mask
        batch = _first_batch(pipeline, _ragged_pairs(6))
        before = _tape_probabilities(pipeline, batch.ids, batch.mask)
        record_program(pipeline, batch.ids, batch.mask)
        after = _tape_probabilities(pipeline, batch.ids, batch.mask)
        assert np.array_equal(before, after)
        assert Tensor.__dict__["__add__"] is saved_add
        assert transformer_mod.additive_mask is saved_mask


# --------------------------------------------------------------------------- #
# digest keying: hot swap must recompile, never replay stale weights
# --------------------------------------------------------------------------- #

class TestDigestKeying:
    def test_new_digest_recompiles_and_old_program_stays_cached(
            self, compiled_setup):
        pipeline, __ = compiled_setup
        batch = _first_batch(pipeline, _ragged_pairs(8))
        engine = CompiledInference(pipeline, digest="digest-a")

        first = engine.program_for(batch.ids, batch.mask)
        assert isinstance(first, CompiledProgram)
        assert engine.program_for(batch.ids, batch.mask) is first
        assert engine.stats["compiles"] == 1

        # Simulate a hot swap: same shape, new snapshot digest.  The key
        # changes, so the cached program must NOT be replayed.
        engine.digest = "digest-b"
        second = engine.program_for(batch.ids, batch.mask)
        assert second is not first
        assert engine.stats["compiles"] == 2

        # Swapping back hits the original cache entry — no third compile.
        engine.digest = "digest-a"
        assert engine.program_for(batch.ids, batch.mask) is first
        assert engine.stats["compiles"] == 2

    def test_programs_carry_their_digest(self, compiled_setup):
        pipeline, directory = compiled_setup
        batch = _first_batch(pipeline, _ragged_pairs(8))
        engine = CompiledInference(pipeline)
        assert engine.digest == pipeline.manifest_digest
        program = engine.program_for(batch.ids, batch.mask)
        assert program.digest == pipeline.manifest_digest

    def test_lru_evicts_oldest_shape(self, compiled_setup):
        pipeline, __ = compiled_setup
        engine = CompiledInference(pipeline, digest="lru", max_programs=2)
        scheduler = BatchScheduler(pipeline.extractor.vocab,
                                   pipeline.extractor.max_len)
        batches = scheduler.schedule(_ragged_pairs(60))
        shapes = []
        for batch in batches:
            if batch.ids.shape not in shapes:
                shapes.append(batch.ids.shape)
                engine.program_for(batch.ids, batch.mask)
            if len(shapes) == 3:
                break
        assert len(shapes) == 3, "need three distinct bucket shapes"
        assert len(engine.compiled_shapes) == 2
        assert shapes[0] not in engine.compiled_shapes


# --------------------------------------------------------------------------- #
# fallback: anything outside the contract stays on the tape, losslessly
# --------------------------------------------------------------------------- #

class TestFallback:
    def test_rnn_extractor_falls_back_bit_identical(self, tiny_lm):
        __, vocab = tiny_lm
        extractor = RnnExtractor(vocab, np.random.default_rng(0),
                                 embedding_dim=16, hidden_dim=16,
                                 feature_dim=32, max_len=96)
        extractor.eval()
        matcher = MlpMatcher(extractor.feature_dim, np.random.default_rng(0))
        matcher.eval()
        pipeline = ERPipeline(extractor, matcher)
        batch = _first_batch(pipeline, _ragged_pairs(8))
        engine = CompiledInference(pipeline, digest="rnn")

        compiled = engine.probabilities(batch.ids, batch.mask)
        tape = _tape_probabilities(pipeline, batch.ids, batch.mask)
        assert np.array_equal(compiled, tape)  # fallback IS the tape
        assert engine.stats["compiles"] == 0
        assert engine.stats["failed_shapes"] == 1
        assert engine.stats["fallbacks"] == 1

        # The failed shape is remembered: no second recording attempt.
        engine.probabilities(batch.ids, batch.mask)
        assert engine.stats["failed_shapes"] == 1
        assert engine.stats["fallbacks"] == 2

    def test_compiled_flag_is_lossless_at_engine_level(self, compiled_setup):
        # An engine asked for compiled inference on an incompatible model
        # must still serve correct answers — only slower.  Several bucket
        # shapes, so both worker threads record and replay programs.
        __, directory = compiled_setup
        pairs = _ragged_pairs(60, seed=3)
        with ParallelScorer(directory, num_workers=2,
                            compiled=True) as pool:
            shapes = {batch.ids.shape
                      for batch in pool.scheduler.schedule(pairs)}
            assert len(shapes) >= 3, shapes
            parallel = pool.score_pairs(pairs)
        sequential = SequentialScorer(
            ERPipeline.load(directory), compiled=True).score_pairs(pairs)
        tape = SequentialScorer(ERPipeline.load(directory)).score_pairs(pairs)
        assert [d.probability for d in parallel] == \
               [d.probability for d in sequential]
        assert [d.is_match for d in sequential] == [d.is_match for d in tape]
        assert all(abs(a.probability - b.probability) <= PROB_TOLERANCE
                   for a, b in zip(sequential, tape))


# --------------------------------------------------------------------------- #
# all six aligners: adapted snapshots replay within tolerance (slow tier)
# --------------------------------------------------------------------------- #

@pytest.mark.slow
class TestAllAlignersCompile:
    @pytest.fixture(scope="class")
    def adapted(self):
        from repro.api import adapt
        from repro.datasets import load_dataset
        from repro.train import TrainConfig
        from .conftest import TINY_LM
        source = load_dataset("b2", scale=0.1, seed=0)
        target = load_dataset("fz", scale=0.1, seed=0)
        results = {}
        from repro.train.regression import GOLDEN_ALIGNERS
        for aligner in GOLDEN_ALIGNERS:
            result = adapt(source, target, aligner=aligner,
                           config=TrainConfig(epochs=1, seed=0), seed=0,
                           lm_kwargs=dict(TINY_LM))
            result.extractor.eval()
            result.matcher.eval()
            results[aligner] = ERPipeline(result.extractor, result.matcher)
        return results

    @pytest.mark.parametrize(
        "aligner", ["mmd", "k_order", "grl", "invgan", "invgan_kd", "ed"])
    def test_adapted_snapshot_compiles_and_matches_tape(self, adapted,
                                                        aligner):
        pipeline = adapted[aligner]
        pairs = _ragged_pairs(40, seed=11)
        tape = SequentialScorer(pipeline).score_pairs(pairs)
        compiled_scorer = SequentialScorer(pipeline, compiled=True)
        compiled = compiled_scorer.score_pairs(pairs)
        assert [d.is_match for d in compiled] == [d.is_match for d in tape]
        assert all(abs(a.probability - b.probability) <= PROB_TOLERANCE
                   for a, b in zip(compiled, tape))
        assert compiled_scorer.compiled.stats["failed_shapes"] == 0
        assert compiled_scorer.compiled.stats["compiles"] >= 1
