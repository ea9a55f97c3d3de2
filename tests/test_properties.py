"""Hypothesis property tests for the text substrate and blocking.

These lock the *invariants* the serving engine builds on: tokenization
round-trips, padding preserves content and reports it faithfully in the
mask, the scheduler's memoized pair encoding equals the serialized pair's
ids, and blockers only ever emit a duplicate-free subset of the cartesian
product.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.blocking import OverlapBlocker, QGramBlocker
from repro.data import Entity, EntityPair
from repro.serve.scheduler import BatchScheduler
from repro.text import (SPECIAL_TOKENS, Vocabulary, bucket_by_length,
                        pad_sequences, tokenize)

#: Plain lowercase word tokens — the shape tokenize() emits for normal text.
WORDS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1,
                max_size=8)

SETTINGS = settings(max_examples=50, deadline=None)


class TestTokenizerRoundTrip:
    @SETTINGS
    @given(st.lists(WORDS, min_size=1, max_size=20))
    def test_tokenize_is_identity_on_word_tokens(self, words):
        assert tokenize(" ".join(words)) == words

    @SETTINGS
    @given(st.lists(WORDS, min_size=1, max_size=20))
    def test_encode_decode_round_trip(self, words):
        vocab = Vocabulary(words)
        ids = vocab.encode_tokens(words)
        assert vocab.decode(ids, skip_special=True) == words

    @SETTINGS
    @given(st.lists(WORDS, min_size=1, max_size=10))
    def test_specials_survive_serialization_and_drop_on_decode(self, words):
        vocab = Vocabulary(words)
        tokens = ["[CLS]", *words, "[SEP]"]
        reparsed = tokenize(" ".join(tokens))
        assert reparsed == tokens
        assert vocab.decode(vocab.encode_tokens(reparsed)) == words

    @SETTINGS
    @given(st.lists(WORDS, min_size=1, max_size=20))
    def test_unknown_tokens_map_to_unk_not_crash(self, words):
        vocab = Vocabulary()  # no body tokens at all
        ids = vocab.encode_tokens(words)
        assert all(i == vocab.unk_id for i in ids)


class TestPadSequencesInvariants:
    @SETTINGS
    @given(st.lists(st.lists(st.integers(9, 500), min_size=0, max_size=30),
                    min_size=0, max_size=12),
           st.integers(1, 24))
    def test_shape_mask_and_content(self, sequences, max_len):
        pad_id = 0
        ids, mask = pad_sequences(sequences, max_len, pad_id)
        assert ids.shape == (len(sequences), max_len)
        assert mask.shape == (len(sequences), max_len)
        assert ids.dtype == np.int64
        assert set(np.unique(mask)).issubset({0.0, 1.0})
        for row, seq in enumerate(sequences):
            kept = min(len(seq), max_len)
            # mask counts exactly the surviving tokens, as a prefix
            assert mask[row].sum() == kept
            assert (mask[row, :kept] == 1.0).all()
            # surviving ids are the sequence prefix; the rest is padding
            assert ids[row, :kept].tolist() == list(seq[:kept])
            assert (ids[row, kept:] == pad_id).all()

    @SETTINGS
    @given(st.lists(st.integers(0, 200), min_size=0, max_size=40),
           st.integers(1, 16), st.integers(1, 64))
    def test_bucket_by_length_partitions_and_bounds(self, lengths, rounding,
                                                    max_len):
        buckets = bucket_by_length(lengths, rounding, max_len)
        flat = sorted(i for members in buckets.values() for i in members)
        assert flat == list(range(len(lengths)))  # exact partition
        for padded, members in buckets.items():
            assert 1 <= padded <= max_len
            assert padded % rounding == 0 or padded == max_len
            for i in members:
                assert min(lengths[i], max_len) <= padded


#: Attribute names and values that stress the per-call encode memo:
#: bracketed specials in value text, values equal to attribute names,
#: non-``str`` values that are one dict key but three strings, and text
#: long enough to be cut at ``max_len``.
ATTRIBUTE_NAMES = st.sampled_from(["name", "city", "price", "1", "[val]"])
ATTRIBUTE_VALUES = st.one_of(
    st.none(),
    st.sampled_from(["name", "city", "[sep]", "the [SEP] end", "1.5",
                     "joe's diner 1995", ""]),
    st.sampled_from([1, 1.0, True, 0, 2.5]),
    st.text(alphabet="ab1. [sep]", max_size=24))
ENTITIES = st.builds(lambda attributes: Entity("e", attributes),
                     st.dictionaries(ATTRIBUTE_NAMES, ATTRIBUTE_VALUES,
                                     max_size=4))


@st.composite
def pair_lists(draw):
    """Pairs over a small entity pool, so one call repeats values."""
    pool = draw(st.lists(ENTITIES, min_size=1, max_size=5))
    index = st.integers(0, len(pool) - 1)
    picks = draw(st.lists(st.tuples(index, index), max_size=10))
    return [EntityPair(pool[i], pool[j]) for i, j in picks]


class TestSchedulerEncode:
    @SETTINGS
    @given(pair_lists(), st.integers(3, 40))
    def test_encode_equals_serialized_pair_ids(self, pairs, max_len):
        vocab = Vocabulary(["name", "city", "1", "1.5", "true", "the",
                            "end", "joe", "'", "1995", "a", "b"])
        scheduler = BatchScheduler(vocab, max_len)
        assert scheduler.encode(pairs) == [
            vocab.encode_tokens(pair.tokens())[:max_len] for pair in pairs]


def _entities(prefix, token_lists):
    return [Entity(f"{prefix}{i}", {"text": " ".join(tokens)})
            for i, tokens in enumerate(token_lists)]


#: Small shared alphabet so overlap actually happens.
SMALL_WORDS = st.sampled_from(
    ["ada", "bolt", "cove", "dune", "echo", "fern", "gale", "hale"])
TABLES = st.lists(st.lists(SMALL_WORDS, min_size=1, max_size=6),
                  min_size=1, max_size=8)


class TestBlockerProperties:
    @SETTINGS
    @given(TABLES, TABLES, st.integers(1, 3))
    def test_overlap_subset_no_duplicates_and_shared_tokens(
            self, left_tokens, right_tokens, min_overlap):
        left = _entities("l", left_tokens)
        right = _entities("r", right_tokens)
        blocker = OverlapBlocker(min_overlap=min_overlap, stop_fraction=1.0)
        candidates = blocker.candidates(left, right)
        ids = [(p.left.entity_id, p.right.entity_id) for p in candidates]
        # no duplicate pairs
        assert len(ids) == len(set(ids))
        # subset of the cartesian product
        universe = {(a.entity_id, b.entity_id) for a in left for b in right}
        assert set(ids).issubset(universe)
        # every surviving pair genuinely shares >= min_overlap tokens
        for pair in candidates:
            shared = (set(tokenize(pair.left.text()))
                      & set(tokenize(pair.right.text())))
            assert len(shared) >= min_overlap

    @SETTINGS
    @given(TABLES, TABLES)
    def test_qgram_subset_no_duplicates(self, left_tokens, right_tokens):
        left = _entities("l", left_tokens)
        right = _entities("r", right_tokens)
        candidates = QGramBlocker(threshold=0.3).candidates(left, right)
        ids = [(p.left.entity_id, p.right.entity_id) for p in candidates]
        assert len(ids) == len(set(ids))
        universe = {(a.entity_id, b.entity_id) for a in left for b in right}
        assert set(ids).issubset(universe)

    @SETTINGS
    @given(TABLES, TABLES)
    def test_streaming_blocker_equals_batch(self, left_tokens, right_tokens):
        left = _entities("l", left_tokens)
        right = _entities("r", right_tokens)
        blocker = OverlapBlocker(min_overlap=1, stop_fraction=1.0)
        assert list(blocker.iter_candidates(left, right)) == \
            blocker.candidates(left, right)
