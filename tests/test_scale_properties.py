"""Hypothesis property tests for the scale pipeline's invariants.

Three contracts the end-to-end bench's determinism rests on:

* union-find clustering is invariant to edge order and duplication;
* LSH banding is a guaranteed-superset filter: any pair whose MinHash
  signatures disagree in fewer than ``bands`` slots shares at least one
  fully-agreeing band (pigeonhole) and must surface as a candidate;
* the chunked table reader is exactly the eager reader — concatenating
  :func:`iter_entity_table` chunks reproduces :func:`load_entity_table`
  for any chunk size.

Under all three sits the signature itself, pinned here against a
pure-Python reference: each row's minimum over its tokens, one token at a
time, of the hash family's limb arithmetic in Python ints.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.data import (Entity, iter_entity_table, load_entity_table,
                        save_entity_table)
from repro.scale import MinHasher, ShardedBlocker, UnionFind, token_hash
from repro.scale.cluster import canonical_clusters
from repro.scale.minhash import _BLOCK_ROWS

SETTINGS = settings(max_examples=50, deadline=None)

ENTITY_IDS = st.sampled_from([f"e{i}" for i in range(12)])
EDGES = st.lists(st.tuples(ENTITY_IDS, ENTITY_IDS), max_size=30)

WORDS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1,
                max_size=6)
TOKEN_SETS = st.sets(WORDS, min_size=1, max_size=8)

#: Attribute values for the chunk round-trip: empty cells decode as None,
#: so generated values are either None or non-empty printable text (commas
#: and quotes included — the csv layer must cope).
VALUES = st.one_of(st.none(), st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz ,\"'0123456789", min_size=1,
    max_size=12).filter(lambda s: s.strip(" ") == s))


class TestUnionFindInvariance:
    @SETTINGS
    @given(EDGES, st.randoms(use_true_random=False))
    def test_partition_invariant_under_permutation_and_duplication(
            self, edges, rnd):
        reference = UnionFind()
        for a, b in edges:
            reference.union(a, b)

        shuffled = edges + rnd.choices(edges, k=len(edges)) if edges else []
        rnd.shuffle(shuffled)
        other = UnionFind()
        for a, b in shuffled:
            if rnd.random() < 0.5:  # edge direction must not matter either
                a, b = b, a
            other.union(a, b)

        assert canonical_clusters(reference) == canonical_clusters(other)

    @SETTINGS
    @given(EDGES)
    def test_canonical_id_is_smallest_member(self, edges):
        dsu = UnionFind()
        for a, b in edges:
            dsu.union(a, b)
        assignments = canonical_clusters(dsu)
        for members in dsu.components().values():
            expected = min(members)
            assert all(assignments[m] == expected for m in members)


class TestLshSupersetGuarantee:
    @settings(max_examples=15, deadline=None)
    @given(st.lists(TOKEN_SETS, min_size=1, max_size=6),
           st.lists(TOKEN_SETS, min_size=1, max_size=6),
           st.integers(min_value=0, max_value=3),
           st.integers(min_value=1, max_value=3))
    def test_pairs_sharing_a_band_are_always_candidates(
            self, left_sets, right_sets, seed, shard_size):
        bands, rows = 8, 2
        hasher = MinHasher(bands=bands, rows=rows, seed=seed)
        left_sigs = hasher.signatures(left_sets)
        right_sigs = hasher.signatures(right_sets)

        blocker = ShardedBlocker(bands=bands, rows=rows,
                                 seed=seed, shard_size=shard_size,
                                 chunk_size=2)
        left = [Entity(f"a{i}", {"text": " ".join(sorted(tokens))})
                for i, tokens in enumerate(left_sets)]
        right = [Entity(f"b{j}", {"text": " ".join(sorted(tokens))})
                 for j, tokens in enumerate(right_sets)]
        candidates = {(p.left.entity_id, p.right.entity_id)
                      for p in blocker.candidates(left, right)}

        for i in range(len(left_sets)):
            for j in range(len(right_sets)):
                disagreements = int((left_sigs[i] != right_sigs[j]).sum())
                if disagreements < bands:  # pigeonhole: one band agrees
                    assert (f"a{i}", f"b{j}") in candidates

    @settings(max_examples=15, deadline=None)
    @given(TOKEN_SETS, st.integers(min_value=0, max_value=3))
    def test_identical_token_sets_always_candidates(self, tokens, seed):
        text = " ".join(sorted(tokens))
        blocker = ShardedBlocker(bands=8, rows=2, seed=seed,
                                 shard_size=1)
        candidates = blocker.candidates([Entity("a0", {"text": text})],
                                        [Entity("b0", {"text": text})])
        assert [(p.left.entity_id, p.right.entity_id)
                for p in candidates] == [("a0", "b0")]


def _reference_permutation(a, b, x):
    """``MinHasher._universal``'s limb formula for one value, in Python ints.

    It is not ``(a * x + b) mod (2^61 - 1)``: the middle limb's shift by
    32 bits and the three-term sum wrap at 2^64 in uint64, and the
    reference makes both wraps explicit.
    """
    prime, wrap, low = (1 << 61) - 1, 1 << 64, (1 << 32) - 1
    hi_a, lo_a, hi_x, lo_x = a >> 32, a & low, x >> 32, x & low
    term_hi = hi_a * hi_x % prime
    term_mid = (hi_a * lo_x + lo_a * hi_x) % prime
    term_lo = lo_a * lo_x % prime
    product = (term_hi * 8 + (term_mid << 32) % wrap % prime
               + term_lo) % wrap % prime
    return (product + b) % prime


def _reference_signature(hasher, tokens):
    """Per permutation, the minimum over the set's tokens; ``2^61 - 1``
    for every permutation of an empty set."""
    if not tokens:
        return [(1 << 61) - 1] * hasher.num_perm
    return [min(_reference_permutation(int(a), int(b), token_hash(t))
                for t in tokens)
            for a, b in zip(hasher._a, hasher._b)]


class TestSignatureExactness:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.sets(WORDS, max_size=8), min_size=1, max_size=6),
           st.one_of(st.integers(0, 40),
                     st.integers(_BLOCK_ROWS - 2, 2 * _BLOCK_ROWS + 2)),
           st.integers(min_value=0, max_value=3),
           st.randoms(use_true_random=False))
    def test_signatures_equal_python_reference(self, pool, rows, seed, rnd):
        # Rows are drawn from a small pool of sets (some empty), so tokens
        # repeat across rows and row counts straddle the reduce block.
        token_sets = rnd.choices(pool, k=rows)
        hasher = MinHasher(seed=seed)
        signatures = hasher.signatures(token_sets)
        assert signatures.shape == (rows, hasher.num_perm)
        assert signatures.dtype == np.uint64
        reference = {frozenset(s): _reference_signature(hasher, s)
                     for s in pool}
        for row, tokens in zip(signatures.tolist(), token_sets):
            assert row == reference[frozenset(tokens)]


class TestChunkedReaderIdentity:
    @SETTINGS
    @given(st.lists(st.tuples(VALUES, VALUES), min_size=1, max_size=20),
           st.integers(min_value=1, max_value=25))
    def test_chunks_concatenate_to_eager_table(self, rows, chunk_size):
        entities = [Entity(f"e{i:03d}", {"name": name, "city": city})
                    for i, (name, city) in enumerate(rows)]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.csv"
            assert save_entity_table(entities, path) == len(entities)

            chunks = list(iter_entity_table(path, chunk_size=chunk_size))
            assert all(0 < len(chunk) <= chunk_size for chunk in chunks)
            assert [e for chunk in chunks for e in chunk] \
                == load_entity_table(path) == entities
