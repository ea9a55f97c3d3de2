"""Vectorized MinHash signatures and LSH band keys.

The scale blocker needs a similarity sketch that is (a) cheap enough to
compute for millions of rows, (b) **deterministic across processes and
shard layouts** — the same entity text must produce the same signature no
matter which shard, worker, or run computes it — and (c) compact enough to
spill through :mod:`repro.artifacts`.

MinHash over the entity's token set delivers all three:

* tokens hash to 64-bit integers through blake2b (Python's builtin
  ``hash`` is salted per process and would break cross-process
  determinism; a per-process memo table keeps the amortized cost at one
  dict hit per token occurrence);
* ``num_perm`` permutations are simulated with universal-style hashing
  ``(a * x + b) mod p`` over a Mersenne prime, in 32-bit limbs (see
  :meth:`MinHasher._universal` for where it departs from the exact
  family), with ``(a, b)`` drawn once from a seeded generator.  A
  chunk's *distinct* token hashes are permuted once, in one broadcasted
  numpy expression; each row's signature is then a gather of its tokens'
  columns plus a segmented ``minimum.reduceat``, a fixed block of rows
  at a time, so memory follows the chunk's vocabulary and the block, not
  its token occurrences;
* signatures fold into ``bands`` LSH keys of ``rows`` hashes each
  (``num_perm = bands * rows``); two entities collide in a band iff that
  band's ``rows`` MinHash values all agree, so a pair with token-set
  Jaccard ``J`` is emitted as a candidate with probability
  ``1 - (1 - J^rows)^bands`` — the classic S-curve with threshold
  ``(1 / bands) ** (1 / rows)``.

Two deterministic guarantees (both pinned by property tests) fall out of
the construction and are what the clustering stage's shard-invariance
relies on:

* identical token sets ⇒ identical signatures ⇒ candidate;
* fewer than ``bands`` mismatched signature rows ⇒ by pigeonhole at least
  one intact band ⇒ candidate.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Sequence, Set

import numpy as np

#: Mersenne prime 2^61 - 1: universal-hash modulus with uint64 headroom.
_PRIME = (1 << 61) - 1

#: Default signature shape: 32 bands x 4 rows = 128 permutations, an LSH
#: S-curve threshold of (1/32)^(1/4) ~= 0.42 Jaccard — loose enough to keep
#: every perturbed rendering of one entity, sharp enough that unrelated
#: rows collide rarely.
DEFAULT_BANDS = 32
DEFAULT_ROWS = 4

#: Rows per gather-and-reduce block of :meth:`MinHasher.signatures`: the
#: ``(num_perm, occurrences)`` gather exists for one block at a time.
_BLOCK_ROWS = 512

#: Distinct tokens per column block of :meth:`MinHasher._universal`: one
#: block's ``(num_perm, columns)`` limb temporaries stay in cache.
_UNIVERSAL_COLUMNS = 256

_token_memo: Dict[str, int] = {}


def token_hash(token: str) -> int:
    """Stable 61-bit hash of one token (process- and shard-invariant)."""
    cached = _token_memo.get(token)
    if cached is None:
        digest = hashlib.blake2b(token.encode("utf-8"),
                                 digest_size=8).digest()
        cached = int.from_bytes(digest, "little") % _PRIME
        if len(_token_memo) < 1 << 20:  # bound the memo on hostile vocab
            _token_memo[token] = cached
    return cached


def _mod_prime(values: np.ndarray) -> np.ndarray:
    """``values mod (2^61 - 1)`` for uint64 ``values``, without division.

    ``2^61 ≡ 1``, so the high 3 bits fold onto the low 61, which leaves a
    value below ``2 * PRIME``; one conditional subtract finishes.  On
    unsigned ints ``v - PRIME`` wraps above ``v`` when ``v < PRIME``, so
    the minimum picks the reduced value.
    """
    folded = (values & np.uint64(_PRIME)) + (values >> np.uint64(61))
    return np.minimum(folded, folded - np.uint64(_PRIME))


class MinHasher:
    """Signature factory for a fixed ``(bands, rows, seed)`` configuration.

    Two hashers with equal configuration produce bit-identical signatures
    for equal token sets — in any process, over any sharding.
    """

    def __init__(self, bands: int = DEFAULT_BANDS, rows: int = DEFAULT_ROWS,
                 seed: int = 0):
        if bands < 1 or rows < 1:
            raise ValueError("bands and rows must be >= 1")
        self.bands = bands
        self.rows = rows
        self.seed = seed
        self.num_perm = bands * rows
        # Namespace the seed so a user seed of 0 here never correlates
        # with seed 0 elsewhere in the repo.
        salt = int.from_bytes(
            hashlib.blake2b(b"repro.scale.minhash", digest_size=8).digest(),
            "little")
        rng = np.random.default_rng((salt, seed))
        self._a = rng.integers(1, _PRIME, size=self.num_perm,
                               dtype=np.uint64)
        self._b = rng.integers(0, _PRIME, size=self.num_perm,
                               dtype=np.uint64)
        # Salt per band index so equal row values in different bands can
        # never alias to one bucket key.
        self._band_salt = rng.integers(1, _PRIME, size=bands,
                                       dtype=np.uint64)

    @property
    def threshold(self) -> float:
        """The S-curve midpoint ``(1/bands)^(1/rows)``: pairs with Jaccard
        above it are candidates with probability > 1 - 1/e."""
        return float((1.0 / self.bands) ** (1.0 / self.rows))

    # -- signatures --------------------------------------------------------- #
    def signatures(self, token_sets: Sequence[Set[str]]) -> np.ndarray:
        """``(len(token_sets), num_perm)`` uint64 signature matrix.

        Each distinct token hash of the call is permuted under every
        universal hash once.  Then, :data:`_BLOCK_ROWS` rows at a time, the
        rows' token columns are gathered and reduced per entity with
        ``minimum.reduceat``.  An empty token set gets the all-``PRIME``
        sentinel signature (it can never collide with a non-empty one,
        because ``(a * x + b) mod p < p``).
        """
        count = len(token_sets)
        out = np.full((count, self.num_perm), _PRIME, dtype=np.uint64)
        lengths = np.fromiter((len(s) for s in token_sets), dtype=np.int64,
                              count=count)
        total = int(lengths.sum())
        if total == 0:
            return out
        flat = np.fromiter((token_hash(token) for token_set in token_sets
                            for token in token_set),
                           dtype=np.uint64, count=total)
        # Keep the input 1-D: ``return_inverse``'s shape for n-d input
        # differs across numpy releases.
        distinct, inverse = np.unique(flat, return_inverse=True)
        # (num_perm, distinct): every permutation over every distinct token.
        hashed = self._universal(distinct)
        starts = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(lengths, out=starts[1:])
        for first in range(0, count, _BLOCK_ROWS):
            last = min(first + _BLOCK_ROWS, count)
            nonempty = first + np.flatnonzero(lengths[first:last])
            if nonempty.size == 0:
                continue
            # np.take returns a C-ordered gather; fancy indexing an
            # F-ordered one, on which reduceat runs over 2x slower.
            block = np.take(hashed, inverse[starts[first]:starts[last]],
                            axis=1)
            out[nonempty] = np.minimum.reduceat(
                block, starts[nonempty] - starts[first], axis=1).T
        return out

    def _universal(self, values: np.ndarray) -> np.ndarray:
        """``(a * x + b) mod PRIME`` for every permutation, in 32-bit limbs.

        uint64 multiplication would overflow, so the product is computed
        in 32-bit limbs; all arithmetic stays vectorized numpy, one block
        of :data:`_UNIVERSAL_COLUMNS` values at a time.  It is not the
        exact family: ``term_mid << 32`` keeps only the middle limb's low
        32 bits.  It is still a fixed, deterministic family, pinned against
        a Python-int reference in ``tests/test_scale_properties.py``;
        making it exact would change every signature and candidate stream.
        """
        out = np.empty((self.num_perm, values.size), dtype=np.uint64)
        a = self._a[:, None]
        b = self._b[:, None]
        lo_a = a & np.uint64(0xFFFFFFFF)
        hi_a = a >> np.uint64(32)
        for first in range(0, values.size, _UNIVERSAL_COLUMNS):
            columns = slice(first, first + _UNIVERSAL_COLUMNS)
            x = values[None, columns]
            lo_x = x & np.uint64(0xFFFFFFFF)
            hi_x = x >> np.uint64(32)
            # a*x = hi_a*hi_x*2^64 + (hi_a*lo_x + lo_a*hi_x)*2^32
            # + lo_a*lo_x, reduced term by term modulo 2^61 - 1 (2^64 ≡ 8).
            # a and x are below 2^61, so hi_a*hi_x < 2^58 is already reduced.
            term_hi = hi_a * hi_x
            term_mid = _mod_prime(hi_a * lo_x + lo_a * hi_x)
            term_lo = _mod_prime(lo_a * lo_x)
            product = _mod_prime(term_hi * np.uint64(8)
                                 + _mod_prime(term_mid << np.uint64(32))
                                 + term_lo)
            out[:, columns] = _mod_prime(product + b)
        return out

    def token_sets(self, texts: Iterable[str]) -> List[Set[str]]:
        """Tokenize entity texts into the sets :meth:`signatures` expects."""
        from ..text import tokenize
        return [set(tokenize(text)) for text in texts]

    # -- banding ------------------------------------------------------------ #
    def band_keys(self, signatures: np.ndarray) -> np.ndarray:
        """``(n, bands)`` uint64 LSH bucket keys.

        Each band's ``rows`` signature values fold into one key through a
        polynomial roll over the Mersenne prime, salted by band index.  Two
        entities share a band bucket iff their keys for that band are equal
        (up to negligible 2^-61 fold collisions).
        """
        if signatures.ndim != 2 or signatures.shape[1] != self.num_perm:
            raise ValueError(
                f"signatures must be (n, {self.num_perm}), "
                f"got {signatures.shape}")
        n = signatures.shape[0]
        grouped = signatures.reshape(n, self.bands, self.rows)
        keys = np.zeros((n, self.bands), dtype=np.uint64)
        for row in range(self.rows):
            keys = self._fold(keys, grouped[:, :, row])
        return self._fold(keys, self._band_salt[None, :])

    @staticmethod
    def _fold(acc: np.ndarray, value: np.ndarray) -> np.ndarray:
        """One polynomial-rolling step ``acc * 31 + value mod PRIME``."""
        return (acc * np.uint64(31) + value % _PRIME) % _PRIME

    def config(self) -> Dict[str, int]:
        """The identity triple spilled next to every signature shard."""
        return {"bands": self.bands, "rows": self.rows, "seed": self.seed}


def jaccard(a: Set[str], b: Set[str]) -> float:
    """Exact token-set Jaccard similarity (test / analysis helper)."""
    if not a and not b:
        return 1.0
    union = len(a | b)
    return len(a & b) / union if union else 0.0
