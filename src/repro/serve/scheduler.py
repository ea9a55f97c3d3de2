"""Length-aware batch formation for the scoring engines.

Pairs are bucketed by padded length (multiples of ``bucket_rounding``),
and each bucket is cut into batches capped both by pair count and by total
padded tokens, so one batch never blows past the memory/latency budget
regardless of sequence length; with attention cost quadratic in sequence
length, short pairs no longer pay for padding they never use.

Exact duplicates are common in serving traffic (overlapping blocking
windows, repeated ``score_tables`` calls, near-clone records), so
:meth:`BatchScheduler.schedule` always runs a dedup pass: pairs whose
*encoded, truncated* token sequences are identical are scored once and the
single probability is scattered to every original position through the
batch's ``(indices, rows)`` mapping.

Numerics: none of this moves a bit.
:meth:`repro.pipeline.ERPipeline.probabilities` aligns every batch's rows
and positions before the forward, so a pair's probability depends neither
on how far its bucket pads it nor on which pairs share its batch.  Every
scheduler configuration therefore yields exactly the probabilities of the
fixed-stride oracle :meth:`~repro.pipeline.ERPipeline.score_pairs`
(DESIGN.md §6b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..data import EntityPair
from ..text import (ATT, VAL, Vocabulary, bucket_by_length,
                    pad_sequences, tokenize)


@dataclass(frozen=True)
class ScheduledBatch:
    """One ready-to-score numpy batch plus its provenance.

    Row ``rows[j]`` of the batch produces the probability for position
    ``indices[j]`` of the original pair sequence — consumers scatter scores
    back through :meth:`scatter`, so any bucketing, reordering, or
    deduplication inside the scheduler is invisible to callers.  Without
    duplicates ``rows`` is simply ``arange(num_pairs)`` and ``indices`` has
    one entry per scored row; a deduplicated batch covers more positions
    than it scores rows.
    """

    indices: np.ndarray   # (k,) int64 positions into the scheduled sequence
    ids: np.ndarray       # (n, T) int64 token ids
    mask: np.ndarray      # (n, T) float64 padding mask
    rows: np.ndarray = field(default=None)  # (k,) int64 batch row per position

    def __post_init__(self):
        if self.rows is None:
            object.__setattr__(
                self, "rows", np.arange(self.ids.shape[0], dtype=np.int64))

    @property
    def num_pairs(self) -> int:
        """Rows actually scored (unique sequences in this batch)."""
        return int(self.ids.shape[0])

    @property
    def num_covered(self) -> int:
        """Original positions this batch resolves (>= ``num_pairs``)."""
        return int(self.indices.shape[0])

    @property
    def padded_length(self) -> int:
        return int(self.ids.shape[1])

    @property
    def row_positions(self) -> np.ndarray:
        """One representative original position per scored row (first wins)."""
        __, first = np.unique(self.rows, return_index=True)
        return self.indices[first]

    def scatter(self, out: np.ndarray, probabilities: np.ndarray) -> None:
        """Write per-row ``probabilities`` to every position this batch covers."""
        if probabilities.shape != (self.num_pairs,):
            raise ValueError(
                f"probabilities shape {probabilities.shape} does not match "
                f"{self.num_pairs} scheduled rows")
        out[self.indices] = probabilities[self.rows]


class BatchScheduler:
    """Bucket candidate pairs by padded length into size-capped batches.

    Parameters
    ----------
    vocab / max_len:
        The extractor's vocabulary and maximum sequence length; sequences
        longer than ``max_len`` are truncated exactly as the extractor's own
        encoding would.
    max_batch_pairs:
        Hard cap on pairs per batch.
    max_batch_tokens:
        Cap on ``pairs * padded_length`` per batch, so long-sequence buckets
        get proportionally smaller batches.  The default holds one batch's
        forward working set near 5 MB, which the process keeps resident
        between batches (:mod:`repro._memory`).
    bucket_rounding:
        Padded lengths are rounded up to multiples of this; 1 buckets by
        exact length, larger values trade a little padding for fewer, fuller
        buckets.
    """

    def __init__(self, vocab: Vocabulary, max_len: int,
                 max_batch_pairs: int = 128, max_batch_tokens: int = 4096,
                 bucket_rounding: int = 8):
        if max_len <= 0:
            raise ValueError("max_len must be positive")
        if max_batch_pairs <= 0:
            raise ValueError("max_batch_pairs must be positive")
        if max_batch_tokens < max_len:
            raise ValueError("max_batch_tokens must hold at least one "
                             "max_len sequence")
        if bucket_rounding <= 0:
            raise ValueError("bucket_rounding must be positive")
        self.vocab = vocab
        self.max_len = max_len
        self.max_batch_pairs = max_batch_pairs
        self.max_batch_tokens = max_batch_tokens
        self.bucket_rounding = bucket_rounding

    # -- scheduling -------------------------------------------------------- #
    def encode(self, pairs: Sequence[EntityPair]) -> List[List[int]]:
        """Truncated token-id sequences, exactly as scheduled batches carry
        them — also the content half of a :mod:`repro.serve.cache` key.

        Equal to ``vocab.encode_tokens(pair.tokens())[:max_len]``, but each
        distinct attribute name and value is tokenized and looked up once
        per call: ``[ATT] name [VAL]`` and value ids are memoized in two
        dicts local to the call, keyed on ``str(...)`` (``1``, ``1.0`` and
        ``True`` are one dict key but three strings), and concatenated into
        ``[CLS] S(a) [SEP] S(b) [SEP]``.
        """
        encode_tokens = self.vocab.encode_tokens
        names: Dict[str, List[int]] = {}
        values: Dict[str, List[int]] = {}

        def serialize(attributes) -> List[int]:
            ids: List[int] = []
            for attr, value in attributes.items():
                key = str(attr)
                framed = names.get(key)
                if framed is None:
                    framed = names[key] = encode_tokens(
                        [ATT, *tokenize(key), VAL])
                ids += framed
                if value is not None:
                    key = str(value)
                    body = values.get(key)
                    if body is None:
                        body = values[key] = encode_tokens(tokenize(key))
                    ids += body
            return ids

        cls, sep = [self.vocab.cls_id], [self.vocab.sep_id]
        return [(cls + serialize(pair.left.attributes) + sep
                 + serialize(pair.right.attributes) + sep)[:self.max_len]
                for pair in pairs]

    def _cut(self, order: Sequence[int], padded_length: int) -> Iterator[List[int]]:
        """Cut an index list into batches respecting both caps."""
        by_tokens = max(1, self.max_batch_tokens // padded_length)
        size = min(self.max_batch_pairs, by_tokens)
        for start in range(0, len(order), size):
            yield list(order[start:start + size])

    def _dedup(self, encoded: Sequence[Sequence[int]]
               ) -> Tuple[List[Sequence[int]], List[List[int]]]:
        """Collapse exact-duplicate sequences; returns (unique, groups).

        ``groups[u]`` lists the local indices whose encoding is
        ``unique[u]``, in first-occurrence order.
        """
        unique: List[Sequence[int]] = []
        groups: List[List[int]] = []
        seen: Dict[Tuple[int, ...], int] = {}
        for local, seq in enumerate(encoded):
            key = tuple(seq)
            slot = seen.get(key)
            if slot is None:
                seen[key] = len(unique)
                unique.append(seq)
                groups.append([local])
            else:
                groups[slot].append(local)
        return unique, groups

    def schedule(self, pairs: Sequence[EntityPair]
                 ) -> Iterator[ScheduledBatch]:
        """Yield encoded, padded batches covering ``pairs`` exactly once."""
        yield from self.schedule_encoded(self.encode(pairs))

    def schedule_encoded(self, encoded: Sequence[Sequence[int]],
                         positions: Optional[np.ndarray] = None
                         ) -> Iterator[ScheduledBatch]:
        """Schedule pre-encoded sequences; ``positions`` labels each sequence
        with the index its score must land on (default ``arange``).

        The engines use this to schedule only cache *misses* while keeping
        batch ``indices`` addressed into the full request.
        """
        if not len(encoded):
            return
        if positions is None:
            positions = np.arange(len(encoded), dtype=np.int64)
        else:
            positions = np.asarray(positions, dtype=np.int64)
            if positions.shape != (len(encoded),):
                raise ValueError("positions must label every encoded sequence")
        encoded, groups = self._dedup(encoded)
        buckets = bucket_by_length([len(seq) for seq in encoded],
                                   self.bucket_rounding, self.max_len)
        for padded_length in sorted(buckets):
            for chunk in self._cut(buckets[padded_length], padded_length):
                ids, mask = pad_sequences([encoded[i] for i in chunk],
                                          padded_length, self.vocab.pad_id)
                covered = [(positions[local], row)
                           for row, unique_index in enumerate(chunk)
                           for local in groups[unique_index]]
                indices = np.asarray([c[0] for c in covered], dtype=np.int64)
                rows = np.asarray([c[1] for c in covered], dtype=np.int64)
                yield ScheduledBatch(indices=indices, ids=ids, mask=mask,
                                     rows=rows)
