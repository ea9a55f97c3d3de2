"""Transformer-LM feature extractor (design choice II of Table 1).

A miniature BERT: token + position embeddings, a stack of pre-norm encoder
blocks, and the [CLS] state as the pair feature — exactly the paper's
Example 1, scaled to run on a CPU.  Transferability comes from masked-LM
pre-training over a multi-domain corpus (see :mod:`repro.pretrain`), which
plays the role of the public BERT checkpoint.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..nn import (Embedding, LayerNorm, Linear, Tensor,
                  TransformerEncoderLayer, additive_mask)
from ..nn.module import Parameter
from ..nn import init
from ..text import Vocabulary
from .base import FeatureExtractor


class TransformerExtractor(FeatureExtractor):
    """Mini-BERT encoder producing [CLS] features for entity pairs.

    Besides token and position embeddings, the input carries an *overlap
    indicator* channel marking tokens that occur in both entity segments.
    A web-scale BERT computes this cross-segment token matching internally
    with pre-trained attention heads; at mini scale we provide the channel
    explicitly (in the spirit of Ditto's span-highlighting optimizations)
    so transferability depends on token *structure*, not token identity —
    which is exactly the property Finding 5 attributes to pre-trained LMs.
    """

    def __init__(self, vocab: Vocabulary, rng: np.random.Generator,
                 dim: int = 64, num_layers: int = 2, num_heads: int = 4,
                 hidden: Optional[int] = None, max_len: int = 64,
                 dropout: float = 0.0):
        super().__init__(vocab, max_len, feature_dim=dim)
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        hidden = hidden or 2 * dim
        self.dim = dim
        self.token_embedding = Embedding(len(vocab), dim, rng,
                                         padding_idx=vocab.pad_id)
        self.position_embedding = Parameter(
            init.normal(rng, (max_len, dim)))
        self.overlap_embedding = Embedding(2, dim, rng)
        self.layers = [TransformerEncoderLayer(dim, num_heads, hidden, rng,
                                               dropout)
                       for __ in range(num_layers)]
        self.final_norm = LayerNorm(dim)

    def overlap_indicators(self, ids: np.ndarray) -> np.ndarray:
        """Per-position 0/1: does this (non-special) token occur on both
        sides of the ``[SEP]`` boundary of its serialized pair?

        Whole-batch vectorized: two (N, V) seen-on-side tables replace the
        old per-row Python loop of set intersections, which dominated the
        serving hot path (no autograd involved, so it never amortized).
        """
        n, t = ids.shape
        sep = self.vocab.sep_id
        special_limit = self.vocab.num_special
        is_sep = ids == sep
        has_sep = is_sep.any(axis=1)
        # Rows without a [SEP] get boundary == t: an empty right side, so
        # nothing can be shared — same zeros the loop produced.
        boundary = np.where(has_sep, is_sep.argmax(axis=1), t)
        columns = np.arange(t)
        eligible = ids >= special_limit
        rows = np.broadcast_to(np.arange(n)[:, None], (n, t))
        seen = np.zeros((2, n, len(self.vocab)), dtype=bool)
        for side, on_side in enumerate((columns[None, :] < boundary[:, None],
                                        columns[None, :] > boundary[:, None])):
            pick = on_side & eligible
            seen[side, rows[pick], ids[pick]] = True
        shared = seen[0] & seen[1]
        return (shared[rows, ids] & eligible).astype(np.int64)

    def _embed(self, ids: np.ndarray,
               mask: np.ndarray) -> Tuple[Tensor, np.ndarray]:
        """Input embeddings (N, T, dim) and the additive attention mask."""
        t = ids.shape[1]
        if t > self.max_len:
            raise ValueError(f"sequence length {t} exceeds max_len "
                             f"{self.max_len}")
        overlap = self.overlap_indicators(ids)
        x = (self.token_embedding(ids) + self.position_embedding[:t]
             + self.overlap_embedding(overlap))
        return x, additive_mask(mask)

    def hidden_states(self, ids: np.ndarray, mask: np.ndarray) -> Tensor:
        """Per-token states (N, T, dim) — used by MLM pre-training."""
        x, bias = self._embed(ids, mask)
        for layer in self.layers:
            x = layer(x, bias)
        return self.final_norm(x)

    def encode(self, ids: np.ndarray, mask: np.ndarray) -> Tensor:
        """The [CLS] features (N, dim): ``hidden_states(ids, mask)[:, 0]``.

        Only the [CLS] row is computed past the last block's keys and
        values (:meth:`TransformerEncoderLayer.first_position`), in
        training and inference alike: the other rows never reach a loss.
        """
        x, bias = self._embed(ids, mask)
        *body, last = self.layers
        for layer in body:
            x = layer(x, bias)
        first = self.final_norm(last.first_position(x, bias))
        return first.reshape(ids.shape[0], self.dim)


class MlmHead(Linear):
    """Masked-language-model head: hidden states -> vocabulary logits."""

    def __init__(self, extractor: TransformerExtractor,
                 rng: np.random.Generator):
        super().__init__(extractor.dim, len(extractor.vocab), rng)
