"""Multi-head attention and transformer blocks.

These power both the mini pre-trained LM feature extractor (the paper's BERT
stand-in) and the autoregressive decoder of the ED aligner (the BART
stand-in).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .functional import gelu, softmax
from .layers import Dropout, LayerNorm, Linear
from .module import Module
from .tensor import Tensor


#: Additive bias assigned to positions softmax must ignore.  Also the mask
#: *floor*: padded-and-future positions get one bias, never a stacked two.
MASK_BIAS = -1e9

#: Read-only causal (t, t) bias matrices, one per decoded length — the
#: O(T^2) ``np.triu`` build used to run on every decoder call.
_CAUSAL_BIAS_CACHE: dict = {}


def _causal_bias(t: int) -> np.ndarray:
    bias = _CAUSAL_BIAS_CACHE.get(t)
    if bias is None:
        bias = np.triu(np.ones((t, t)), k=1) * MASK_BIAS
        bias.setflags(write=False)
        _CAUSAL_BIAS_CACHE[t] = bias
    return bias


def additive_mask(attention_mask: np.ndarray, causal: bool = False) -> np.ndarray:
    """Build an additive (N, 1, T_q, T_k) mask from a 0/1 padding mask (N, T).

    Masked positions get a large negative bias so softmax ignores them.  When
    ``causal`` is set, position i may only attend to positions <= i (used by
    the ED decoder); the causal component is cached per length and the
    combined bias is clamped at :data:`MASK_BIAS`, so a position that is both
    padded *and* in the future carries one bias, not a stacked ``-2e9`` —
    a fully-padded query row therefore softmaxes to finite, uniform weights.
    """
    mask = np.asarray(attention_mask, dtype=np.float64)
    n, t = mask.shape
    bias = (1.0 - mask)[:, None, None, :] * MASK_BIAS
    if causal:
        bias = np.maximum(bias + _causal_bias(t)[None, None, :, :], MASK_BIAS)
    return bias


class MultiHeadAttention(Module):
    """Scaled dot-product attention with ``num_heads`` heads."""

    def __init__(self, dim: int, num_heads: int, rng: np.random.Generator,
                 dropout: float = 0.0):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.query = Linear(dim, dim, rng)
        self.key = Linear(dim, dim, rng)
        self.value = Linear(dim, dim, rng)
        self.out = Linear(dim, dim, rng)
        self.dropout = Dropout(dropout, rng)

    def _split_heads(self, x: Tensor, batch: int, length: int) -> Tensor:
        return x.reshape(batch, length, self.num_heads,
                         self.head_dim).transpose(0, 2, 1, 3)

    def forward(self, queries: Tensor, keys: Tensor, values: Tensor,
                bias: Optional[np.ndarray] = None) -> Tensor:
        n, t_q, __ = queries.shape
        t_k = keys.shape[1]
        q = self._split_heads(self.query(queries), n, t_q)
        k = self._split_heads(self.key(keys), n, t_k)
        v = self._split_heads(self.value(values), n, t_k)
        scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(self.head_dim))
        if bias is not None:
            scores = scores + Tensor(bias)
        weights = self.dropout(softmax(scores, axis=-1))
        context = weights @ v
        merged = context.transpose(0, 2, 1, 3).reshape(n, t_q, self.dim)
        return self.out(merged)


class FeedForward(Module):
    """Position-wise feed-forward block with GELU."""

    def __init__(self, dim: int, hidden: int, rng: np.random.Generator,
                 dropout: float = 0.0):
        super().__init__()
        self.expand = Linear(dim, hidden, rng)
        self.contract = Linear(hidden, dim, rng)
        self.dropout = Dropout(dropout, rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.contract(self.dropout(gelu(self.expand(x))))


class TransformerEncoderLayer(Module):
    """Pre-norm transformer encoder block."""

    def __init__(self, dim: int, num_heads: int, hidden: int,
                 rng: np.random.Generator, dropout: float = 0.0):
        super().__init__()
        self.attention = MultiHeadAttention(dim, num_heads, rng, dropout)
        self.feed_forward = FeedForward(dim, hidden, rng, dropout)
        self.norm1 = LayerNorm(dim)
        self.norm2 = LayerNorm(dim)
        self.dropout = Dropout(dropout, rng)

    def forward(self, x: Tensor, bias: Optional[np.ndarray] = None) -> Tensor:
        normed = self.norm1(x)
        x = x + self.dropout(self.attention(normed, normed, normed, bias))
        x = x + self.dropout(self.feed_forward(self.norm2(x)))
        return x

    def first_position(self, x: Tensor,
                       bias: Optional[np.ndarray] = None) -> Tensor:
        """This block's output at position 0 only, shape (N, 1, dim).

        Keys and values still cover every position; the query and the
        residual stream stop at row 0 before attention, so the FFN and
        both norms after it run on one row.  Only attention mixes
        positions, so the row equals ``forward(x, bias)[:, :1]`` up to
        GEMM-shape rounding, gradients included.
        """
        normed = self.norm1(x)
        first = x[:, :1]
        first = first + self.dropout(
            self.attention(normed[:, :1], normed, normed, bias))
        return first + self.dropout(self.feed_forward(self.norm2(first)))


class TransformerDecoderLayer(Module):
    """Pre-norm decoder block: causal self-attention + cross-attention."""

    def __init__(self, dim: int, num_heads: int, hidden: int,
                 rng: np.random.Generator, dropout: float = 0.0):
        super().__init__()
        self.self_attention = MultiHeadAttention(dim, num_heads, rng, dropout)
        self.cross_attention = MultiHeadAttention(dim, num_heads, rng, dropout)
        self.feed_forward = FeedForward(dim, hidden, rng, dropout)
        self.norm1 = LayerNorm(dim)
        self.norm2 = LayerNorm(dim)
        self.norm3 = LayerNorm(dim)

    def forward(self, x: Tensor, memory: Tensor,
                self_bias: Optional[np.ndarray] = None,
                cross_bias: Optional[np.ndarray] = None) -> Tensor:
        normed = self.norm1(x)
        x = x + self.self_attention(normed, normed, normed, self_bias)
        normed = self.norm2(x)
        x = x + self.cross_attention(normed, memory, memory, cross_bias)
        x = x + self.feed_forward(self.norm3(x))
        return x
