"""Feature Extractor interface: entity pairs -> d-dimensional features.

This is the ``F`` module of the DADER framework (§2): ``x = F(a, b)`` maps a
pair of entities to a vector the Matcher classifies and the Feature Aligner
aligns across domains.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..data import EntityPair
from ..nn import Module, Tensor, no_grad
from ..text import Vocabulary, encode_batch


class FeatureExtractor(Module):
    """Base class for DADER feature extractors.

    Concrete extractors implement :meth:`encode` on pre-tokenized batches;
    this base provides the pair -> token -> id plumbing shared by both the
    RNN and the transformer extractor.
    """

    def __init__(self, vocab: Vocabulary, max_len: int, feature_dim: int):
        super().__init__()
        if max_len <= 2:
            raise ValueError("max_len too small to hold a serialized pair")
        self.vocab = vocab
        self.max_len = max_len
        self.feature_dim = feature_dim

    # -- plumbing ----------------------------------------------------------- #
    def batch_ids(self, pairs: Sequence[EntityPair]) -> Tuple[np.ndarray,
                                                              np.ndarray]:
        """Serialize, encode and pad a batch of pairs -> (ids, mask)."""
        token_lists: List[List[str]] = [pair.tokens() for pair in pairs]
        return encode_batch(token_lists, self.vocab, self.max_len)

    # -- interface ----------------------------------------------------------- #
    def encode(self, ids: np.ndarray, mask: np.ndarray) -> Tensor:
        """Map padded id/mask arrays (N, T) to features (N, d)."""
        raise NotImplementedError

    def forward(self, pairs: Sequence[EntityPair]) -> Tensor:
        ids, mask = self.batch_ids(pairs)
        return self.encode(ids, mask)

    def features(self, pairs: Sequence[EntityPair],
                 batch_size: int = 64) -> np.ndarray:
        """Inference-mode features for a whole dataset, as a numpy array."""
        was_training = self.training
        self.eval()
        chunks = []
        with no_grad():
            for start in range(0, len(pairs), batch_size):
                batch = pairs[start:start + batch_size]
                chunks.append(self.forward(batch).data)
        if was_training:
            self.train()
        return np.concatenate(chunks, axis=0)
