"""End-to-end ER pipeline: blocking + adapted matching + persistence.

The deployment-facing API: once a matcher has been adapted to a target
domain (via :func:`repro.adapt` or the trainers), an :class:`ERPipeline`
bundles it with a blocker so two raw tables go in and matched id pairs come
out — the full §2 pipeline.  Pipelines persist to a directory and reload
without retraining.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .artifacts import ArtifactStore
from .blocking import OverlapBlocker
from .data import Entity, EntityPair
from .extractors import TransformerExtractor
from .matcher import MlpMatcher
from .nn import load_state, no_grad, save_state
from .text import Vocabulary, encode_batch

#: Inference batches are padded to a multiple of this many rows.  The BLAS
#: GEMM kernels then tile every row count the forward sees without a
#: remainder, which makes a pair's probability independent of its batch:
#: a sweep of seven model shapes found no moved bit at 4, but some at 2
#: (EXPERIMENTS.md, "Batch-invariant scoring").
ROW_MULTIPLE = 4

#: Inference batches are padded with ``[PAD]`` positions to a multiple of
#: this length (capped at ``max_len``), so the sums over positions run
#: without a remainder loop and any bucket length gives the bits of full
#: padding; the same sweep moved bits at 1, 2 and 4, none at 8.
LENGTH_MULTIPLE = 8

#: Pairs per batch of the :meth:`ERPipeline.score_pairs` oracle.
ORACLE_STRIDE = 64


@dataclass(frozen=True)
class MatchDecision:
    """One scored candidate pair."""

    left_id: str
    right_id: str
    probability: float

    @property
    def is_match(self) -> bool:
        return self.probability >= 0.5


class ERPipeline:
    """Blocking + matching over raw entity tables.

    Parameters
    ----------
    extractor / matcher:
        A trained (usually domain-adapted) extractor-matcher pair.
    blocker:
        Candidate generator; defaults to token-overlap blocking.
    threshold:
        Match-probability cut-off for :meth:`match_tables`.
    """

    def __init__(self, extractor: TransformerExtractor, matcher: MlpMatcher,
                 blocker: Optional[OverlapBlocker] = None,
                 threshold: float = 0.5):
        if not 0.0 < threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")
        self.extractor = extractor
        self.matcher = matcher
        self.blocker = blocker or OverlapBlocker()
        self.threshold = threshold
        #: SHA-256 over the snapshot manifest — the identity half of every
        #: :mod:`repro.serve.cache` key.  Set by :meth:`save` and
        #: :meth:`load`; ``None`` for a pipeline that was never persisted.
        self.manifest_digest: Optional[str] = None

    # -- scoring ---------------------------------------------------------- #
    def probabilities(self, ids: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Match probabilities for one padded batch: the inference forward.

        Every engine and :meth:`score_pairs` score through here, in no-grad
        mode.  The batch's rows are padded up to a multiple of
        :data:`ROW_MULTIPLE` by repeating its first row, its positions up
        to a multiple of :data:`LENGTH_MULTIPLE` with ``[PAD]``, and the
        first ``n`` results are returned, so a pair's probability depends
        neither on which other pairs share its batch nor on how far the
        batch is padded (DESIGN.md §6b).
        """
        n, length = ids.shape
        columns = min(-length % LENGTH_MULTIPLE,
                      self.extractor.max_len - length)
        if columns > 0:
            ids = np.pad(ids, ((0, 0), (0, columns)),
                         constant_values=self.extractor.vocab.pad_id)
            mask = np.pad(mask, ((0, 0), (0, columns)))
        rows = -n % ROW_MULTIPLE
        if rows:
            ids = np.concatenate([ids, np.repeat(ids[:1], rows, axis=0)])
            mask = np.concatenate([mask, np.repeat(mask[:1], rows, axis=0)])
        with no_grad():
            return self.matcher.probabilities(
                self.extractor.encode(ids, mask))[:n]

    def score_pairs(self, pairs: Sequence[EntityPair]) -> List[MatchDecision]:
        """Match probability for every candidate pair: the exact oracle.

        Pairs are cut in input order into fixed strides of
        :data:`ORACLE_STRIDE`, each padded to ``max_len``, with no
        bucketing, dedup or cache.  Every serving engine returns exactly
        these probabilities, whatever its scheduler configuration.
        """
        vocab, max_len = self.extractor.vocab, self.extractor.max_len
        probabilities: List[float] = []
        for start in range(0, len(pairs), ORACLE_STRIDE):
            ids, mask = encode_batch(
                [pair.tokens() for pair in pairs[start:start + ORACLE_STRIDE]],
                vocab, max_len)
            probabilities.extend(self.probabilities(ids, mask).tolist())
        return [MatchDecision(pair.left.entity_id, pair.right.entity_id, p)
                for pair, p in zip(pairs, probabilities)]

    def match_tables(self, left_table: Sequence[Entity],
                     right_table: Sequence[Entity]) -> List[Tuple[str, str]]:
        """Blocked + matched id pairs above the threshold."""
        candidates = self.blocker.candidates(left_table, right_table)
        return [(d.left_id, d.right_id) for d in self.score_pairs(candidates)
                if d.probability >= self.threshold]

    # -- persistence ------------------------------------------------------- #
    def save(self, directory: Union[str, Path]) -> None:
        """Persist weights, vocabulary, and configuration to a directory.

        Routed through :class:`repro.artifacts.ArtifactStore`: every file is
        written atomically and checksummed into the directory's manifest, so
        an interrupted save never leaves a half-written snapshot and a later
        :meth:`load` detects any tampering or bit rot.
        """
        store = ArtifactStore(Path(directory))
        with store.lock("pipeline"):
            store.write("extractor.npz",
                        lambda tmp: save_state(self.extractor, tmp))
            store.write("matcher.npz",
                        lambda tmp: save_state(self.matcher, tmp))
            tokens = [self.extractor.vocab.token_of(i)
                      for i in range(len(self.extractor.vocab))]
            store.write_text("vocab.txt", "\n".join(tokens))
            config = {
                "threshold": self.threshold,
                "extractor": {
                    "dim": self.extractor.dim,
                    "num_layers": len(self.extractor.layers),
                    "num_heads": self.extractor.layers[0].attention.num_heads,
                    "max_len": self.extractor.max_len,
                },
                "matcher_feature_dim": self.matcher.feature_dim,
                "blocker": {"min_overlap": self.blocker.min_overlap,
                            "stop_fraction": self.blocker.stop_fraction},
            }
            store.write_json("pipeline.json", config, indent=2)
        self.manifest_digest = store.manifest_digest()

    @classmethod
    def load(cls, directory: Union[str, Path]) -> "ERPipeline":
        """Reload a pipeline saved by :meth:`save`.

        Every artifact is validated before deserialization; a corrupt file is
        quarantined to ``*.corrupt`` and reported via
        :class:`repro.artifacts.ArtifactCorruptError` naming the file and the
        suspected cause.  A trained snapshot has no regenerator, so load
        fails loudly rather than healing silently.
        """
        store = ArtifactStore(Path(directory))
        config = store.read("pipeline.json",
                            lambda p: json.loads(p.read_text()))
        tokens = store.read("vocab.txt",
                            lambda p: p.read_text().split("\n"))
        vocab = Vocabulary(tokens[Vocabulary().num_special:])
        ext_cfg = config["extractor"]
        extractor = TransformerExtractor(
            vocab, np.random.default_rng(0), dim=ext_cfg["dim"],
            num_layers=ext_cfg["num_layers"],
            num_heads=ext_cfg["num_heads"], max_len=ext_cfg["max_len"])
        store.read("extractor.npz", lambda p: load_state(extractor, p))
        matcher = MlpMatcher(config["matcher_feature_dim"],
                             np.random.default_rng(0))
        store.read("matcher.npz", lambda p: load_state(matcher, p))
        blocker = OverlapBlocker(**config["blocker"])
        pipeline = cls(extractor, matcher, blocker,
                       threshold=config["threshold"])
        pipeline.manifest_digest = store.manifest_digest()
        pipeline.extractor.eval()
        pipeline.matcher.eval()
        return pipeline
