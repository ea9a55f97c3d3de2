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
from .text import Vocabulary


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
    def score_pairs(self, pairs: Sequence[EntityPair],
                    batch_size: int = 64,
                    scheduler=None) -> List[MatchDecision]:
        """Match probability for every candidate pair.

        Batch formation is delegated to a
        :class:`repro.serve.BatchScheduler`.  The default is the *reference*
        policy — fixed stride, every batch padded to ``max_len`` — which is
        the bit-exact baseline the serve engines are regression-tested
        against; pass a bucketing scheduler (or use
        :class:`repro.serve.SequentialScorer`) for the throughput path.
        """
        from .serve.scheduler import BatchScheduler  # serve imports pipeline
        if scheduler is None:
            scheduler = BatchScheduler.reference(
                self.extractor.vocab, self.extractor.max_len, batch_size)
        probabilities = np.full(len(pairs), np.nan, dtype=np.float64)
        with no_grad():
            for batch in scheduler.schedule(pairs):
                batch.scatter(probabilities, self.matcher.probabilities(
                    self.extractor.encode(batch.ids, batch.mask)))
        missing = np.flatnonzero(np.isnan(probabilities))
        if missing.size:
            raise RuntimeError(
                f"scheduler left {missing.size} of {len(pairs)} pairs "
                f"unscored (first positions {missing[:8].tolist()})")
        return [MatchDecision(pair.left.entity_id, pair.right.entity_id,
                              float(p))
                for pair, p in zip(pairs, probabilities)]

    def match_tables(self, left_table: Sequence[Entity],
                     right_table: Sequence[Entity],
                     batch_size: int = 64) -> List[Tuple[str, str]]:
        """Blocked + matched id pairs above the threshold."""
        candidates = self.blocker.candidates(left_table, right_table)
        decisions = self.score_pairs(candidates, batch_size)
        return [(d.left_id, d.right_id) for d in decisions
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
