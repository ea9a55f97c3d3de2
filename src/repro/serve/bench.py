"""Test fixtures for the serving stack: a small snapshot and synthetic pairs.

:func:`build_bench_pipeline` persists a small (pre-trained LM + fresh
matcher) snapshot, and :func:`synthetic_candidates` draws short
product-style pairs to score with it.  The pairs are **test fixtures, not
traffic**: their words are outside the LM's vocabulary, so about half of
their tokens encode to ``[UNK]``, and 1,500 of them encode to only 134
distinct sequences.  They exercise equivalence, routing and wire paths;
they measure nothing.  Throughput is measured by ``python -m perf run``,
whose input gates reject exactly this shape.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from ..data import Entity, EntityPair
from ..matcher import MlpMatcher
from ..pipeline import ERPipeline
from ..pretrain import fresh_copy, pretrained_lm

#: Small-LM settings for fixture snapshots (matches the test suite's LM so
#: the checkpoint cache is shared with a normal test run).
BENCH_LM = dict(dim=32, num_layers=1, num_heads=2, max_len=96,
                corpus_scale=0.01, steps=80, seed=0)

_WORDS = ("acoustic", "baseline", "canonical", "digital", "electric",
          "fluent", "gradient", "harmonic", "ivory", "jasper", "kinetic",
          "luminous", "matrix", "nominal", "orbital", "prism", "quartz",
          "radiant", "solstice", "tandem", "umbra", "vector", "willow",
          "xenon", "yonder", "zephyr")


def synthetic_candidates(num_pairs: int, seed: int = 0) -> List[EntityPair]:
    """``num_pairs`` short ``[UNK]``-heavy product-style pairs.

    Each side holds six words (three in ``name``, three in ``maker``);
    about half the pairs perturb one word on the right.  Deterministic
    in ``seed``.
    """
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(num_pairs):
        base = rng.choice(_WORDS, size=6)
        noisy = base.copy()
        if rng.random() < 0.5:  # half the pairs perturb one token
            noisy[rng.integers(len(noisy))] = rng.choice(_WORDS)
        pairs.append(EntityPair(
            Entity(f"l{i}", {"name": " ".join(base[:3]),
                             "maker": " ".join(base[3:])}),
            Entity(f"r{i}", {"name": " ".join(noisy[:3]),
                             "maker": " ".join(noisy[3:])})))
    return pairs


def build_bench_pipeline(directory: Union[str, Path], seed: int = 0,
                         lm_kwargs: Optional[dict] = None) -> Path:
    """Persist a small (pre-trained LM + fresh matcher) pipeline snapshot."""
    extractor, __ = pretrained_lm(**(lm_kwargs or BENCH_LM))
    extractor = fresh_copy(extractor, seed=seed)
    extractor.eval()
    matcher = MlpMatcher(extractor.feature_dim, np.random.default_rng(seed))
    matcher.eval()
    pipeline = ERPipeline(extractor, matcher)
    pipeline.save(directory)
    return Path(directory)
