"""The matcher snapshot and operating point for resolving scale corpora.

:func:`build_e2e_pipeline` trains and persists the NoDA snapshot that
scores a :func:`~repro.scale.generate_scale_corpus` corpus;
``BENCH_BLOCKER`` and ``BENCH_DIRT`` are the blocker operating point and
corpus dirt it is tuned for.  The e2e test tier, CI's 50k-record
resolution and ``python -m perf run`` all build on these three.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Union

import numpy as np

from ..data import target_da_split
from ..datasets import load_dataset
from ..matcher import MlpMatcher
from ..pipeline import ERPipeline
from ..pretrain import fresh_copy, pretrained_lm
from ..serve.bench import BENCH_LM
from ..train import TrainConfig, train_source_only

#: Blocker operating point tuned on the scale corpus (dirt=0.05): 32x4
#: banding catches J >= ~0.42 with near-certainty, and the signature-byte
#: verify at 0.40 sits inside the measured gap between true-match Jaccard
#: (p1 ~ 0.50) and hard-sibling Jaccard (p99 ~ 0.29) — recall > 0.99 with
#: candidates only a hair above the true-match count.
BENCH_BLOCKER = dict(bands=32, rows=4, verify_threshold=0.40)

#: Corpus dirt for the bench (see :mod:`repro.scale.synth`): mild enough
#: that token Jaccard separates matches from hard siblings cleanly.
BENCH_DIRT = 0.05


def build_e2e_pipeline(directory: Union[str, Path], spec: str, seed: int,
                       epochs: int, train_scale: float,
                       lm_kwargs: Optional[dict] = None) -> Dict[str, Any]:
    """Train and persist the matcher snapshot that scores scale corpora.

    NoDA source-only training (:func:`repro.train.train_source_only`) on
    the spec's own labeled dataset: the scale corpus renders the same
    world through the same perturbation family, so the source task is the
    right supervision.  Returns the training record.
    """
    extractor, __ = pretrained_lm(**(lm_kwargs or BENCH_LM))
    extractor = fresh_copy(extractor, seed=seed)
    matcher = MlpMatcher(extractor.feature_dim, np.random.default_rng(seed))
    source = load_dataset(spec, scale=train_scale, seed=seed)
    holdout = load_dataset(spec, scale=train_scale / 2, seed=seed + 1)
    valid, test = target_da_split(holdout, np.random.default_rng(seed))
    config = TrainConfig(epochs=epochs, seed=seed)
    result = train_source_only(extractor, matcher, source, valid, test,
                               config)
    extractor.eval()
    matcher.eval()
    pipeline = ERPipeline(extractor, matcher)
    pipeline.save(directory)
    return {
        "method": result.method,
        "epochs": epochs,
        "train_scale": train_scale,
        "source_pairs": len(source),
        "best_epoch": result.best_epoch,
        "best_valid_f1": result.best_valid_f1,
        "test_f1": result.test_metrics.f1,
    }
