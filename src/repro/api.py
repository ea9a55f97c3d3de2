"""Top-level convenience API.

Wraps the full §6.1 protocol in two calls::

    from repro import adapt, load_dataset

    source = load_dataset("dblp_acm", scale=0.2)
    target = load_dataset("dblp_scholar", scale=0.2)
    result = adapt(source, target, aligner="mmd", seed=0)
    print(result.best_f1)
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .aligners import make_aligner
from .data import ERDataset, target_da_split
from .datasets import load_dataset
from .matcher import MlpMatcher
from .pretrain import fresh_copy, pretrained_lm
from .resilience import ChaosConfig, Events, GuardRail, TrainingDiverged
from .train import (AdaptationResult, TrainConfig, train_gan, train_joint,
                    train_source_only)

_GAN_ALIGNERS = {"invgan", "invgan_kd", "invgankd"}


def _prepare(source: ERDataset, target: ERDataset, seed: int,
             lm_kwargs: Optional[dict]):
    if not source.is_labeled:
        raise ValueError("the source dataset must be labeled")
    if not target.is_labeled:
        raise ValueError(
            "pass the target with labels; adapt() strips training labels "
            "itself and uses them only for the valid/test protocol of §6.1")
    valid, test = target_da_split(target, np.random.default_rng(seed + 1))
    base, __ = pretrained_lm(**(lm_kwargs or {}))
    extractor = fresh_copy(base, seed=seed)
    matcher = MlpMatcher(extractor.feature_dim, np.random.default_rng(seed))
    return extractor, matcher, valid, test


def adapt(source: ERDataset, target: ERDataset, aligner: str = "mmd",
          config: Optional[TrainConfig] = None, seed: int = 0,
          lm_kwargs: Optional[dict] = None) -> AdaptationResult:
    """Adapt an ER matcher from labeled ``source`` to unlabeled ``target``.

    ``aligner`` is any Table 1 name: ``mmd``, ``k_order``, ``grl``,
    ``invgan``, ``invgan_kd``, or ``ed``.  Target labels are used only for
    the 1:9 validation/test protocol of the paper, never for training.
    """
    extractor, matcher, valid, test = _prepare(source, target, seed,
                                               lm_kwargs)
    config = config or TrainConfig(seed=seed)
    module = make_aligner(
        aligner, extractor.feature_dim, np.random.default_rng(seed + 3),
        vocab=extractor.vocab if aligner == "ed" else None,
        max_len=extractor.max_len if aligner == "ed" else 64)
    key = aligner.strip().lower().replace("-", "_").replace("+", "_")
    trainer = train_gan if key in _GAN_ALIGNERS else train_joint
    return trainer(extractor, matcher, module, source,
                   target.without_labels(), valid, test, config)


def no_da(source: ERDataset, target: ERDataset,
          config: Optional[TrainConfig] = None, seed: int = 0,
          lm_kwargs: Optional[dict] = None) -> AdaptationResult:
    """The NoDA baseline: train on source only, evaluate on target."""
    extractor, matcher, valid, test = _prepare(source, target, seed,
                                               lm_kwargs)
    config = config or TrainConfig(seed=seed)
    return train_source_only(extractor, matcher, source, valid, test, config)

