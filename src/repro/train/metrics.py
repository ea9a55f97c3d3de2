"""Evaluation metrics: precision, recall, F1 of the matching class (§6.1)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..data import ERDataset
from ..extractors import FeatureExtractor
from ..matcher import MlpMatcher
from ..nn import no_grad


@dataclass(frozen=True)
class MatchMetrics:
    """Precision/recall/F1 over the matching (positive) class."""

    precision: float
    recall: float
    f1: float
    true_positives: int
    false_positives: int
    false_negatives: int

    def as_percent(self) -> "MatchMetrics":
        """The paper reports F1 x 100; convenience view."""
        return MatchMetrics(self.precision * 100, self.recall * 100,
                            self.f1 * 100, self.true_positives,
                            self.false_positives, self.false_negatives)


def match_metrics(labels: Sequence[int],
                  predictions: Sequence[int]) -> MatchMetrics:
    """Compute P/R/F1 exactly as defined in §6.1."""
    labels = np.asarray(labels, dtype=np.int64)
    predictions = np.asarray(predictions, dtype=np.int64)
    if labels.shape != predictions.shape:
        raise ValueError("labels and predictions disagree on length")
    tp = int(((labels == 1) & (predictions == 1)).sum())
    fp = int(((labels == 0) & (predictions == 1)).sum())
    fn = int(((labels == 1) & (predictions == 0)).sum())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return MatchMetrics(precision, recall, f1, tp, fp, fn)


def predict_dataset(extractor: FeatureExtractor, matcher: MlpMatcher,
                    dataset: ERDataset, batch_size: int = 64) -> np.ndarray:
    """Hard 0/1 predictions of (F, M) over a whole dataset."""
    extractor_mode, matcher_mode = extractor.training, matcher.training
    extractor.eval()
    matcher.eval()
    predictions = []
    with no_grad():
        for start in range(0, len(dataset), batch_size):
            batch = dataset.pairs[start:start + batch_size]
            predictions.append(matcher.predict(extractor(batch)))
    if extractor_mode:
        extractor.train()
    if matcher_mode:
        matcher.train()
    return np.concatenate(predictions) if predictions else np.empty(0, int)


def evaluate(extractor: FeatureExtractor, matcher: MlpMatcher,
             dataset: ERDataset, batch_size: int = 64) -> MatchMetrics:
    """F1 of (F, M) on a labeled dataset."""
    predictions = predict_dataset(extractor, matcher, dataset, batch_size)
    return match_metrics(dataset.labels(), predictions)


def best_threshold(probabilities: Sequence[float],
                   labels: Sequence[int]) -> Tuple[float, float]:
    """The decision threshold maximizing F1 on held-out data.

    A standard ER deployment step: sweep the distinct predicted
    probabilities and return ``(threshold, f1)`` of the best cut.  Use the
    *validation* labels, never test.
    """
    probabilities = np.asarray(probabilities, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    if probabilities.shape != labels.shape:
        raise ValueError("probabilities and labels disagree on length")
    if len(labels) == 0:
        raise ValueError("need at least one example")
    candidates = np.unique(np.concatenate([probabilities, [0.5]]))
    best = (0.5, match_metrics(labels,
                               (probabilities >= 0.5).astype(int)).f1)
    for threshold in candidates:
        f1 = match_metrics(labels,
                           (probabilities >= threshold).astype(int)).f1
        if f1 > best[1]:
            best = (float(threshold), f1)
    return best
