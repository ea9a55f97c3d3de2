"""Exact t-SNE in numpy, plus a quantitative domain-mixing score (Figure 5).

Figure 5 visualizes source/target features before and after adaptation.  We
reproduce the embedding (exact t-SNE; Barnes-Hut is unnecessary at our
sample sizes) and add :func:`mixing_score` so the visual claim — "source and
target are more mixed after DA" — becomes a measurable, testable quantity.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def _conditional_probabilities(distances_sq: np.ndarray,
                               perplexity: float) -> np.ndarray:
    """Row-wise binary search for precisions matching ``perplexity``."""
    n = distances_sq.shape[0]
    target_entropy = np.log(perplexity)
    probabilities = np.zeros((n, n))
    for i in range(n):
        row = np.delete(distances_sq[i], i)
        low, high = 1e-20, 1e20
        beta = 1.0
        for __ in range(50):
            exponents = np.exp(-row * beta)
            total = exponents.sum()
            if total <= 0:
                beta /= 2
                continue
            p = exponents / total
            entropy = -(p * np.log(np.maximum(p, 1e-12))).sum()
            if abs(entropy - target_entropy) < 1e-5:
                break
            if entropy > target_entropy:
                low = beta
                beta = beta * 2 if high >= 1e20 else (beta + high) / 2
            else:
                high = beta
                beta = beta / 2 if low <= 1e-20 else (beta + low) / 2
        p_full = np.insert(p, i, 0.0)
        probabilities[i] = p_full
    return probabilities


def tsne(features: np.ndarray, perplexity: float = 20.0,
         iterations: int = 300, learning_rate: float = 100.0,
         seed: int = 0, early_exaggeration: float = 4.0) -> np.ndarray:
    """Embed (N, d) features into 2-D with exact t-SNE.

    Standard van-der-Maaten recipe: symmetrized conditional probabilities,
    early exaggeration for the first quarter of the run, momentum gradient
    descent on the KL divergence to a Student-t low-dimensional kernel.
    """
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    if n < 5:
        raise ValueError("t-SNE needs at least a handful of points")
    perplexity = min(perplexity, (n - 1) / 3.0)

    # Imported here, not at module level: `import repro` would otherwise
    # load scipy in every serving process.
    from scipy.spatial.distance import cdist
    distances_sq = cdist(features, features, "sqeuclidean")
    conditional = _conditional_probabilities(distances_sq, perplexity)
    joint = (conditional + conditional.T) / (2.0 * n)
    joint = np.maximum(joint, 1e-12)

    rng = np.random.default_rng(seed)
    embedding = rng.normal(scale=1e-4, size=(n, 2))
    velocity = np.zeros_like(embedding)
    exaggerated = joint * early_exaggeration
    for step in range(iterations):
        p = exaggerated if step < iterations // 4 else joint
        diff = embedding[:, None, :] - embedding[None, :, :]
        dist_sq = (diff ** 2).sum(-1)
        student = 1.0 / (1.0 + dist_sq)
        np.fill_diagonal(student, 0.0)
        q = np.maximum(student / student.sum(), 1e-12)
        coefficient = (p - q) * student
        gradient = 4.0 * (coefficient[:, :, None] * diff).sum(axis=1)
        momentum = 0.5 if step < 50 else 0.8
        velocity = momentum * velocity - learning_rate * gradient
        embedding = embedding + velocity
        embedding = embedding - embedding.mean(axis=0)
    return embedding


def mixing_score(features_source: np.ndarray, features_target: np.ndarray,
                 k: int = 5) -> float:
    """How mixed two clouds are, in [0, 1].

    For every point, count the fraction of its k nearest neighbours from the
    *other* domain and normalize by the chance level.  1.0 = fully mixed
    (Figure 5b after DA), near 0 = fully separated (Figure 5a before DA).
    """
    source = np.asarray(features_source, dtype=np.float64)
    target = np.asarray(features_target, dtype=np.float64)
    n_s, n_t = len(source), len(target)
    if min(n_s, n_t) <= k:
        raise ValueError("need more points than neighbours per domain")
    stacked = np.concatenate([source, target], axis=0)
    labels = np.concatenate([np.zeros(n_s), np.ones(n_t)])
    from scipy.spatial.distance import cdist  # see tsne()
    distances = cdist(stacked, stacked)
    np.fill_diagonal(distances, np.inf)
    neighbours = np.argsort(distances, axis=1)[:, :k]
    other = (labels[neighbours] != labels[:, None]).mean()
    n = n_s + n_t
    chance = (n_s * n_t * 2.0) / (n * (n - 1))
    return float(min(other / chance, 1.0))
