"""Per-snapshot probability calibration for risk-aware serving.

The matcher's raw softmax probabilities drive the 0.5 decision cut, but a
risk router needs more than an argmax: it needs to know how much a 0.62
actually means for *this* snapshot on *this* domain.  Domain adaptation
moves the feature distribution under the matcher, so the raw scores of an
adapted snapshot are routinely over- or under-confident even when F1 holds
(:mod:`repro.analysis.calibration` measures exactly this drift).

This module closes the gap with classic Platt scaling: fit a two-parameter
logistic map ``q = sigmoid(a * logit(p) + b)`` against held-out validation
labels, per snapshot, and persist it *inside* the snapshot's
:class:`~repro.artifacts.ArtifactStore` as ``calibration.json``.  Because
the store's ``MANIFEST.json`` checksums every artifact and
``manifest_digest()`` hashes the manifest, a recalibrated snapshot gets a
**new digest** — so the content-addressed score cache and the digest
every daemon reply carries both pick up a calibration change with zero
extra plumbing.

The fit is a deterministic Newton solve (no RNG, no wall clock) with
Platt's target smoothing, so degenerate validation sets (all one class,
perfectly separable scores) converge to finite parameters instead of
diverging weights.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..analysis.calibration import expected_calibration_error
from ..artifacts import ArtifactCorruptError, ArtifactStore
from ..data import ERDataset

logger = logging.getLogger("repro.risk")

#: Artifact name the calibrator persists under, inside the snapshot store.
CALIBRATION_NAME = "calibration.json"

#: Probabilities are clipped into ``[EPS, 1-EPS]`` before the logit.
EPS = 1e-7


@dataclass(frozen=True)
class Calibrator:
    """A fitted Platt map ``q = sigmoid(a * logit(p) + b)``.

    ``ece_before`` / ``ece_after`` record the validation ECE around the
    fit, and ``num_pairs`` how many labeled pairs produced it — enough for
    ``repro risk-report`` to summarize a snapshot's calibration without
    re-scoring anything.
    """

    a: float
    b: float
    method: str = "platt"
    ece_before: float = 0.0
    ece_after: float = 0.0
    num_pairs: int = 0

    def calibrate(self, probabilities: Sequence[float]) -> np.ndarray:
        """Calibrated probabilities for raw matcher ``probabilities``."""
        p = np.clip(np.asarray(probabilities, dtype=np.float64), EPS, 1 - EPS)
        z = self.a * np.log(p / (1.0 - p)) + self.b
        return 1.0 / (1.0 + np.exp(-z))

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "Calibrator":
        return cls(a=float(obj["a"]), b=float(obj["b"]),
                   method=str(obj.get("method", "platt")),
                   ece_before=float(obj.get("ece_before", 0.0)),
                   ece_after=float(obj.get("ece_after", 0.0)),
                   num_pairs=int(obj.get("num_pairs", 0)))


def fit_platt(probabilities: Sequence[float], labels: Sequence[int],
              max_iter: int = 50, tol: float = 1e-10,
              l2: float = 1e-6) -> Tuple[float, float]:
    """Damped-Newton solve of the Platt parameters ``(a, b)``.

    Uses Platt's smoothed targets ``(N+ + 1)/(N+ + 2)`` and ``1/(N- + 2)``
    so separable or single-class validation sets stay finite, and a
    backtracking line search on the Newton step — an undamped step
    overshoots into the sigmoid's flat region on strongly miscalibrated
    inputs and oscillates instead of converging.  Entirely deterministic:
    fixed start, fixed iteration budget, no sampling.
    """
    p = np.clip(np.asarray(probabilities, dtype=np.float64), EPS, 1 - EPS)
    y = np.asarray(labels, dtype=np.float64)
    if p.shape != y.shape:
        raise ValueError("probabilities and labels disagree on length")
    if p.size == 0:
        raise ValueError("calibration needs at least one labeled pair")
    num_pos = float(y.sum())
    num_neg = float(y.size - num_pos)
    target_pos = (num_pos + 1.0) / (num_pos + 2.0)
    target_neg = 1.0 / (num_neg + 2.0)
    t = np.where(y > 0.5, target_pos, target_neg)
    x = np.log(p / (1.0 - p))

    def objective(a: float, b: float) -> float:
        z = a * x + b
        # stable cross-entropy-with-logits: log(1+e^z) - t*z
        return float(np.sum(np.logaddexp(0.0, z) - t * z)
                     + 0.5 * l2 * (a * a + b * b))

    a, b = 1.0, 0.0
    value = objective(a, b)
    for _ in range(max_iter):
        q = 1.0 / (1.0 + np.exp(-np.clip(a * x + b, -500.0, 500.0)))
        g_a = float(np.dot(x, q - t)) + l2 * a
        g_b = float(np.sum(q - t)) + l2 * b
        w = np.maximum(q * (1.0 - q), 1e-12)
        h_aa = float(np.dot(w, x * x)) + l2
        h_ab = float(np.dot(w, x))
        h_bb = float(np.sum(w)) + l2
        det = h_aa * h_bb - h_ab * h_ab
        if det <= 0.0:  # pragma: no cover - Hessian is PD with the ridge
            break
        step_a = (h_bb * g_a - h_ab * g_b) / det
        step_b = (h_aa * g_b - h_ab * g_a) / det
        scale = 1.0
        for _ in range(40):  # backtrack until the objective improves
            candidate = objective(a - scale * step_a, b - scale * step_b)
            if candidate <= value:
                break
            scale *= 0.5
        else:  # no improving step left: converged to working precision
            break
        a -= scale * step_a
        b -= scale * step_b
        value = candidate
        if abs(scale * step_a) < tol and abs(scale * step_b) < tol:
            break
    return float(a), float(b)


def fit_calibrator(pipeline, valid: ERDataset, bins: int = 10) -> Calibrator:
    """Fit a :class:`Calibrator` for ``pipeline`` on a labeled hold-out.

    The hold-out is scored through the exact oracle
    :meth:`~repro.pipeline.ERPipeline.score_pairs`, so the map is fit on
    exactly the probabilities every engine serves.
    """
    if not valid.is_labeled:
        raise ValueError("calibration needs a labeled validation set")
    probabilities = [decision.probability
                     for decision in pipeline.score_pairs(valid.pairs)]
    labels = valid.labels()
    before = expected_calibration_error(probabilities, labels, bins).ece
    a, b = fit_platt(probabilities, labels)
    calibrator = Calibrator(a=a, b=b, num_pairs=len(labels))
    after = expected_calibration_error(
        calibrator.calibrate(probabilities), labels, bins).ece
    return Calibrator(a=a, b=b, ece_before=float(before),
                      ece_after=float(after), num_pairs=len(labels))


def save_calibrator(store: ArtifactStore, calibrator: Calibrator) -> None:
    """Persist into the snapshot store (checksummed, digest-changing)."""
    with store.lock(CALIBRATION_NAME):
        store.write_json(CALIBRATION_NAME, calibrator.to_json(), indent=2)


def load_calibrator(store: ArtifactStore) -> Optional[Calibrator]:
    """The snapshot's calibrator, or ``None`` when absent or corrupt.

    A corrupt ``calibration.json`` is quarantined by the store and the
    engine falls back to serving *uncalibrated* probabilities (logged at
    WARNING) — calibration must never take scoring down with it.
    """
    try:
        obj = store.read(CALIBRATION_NAME, lambda p: __import__("json")
                         .loads(p.read_text()))
    except FileNotFoundError:
        return None
    except ArtifactCorruptError as error:
        logger.warning("risk calibrator unreadable (%s); serving "
                       "uncalibrated probabilities", error)
        return None
    return Calibrator.from_json(obj)


def calibrate_snapshot(directory: Union[str, Path], valid: ERDataset,
                       bins: int = 10) -> Tuple[Calibrator, str]:
    """Fit + persist a calibrator for the snapshot at ``directory``.

    Returns ``(calibrator, new_manifest_digest)`` — the digest differs
    from the pre-calibration one, which is what invalidates cache entries
    and makes republish-after-recalibration observable everywhere.
    """
    from ..pipeline import ERPipeline  # local: pipeline imports serve lazily
    pipeline = ERPipeline.load(directory)
    calibrator = fit_calibrator(pipeline, valid, bins=bins)
    store = ArtifactStore(Path(directory))
    save_calibrator(store, calibrator)
    return calibrator, store.manifest_digest()


__all__ = ["CALIBRATION_NAME", "Calibrator", "calibrate_snapshot",
           "fit_calibrator", "fit_platt", "load_calibrator",
           "save_calibrator"]
