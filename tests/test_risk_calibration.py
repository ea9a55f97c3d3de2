"""Risk calibration: ECE hardening regressions, Platt fit, snapshot digest.

Satellite coverage for the risk loop's measurement layer: degenerate
inputs to ``expected_calibration_error`` must be well-defined (pinned
here as regressions), the Platt fit must be deterministic and monotone,
and persisting a calibrator into a snapshot must change its manifest
digest (that is what invalidates caches and hot-swap identity).
"""

import numpy as np
import pytest

from repro.analysis.calibration import expected_calibration_error
from repro.artifacts import ArtifactStore
from repro.data import ERDataset
from repro.risk import (CALIBRATION_NAME, Calibrator, calibrate_snapshot,
                        fit_platt, load_calibrator, save_calibrator)


class TestExpectedCalibrationErrorHardening:
    def test_empty_input_is_zero(self):
        # Pinned behavior: a model that made no predictions made no
        # miscalibrated ones.
        assert expected_calibration_error([], []).ece == 0.0

    def test_single_bin_is_legal(self):
        report = expected_calibration_error([0.2, 0.8], [0, 1], bins=1)
        assert report.bin_counts.tolist() == [2]
        assert report.ece == pytest.approx(0.0)

    def test_zero_bins_rejected(self):
        with pytest.raises(ValueError, match="at least one bin"):
            expected_calibration_error([0.5], [1], bins=0)

    def test_edge_probabilities_land_in_edge_bins(self):
        report = expected_calibration_error([0.0, 1.0], [0, 1], bins=10)
        assert report.bin_counts[0] == 1
        assert report.bin_counts[-1] == 1

    def test_nan_probability_raises_with_index(self):
        with pytest.raises(ValueError, match="index 1"):
            expected_calibration_error([0.5, float("nan")], [1, 0])

    def test_inf_probability_raises(self):
        with pytest.raises(ValueError, match="finite"):
            expected_calibration_error([float("inf")], [1])

    def test_out_of_range_probability_raises(self):
        # Regression: p > 1 used to silently clip into the last bin.
        with pytest.raises(ValueError, match="index 0"):
            expected_calibration_error([1.5], [1])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            expected_calibration_error([0.3, -0.1], [1, 0])

    def test_non_binary_label_raises(self):
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            expected_calibration_error([0.5], [2])

    def test_fractional_label_not_truncated(self):
        # Regression: the int64 cast used to turn 0.5 into a legal 0.
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            expected_calibration_error([0.5], [0.5])

    def test_nan_label_raises(self):
        with pytest.raises(ValueError, match="labels"):
            expected_calibration_error([0.5], [float("nan")])

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="length"):
            expected_calibration_error([0.5, 0.6], [1])

    def test_two_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            expected_calibration_error([[0.5]], [[1]])

    def test_perfect_calibration_is_zero(self):
        # In every occupied bin, confidence equals empirical accuracy.
        probabilities = [0.25] * 4 + [0.75] * 4
        labels = [1, 0, 0, 0, 1, 1, 1, 0]
        report = expected_calibration_error(probabilities, labels, bins=2)
        assert report.ece == pytest.approx(0.0)


class TestPlattFit:
    def _scores(self, n=800, seed=0):
        # Generative miscalibration: labels are drawn from a true
        # probability, but the reported score sharpens its logit 3x — the
        # overconfident shape domain shift produces.  Platt's a ~= 1/3
        # undoes it exactly.
        rng = np.random.default_rng(seed)
        true = rng.uniform(0.05, 0.95, size=n)
        labels = (rng.uniform(size=n) < true).astype(int)
        logits = np.log(true / (1.0 - true))
        probabilities = 1.0 / (1.0 + np.exp(-3.0 * logits))
        return probabilities, labels

    def test_fit_is_deterministic(self):
        probabilities, labels = self._scores()
        assert fit_platt(probabilities, labels) == \
            fit_platt(probabilities, labels)

    def test_calibration_is_monotone(self):
        # Platt is a monotone map: ordering of raw scores is preserved,
        # so the 0.5 auto-decision cut can shift but never reorder pairs.
        probabilities, labels = self._scores()
        a, b = fit_platt(probabilities, labels)
        calibrator = Calibrator(a=a, b=b)
        grid = np.linspace(0.01, 0.99, 101)
        calibrated = calibrator.calibrate(grid)
        assert np.all(np.diff(calibrated) > 0) or \
            np.all(np.diff(calibrated) < 0)
        assert a > 0  # fit against informative scores keeps orientation

    def test_fit_improves_ece_on_overconfident_scores(self):
        probabilities, labels = self._scores()
        a, b = fit_platt(probabilities, labels)
        calibrated = Calibrator(a=a, b=b).calibrate(probabilities)
        before = expected_calibration_error(probabilities, labels).ece
        after = expected_calibration_error(calibrated, labels).ece
        assert after < before

    def test_single_class_labels_stay_finite(self):
        # Platt's smoothed targets keep a separable/one-class fit bounded.
        probabilities = np.linspace(0.6, 0.9, 20)
        a, b = fit_platt(probabilities, np.ones(20, dtype=int))
        assert np.isfinite(a) and np.isfinite(b)
        q = Calibrator(a=a, b=b).calibrate(probabilities)
        assert np.all((q > 0.0) & (q < 1.0))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            fit_platt([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            fit_platt([0.5], [1, 0])

    def test_json_roundtrip(self):
        calibrator = Calibrator(a=1.5, b=-0.25, ece_before=0.2,
                                ece_after=0.05, num_pairs=64)
        assert Calibrator.from_json(calibrator.to_json()) == calibrator


class TestSnapshotCalibration:
    @pytest.fixture(scope="class")
    def snapshot(self, tmp_path_factory, tiny_lm):
        from repro.matcher import MlpMatcher
        from repro.pipeline import ERPipeline
        from repro.pretrain import fresh_copy
        extractor = fresh_copy(tiny_lm[0], seed=3)
        extractor.eval()
        matcher = MlpMatcher(extractor.feature_dim,
                             np.random.default_rng(3))
        matcher.eval()
        directory = tmp_path_factory.mktemp("risk_cal") / "pipeline"
        ERPipeline(extractor, matcher).save(directory)
        return directory

    @pytest.fixture(scope="class")
    def valid(self):
        from repro.serve import synthetic_candidates
        pairs = synthetic_candidates(48, seed=5)
        return ERDataset("valid", "bench", [
            p.with_label(int(p.left.attributes == p.right.attributes))
            for p in pairs])

    def test_calibrate_snapshot_changes_digest(self, snapshot, valid):
        before = ArtifactStore(snapshot).manifest_digest()
        calibrator, after = calibrate_snapshot(snapshot, valid)
        assert after != before
        assert calibrator.num_pairs == len(valid)
        loaded = load_calibrator(ArtifactStore(snapshot))
        assert loaded is not None and loaded.a == calibrator.a

    def test_fit_scores_hold_out_in_no_grad_mode(self, snapshot, valid,
                                                  monkeypatch):
        # The hold-out goes through the exact oracle, which builds no
        # autograd tape: every extractor forward runs with grad off.
        from repro.nn import grad_enabled
        from repro.pipeline import ERPipeline
        from repro.risk import fit_calibrator
        pipeline = ERPipeline.load(snapshot)
        encode = pipeline.extractor.encode
        modes = []

        def recording(ids, mask):
            modes.append(grad_enabled())
            return encode(ids, mask)

        monkeypatch.setattr(pipeline.extractor, "encode", recording)
        fit_calibrator(pipeline, valid)
        assert modes and not any(modes)

    def test_recalibration_is_idempotent_on_digest(self, snapshot, valid):
        __, first = calibrate_snapshot(snapshot, valid)
        __, second = calibrate_snapshot(snapshot, valid)
        assert first == second  # same data, same fit, same bytes

    def test_missing_calibrator_loads_as_none(self, tmp_path):
        assert load_calibrator(ArtifactStore(tmp_path)) is None

    def test_corrupt_calibrator_quarantined_not_fatal(self, tmp_path):
        store = ArtifactStore(tmp_path)
        save_calibrator(store, Calibrator(a=1.0, b=0.0))
        path = store.path(CALIBRATION_NAME)
        path.write_text("{ torn json")
        assert load_calibrator(store) is None  # loud fallback, no crash

    def test_unlabeled_validation_rejected(self, snapshot):
        from repro.serve import synthetic_candidates
        unlabeled = ERDataset("u", "bench", synthetic_candidates(8, seed=1))
        with pytest.raises(ValueError, match="labeled"):
            calibrate_snapshot(snapshot, unlabeled)
