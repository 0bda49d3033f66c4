"""Unit tests for RF propagation and the LANDMARC estimator."""

import math
import random

import pytest

from repro.sensing.landmarc import (
    LandmarcEstimator,
    corner_readers,
    grid_reference_tags,
)
from repro.sensing.rf import PathLossModel, Reader, rssi_vector


class TestPathLossModel:
    def test_monotone_decay_with_distance(self):
        model = PathLossModel(shadow_sigma=0.0)
        near = model.rssi((1.0, 0.0), (0.0, 0.0))
        far = model.rssi((10.0, 0.0), (0.0, 0.0))
        assert near > far

    def test_reference_distance_clamps(self):
        model = PathLossModel(p0=-40.0, shadow_sigma=0.0, d0=1.0)
        assert model.rssi((0.0, 0.0), (0.0, 0.0)) == pytest.approx(-40.0)

    def test_shadowing_only_with_rng(self):
        model = PathLossModel(shadow_sigma=5.0)
        deterministic = model.rssi((5.0, 0.0), (0.0, 0.0))
        assert model.rssi((5.0, 0.0), (0.0, 0.0)) == deterministic
        noisy = model.rssi((5.0, 0.0), (0.0, 0.0), random.Random(1))
        assert noisy != deterministic

    def test_validation(self):
        with pytest.raises(ValueError):
            PathLossModel(d0=0.0)
        with pytest.raises(ValueError):
            PathLossModel(exponent=-1.0)

    def test_rssi_vector_order(self):
        readers = [Reader("a", (0.0, 0.0)), Reader("b", (10.0, 0.0))]
        model = PathLossModel(shadow_sigma=0.0)
        vector = rssi_vector((1.0, 0.0), readers, model)
        assert vector[0] > vector[1]  # closer to reader a


class TestGridAndReaders:
    def test_grid_coverage(self):
        tags = grid_reference_tags(0.0, 0.0, 8.0, 4.0, spacing=4.0)
        positions = {t.position for t in tags}
        assert (0.0, 0.0) in positions
        assert (8.0, 4.0) in positions
        assert len(tags) == 3 * 2  # 3 columns x 2 rows

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            grid_reference_tags(0, 0, 1, 1, spacing=0)

    def test_corner_readers(self):
        readers = corner_readers(0.0, 0.0, 10.0, 20.0)
        assert len(readers) == 4
        assert {r.position for r in readers} == {
            (0.0, 0.0),
            (10.0, 0.0),
            (0.0, 20.0),
            (10.0, 20.0),
        }


class TestLandmarcEstimator:
    def _estimator(self, k=4):
        return LandmarcEstimator(
            corner_readers(0.0, 0.0, 20.0, 20.0),
            grid_reference_tags(0.0, 0.0, 20.0, 20.0, spacing=4.0),
            PathLossModel(shadow_sigma=0.0),
            k=k,
        )

    def test_noiseless_estimation_is_accurate(self):
        estimator = self._estimator()
        for true_pos in [(5.0, 5.0), (10.0, 10.0), (13.0, 7.0)]:
            estimate = estimator.estimate(true_pos)
            error = math.hypot(
                estimate[0] - true_pos[0], estimate[1] - true_pos[1]
            )
            assert error < 2.5  # within grid spacing

    def test_on_reference_tag_is_nearly_exact(self):
        estimator = self._estimator(k=1)
        estimate = estimator.estimate((8.0, 8.0))  # a reference position
        assert math.hypot(estimate[0] - 8.0, estimate[1] - 8.0) < 0.5

    def test_noise_degrades_accuracy(self):
        estimator = self._estimator()
        rng = random.Random(5)
        noiseless = estimator.error((7.0, 9.0))
        noisy = [
            LandmarcEstimator(
                corner_readers(0.0, 0.0, 20.0, 20.0),
                grid_reference_tags(0.0, 0.0, 20.0, 20.0, spacing=4.0),
                PathLossModel(shadow_sigma=8.0),
                k=4,
            ).error((7.0, 9.0), rng)
            for _ in range(20)
        ]
        assert sum(noisy) / len(noisy) > noiseless

    def test_estimate_within_reference_hull(self):
        estimator = self._estimator()
        rng = random.Random(9)
        for _ in range(20):
            x, y = estimator.estimate((10.0, 10.0), rng)
            assert 0.0 <= x <= 20.0
            assert 0.0 <= y <= 20.0

    def test_validation(self):
        readers = corner_readers(0.0, 0.0, 10.0, 10.0)
        tags = grid_reference_tags(0.0, 0.0, 10.0, 10.0, spacing=5.0)
        with pytest.raises(ValueError):
            LandmarcEstimator(readers, tags, k=0)
        with pytest.raises(ValueError):
            LandmarcEstimator(readers, tags[:2], k=4)
        with pytest.raises(ValueError):
            LandmarcEstimator([], tags, k=2)
        estimator = LandmarcEstimator(readers, tags, k=2)
        with pytest.raises(ValueError):
            estimator.estimate_from_rssi([1.0])  # wrong vector length
