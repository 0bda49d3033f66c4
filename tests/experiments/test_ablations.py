"""Tests for the window and tie-break ablations (small scales)."""

import pytest

from repro.experiments.ablations import (
    run_tiebreak_ablation,
    run_window_ablation,
)


@pytest.fixture(scope="module")
def pack():
    return "rfid"


class TestWindowAblation:
    @pytest.fixture(scope="class")
    def points(self, pack):
        return run_window_ablation(
            pack,
            windows=(0, 20),
            err_rate=0.3,
            groups=3,
            workload_kwargs={"items": 6},
        )

    def test_one_point_per_window(self, points):
        assert [p.window for p in points] == [0, 20]

    def test_larger_window_helps_drop_bad(self, points):
        """Section 5.3: more window -> more count evidence."""
        zero, large = points
        assert large.drop_bad_use_rate >= zero.drop_bad_use_rate

    def test_window_does_not_change_drop_latest(self, points):
        """Drop-latest resolves at detection; the use window only
        defers accounting, not decisions."""
        zero, large = points
        assert zero.drop_latest_use_rate == pytest.approx(
            large.drop_latest_use_rate, abs=2.0
        )

    def test_rates_bounded(self, points):
        for point in points:
            assert 0.0 <= point.drop_bad_use_rate <= 100.0 + 1e-9
            assert 0.0 <= point.drop_latest_use_rate <= 100.0 + 1e-9


class TestTieBreakAblation:
    @pytest.fixture(scope="class")
    def points(self, pack):
        return run_tiebreak_ablation(
            pack,
            policies=("oldest", "newest"),
            err_rate=0.3,
            groups=2,
            use_window=20,
            workload_kwargs={"items": 6},
        )

    def test_variants_present(self, points):
        labels = {(p.policy, p.discard_on_tie) for p in points}
        assert labels == {
            ("oldest", True),
            ("newest", True),
            ("oldest", False),
        }

    def test_metrics_in_range(self, points):
        for point in points:
            assert 0.0 <= point.removal_precision <= 1.0
            assert 0.0 <= point.survival_rate <= 1.0
            assert point.ctx_use_rate <= 100.0 + 1e-9
