"""Tests for the Landmarc case study (Section 5.2)."""

import pytest

from repro.experiments.case_study import CaseStudyConfig, run_case_study


@pytest.fixture(scope="module")
def result():
    return run_case_study(seed=7, config=CaseStudyConfig(duration=200.0))


class TestCaseStudyShape:
    def test_contexts_generated(self, result):
        assert result.contexts_total > 50
        # Burst shadowing yields a visible corrupted fraction.
        fraction = result.contexts_corrupted / result.contexts_total
        assert 0.02 < fraction < 0.5

    def test_survival_high_like_paper(self, result):
        """Paper: 96.5% survival; shape: well above 85%."""
        assert result.survival_rate > 0.85

    def test_precision_meaningful(self, result):
        """Paper: 84.7% removal precision; shape: above 0.5."""
        assert result.removal_precision > 0.5

    def test_rule1_holds_structurally(self, result):
        """Paper: Rule 1 always held -- our constraint set guarantees
        it by construction (velocity bound covers 2x threshold)."""
        assert result.rule1_rate == 1.0

    def test_rule2_relaxed_mostly_holds(self, result):
        """Paper: Rule 2' held in 91.7% of cases; shape: most but not
        necessarily all."""
        assert result.rule2_relaxed_rate > 0.6
        assert result.rule2_relaxed_rate >= result.rule2_rate

    def test_cleaning_improves_accuracy(self, result):
        assert result.mean_error_delivered < result.mean_error_raw
        assert result.accuracy_improvement > 0.0

    def test_observations_collected(self, result):
        assert result.observations > 0


class TestCaseStudyConfig:
    def test_velocity_bound_covers_expected_noise(self):
        config = CaseStudyConfig()
        # v*dt + 2*threshold <= bound*dt must hold.
        assert (
            config.walk_speed * config.period
            + 2 * config.corruption_threshold
            <= config.velocity_bound * config.period + 1e-9
        )

    def test_deterministic(self):
        config = CaseStudyConfig(duration=100.0)
        assert run_case_study(3, config) == run_case_study(3, config)
