"""Tests for the rule-satisfaction sensitivity experiment."""

import pytest

from repro.experiments.report import format_rule_sensitivity
from repro.experiments.rules_sweep import run_rule_sensitivity


@pytest.fixture(scope="module")
def points():
    return run_rule_sensitivity(
        "call-forwarding",
        err_rates=(0.1, 0.4),
        groups=2,
        workload_kwargs={"duration": 150.0},
    )


class TestRuleSensitivity:
    def test_one_point_per_rate(self, points):
        assert [p.err_rate for p in points] == [0.1, 0.4]

    def test_rates_in_unit_interval(self, points):
        for point in points:
            assert 0.0 <= point.rule1_rate <= 1.0
            assert 0.0 <= point.rule2_relaxed_rate <= 1.0
            assert 0.0 <= point.removal_precision <= 1.0
            assert 0.0 <= point.survival_rate <= 1.0

    def test_rule1_holds_with_correct_constraints(self, points):
        """Only corrupted contexts can violate the CF constraints."""
        for point in points:
            assert point.rule1_rate > 0.9

    def test_observations_grow_with_error_rate(self, points):
        low, high = points
        assert high.observations >= low.observations

    def test_formatting(self, points):
        text = format_rule_sensitivity(points)
        assert "Rule 2'" in text
        assert "precision" in text
        assert "10%" in text and "40%" in text

    def test_deterministic(self):
        kwargs = dict(
            err_rates=(0.2,), groups=2, workload_kwargs={"duration": 100.0}
        )
        first = run_rule_sensitivity("call-forwarding", **kwargs)
        second = run_rule_sensitivity("call-forwarding", **kwargs)
        assert first == second
