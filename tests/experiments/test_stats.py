"""Tests for the paired-comparison statistics."""

import pytest

from repro.experiments.harness import ComparisonConfig, run_comparison
from repro.experiments.stats import compare_strategies, sign_test


class TestSignTest:
    def test_all_positive_is_small(self):
        assert sign_test([1.0] * 10) < 0.01

    def test_balanced_is_large(self):
        assert sign_test([1, -1, 1, -1, 1, -1]) > 0.5

    def test_zeros_ignored(self):
        assert sign_test([0.0, 0.0]) == 1.0
        assert sign_test([0.0, 1.0, 1.0, 1.0]) == sign_test([1.0, 1.0, 1.0])


@pytest.fixture(scope="module")
def result():
    return run_comparison(
        "call-forwarding",
        ComparisonConfig(
            strategies=("opt-r", "drop-bad", "drop-all"),
            err_rates=(0.3,),
            groups_per_point=6,
            use_window=10,
            workload_kwargs=(("duration", 200.0),),
        ),
    )


class TestCompareStrategies:
    def test_oracle_dominates_drop_all_significantly(self, result):
        comparison = compare_strategies(result, "opt-r", "drop-all", 0.3)
        assert comparison.a_beats_b
        assert comparison.n == 6
        assert comparison.t_pvalue < 0.05
        assert comparison.sign_pvalue < 0.05

    def test_self_comparison_is_null(self, result):
        comparison = compare_strategies(result, "drop-bad", "drop-bad", 0.3)
        assert comparison.mean_difference == 0.0
        assert comparison.t_pvalue == 1.0
        assert comparison.sign_pvalue == 1.0
        assert not comparison.significant()

    def test_drop_bad_beats_drop_all(self, result):
        comparison = compare_strategies(result, "drop-bad", "drop-all", 0.3)
        assert comparison.a_beats_b

    def test_unknown_strategy_raises(self, result):
        with pytest.raises(ValueError, match="no groups"):
            compare_strategies(result, "ghost", "drop-bad", 0.3)

    def test_other_metrics_supported(self, result):
        comparison = compare_strategies(
            result,
            "opt-r",
            "drop-all",
            0.3,
            metric="situations_activated_correct",
        )
        assert comparison.metric == "situations_activated_correct"
        assert comparison.a_beats_b
