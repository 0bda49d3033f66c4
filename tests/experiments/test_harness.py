"""Unit tests for the Figure 9/10 comparison (small scales)."""

import pytest

from repro.experiments.harness import (
    ComparisonConfig,
    pack_runner,
    run_comparison,
)


@pytest.fixture(scope="module")
def runner():
    return pack_runner(
        "call-forwarding", workload_kwargs={"duration": 120.0}
    )


@pytest.fixture(scope="module")
def small_result():
    config = ComparisonConfig(
        strategies=("opt-r", "drop-bad", "drop-latest"),
        err_rates=(0.2,),
        groups_per_point=2,
        workload_kwargs=(("duration", 120.0),),
    )
    return run_comparison("call-forwarding", config)


class TestRunGroup:
    def test_group_metrics_consistency(self, runner):
        contexts = runner.pack.generate_workload(0.2, 3)
        m = runner.run(
            "opt-r",
            err_rate=0.2,
            seed=3,
            use_window=5,
            stream=contexts,
            measures=False,
        ).metrics
        assert m.contexts_total == len(contexts)
        assert m.contexts_used <= m.contexts_total
        assert m.contexts_used_corrupted == 0  # oracle never delivers bad
        assert m.discarded_expected == 0
        assert m.removal_precision == 1.0

    def test_strategies_see_identical_streams(self, runner):
        contexts = runner.pack.generate_workload(0.2, 3)
        a, b = (
            runner.run(
                "drop-bad",
                err_rate=0.2,
                seed=3,
                use_window=4,
                stream=contexts,
                measures=False,
            ).metrics
            for _ in range(2)
        )
        assert a == b  # fully deterministic


class TestComparisonConfig:
    def test_total_groups_matches_paper_scale(self):
        config = ComparisonConfig()
        assert config.total_groups == 320  # 4 strategies x 4 rates x 20

    def test_custom_grid(self):
        config = ComparisonConfig(
            strategies=("a", "b"), err_rates=(0.1,), groups_per_point=3
        )
        assert config.total_groups == 6


class TestComparisonResult:
    def test_all_cells_populated(self, small_result):
        assert len(small_result.groups) == 3 * 1 * 2
        for strategy in small_result.config.strategies:
            assert len(small_result.groups_for(strategy, 0.2)) == 2

    def test_series_normalized_against_oracle(self, small_result):
        points = small_result.series()
        oracle = next(p for p in points if p.strategy == "opt-r")
        assert oracle.ctx_use_rate == pytest.approx(100.0)
        assert oracle.sit_act_rate == pytest.approx(100.0)
        for point in points:
            assert 0.0 <= point.ctx_use_rate <= 100.0 + 1e-9

    def test_point_lookup(self, small_result):
        point = small_result.point("drop-bad", 0.2)
        assert point.strategy == "drop-bad"
        with pytest.raises(KeyError):
            small_result.point("drop-bad", 0.99)

    def test_raw_metrics_carried(self, small_result):
        point = small_result.point("drop-latest", 0.2)
        assert "removal_precision" in point.raw
        assert "contexts_used" in point.raw
