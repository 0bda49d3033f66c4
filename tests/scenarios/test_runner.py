"""PackRunner semantics: hosts, rosters, sweeps, ranking, telemetry."""

from __future__ import annotations

import pytest

from repro.core.drop_bad import DropBadStrategy
from repro.obs import Telemetry
from repro.scenarios import FULL_ROSTER, PackRunner, rank_strategies

from ._packs import tiny_pack


@pytest.fixture(scope="module")
def runner():
    return PackRunner(tiny_pack(), shards=2)


class TestSingleRun:
    def test_defaults_come_from_the_pack(self, runner):
        result = runner.run("drop-bad")
        assert result.err_rate == pytest.approx(0.3)
        assert result.seed == 3
        assert result.metrics.contexts_total == len(
            result.delivered_ids
        ) + len(result.discarded_ids)

    def test_unknown_host_rejected(self, runner):
        with pytest.raises(ValueError, match="unknown host"):
            runner.run("drop-bad", host="no-such-host")

    def test_runs_are_deterministic(self, runner):
        a = runner.run("drop-random", seed=9)
        b = runner.run("drop-random", seed=9)
        assert a.signature() == b.signature()

    def test_engine_hosts_agree_with_middleware(self, runner):
        """Same stream, same strategy: the engine host makes the
        middleware's decisions, byte for byte."""
        want = runner.run("drop-bad", host="middleware")
        inline = runner.run("drop-bad", host="inline")
        assert inline.signature() == want.signature()

    def test_strategy_instance_runs_on_the_middleware_host(self, runner):
        """A configured instance is what the ablations pass; the same
        strategy by name makes the same decisions."""
        by_name = runner.run("drop-bad", measures=False)
        instance = runner.run(DropBadStrategy(), measures=False)
        assert instance.strategy == "drop-bad"
        assert instance.signature() == by_name.signature()
        assert instance.metrics == by_name.metrics

    def test_strategy_instance_rejected_on_the_engine_host(self, runner):
        with pytest.raises(ValueError, match="strategy name"):
            runner.run(DropBadStrategy(), host="inline")

    @pytest.mark.parametrize("host", ["local", "process"])
    def test_removed_engine_modes_are_not_hosts(self, runner, host):
        with pytest.raises(ValueError, match="unknown host"):
            runner.run("drop-bad", host=host)

    def test_kernels_toggle_is_decision_neutral(self, runner):
        on = runner.run("drop-bad", host="inline", kernels=True)
        off = runner.run("drop-bad", host="inline", kernels=False)
        assert on.signature() == off.signature()

    def test_measures_cover_both_streams(self, runner):
        result = runner.run("drop-bad")
        assert result.measures_raw.universe == result.metrics.contexts_total
        assert result.measures_delivered.universe == len(result.delivered_ids)
        # The reference stream at err 0.3 is genuinely inconsistent, and
        # resolution must not make it worse.
        assert result.measures_raw.mi_count >= 1
        assert (
            result.measures_delivered.problematic
            <= result.measures_raw.problematic
        )

    def test_measures_false_skips_the_static_pass(self, runner):
        result = runner.run("drop-bad", measures=False)
        assert result.measures_raw.mi_count == 0
        assert result.measures_raw.universe == result.metrics.contexts_total

    def test_as_record_is_json_shaped(self, runner):
        import json

        record = runner.run("drop-bad").as_record()
        json.dumps(record)
        assert record["pack"] == "tiny"
        assert record["signature"] == runner.run("drop-bad").signature()

    def test_ledger_records_the_run(self, runner, tmp_path):
        from repro.ledger import verify_ledger

        path = tmp_path / "run.ledger.jsonl"
        result = runner.run("drop-bad", ledger_path=str(path))
        assert path.exists()
        verification = verify_ledger(str(path))
        assert verification.ok
        assert result.delivered_ids  # the run actually decided things


class TestSweep:
    def test_full_roster_in_one_invocation(self, runner):
        results = runner.sweep(groups=1, err_rates=(0.3,), measures=False)
        assert sorted({r.strategy for r in results}) == sorted(FULL_ROSTER)
        assert len(results) == len(FULL_ROSTER)

    def test_cells_share_streams_across_strategies(self, runner):
        results = runner.sweep(groups=1, err_rates=(0.3,), measures=False)
        totals = {r.metrics.contexts_total for r in results}
        seeds = {r.seed for r in results}
        assert len(totals) == 1  # one stream replayed under every strategy
        assert len(seeds) == 1

    def test_grid_size(self, runner):
        results = runner.sweep(
            groups=2,
            err_rates=(0.2, 0.3),
            strategies=("drop-bad", "drop-latest"),
            measures=False,
        )
        assert len(results) == 2 * 2 * 2


class TestRankStrategies:
    def test_ranking_is_sorted_and_complete(self, runner):
        results = runner.sweep(groups=1, err_rates=(0.3,))
        rows = rank_strategies(results)
        assert [set(r) >= {"strategy", "residual_problematic_ratio"} for r in rows]
        ratios = [r["residual_problematic_ratio"] for r in rows]
        assert ratios == sorted(ratios)
        assert {r["strategy"] for r in rows} == set(FULL_ROSTER)

    def test_drop_all_leaves_no_residual_mi(self, runner):
        """drop-all discards every inconsistency participant, so the
        delivered stream has no minimal inconsistent subsets left."""
        results = runner.sweep(
            groups=1, err_rates=(0.3,), strategies=("drop-all",)
        )
        assert all(r.measures_delivered.mi_count == 0 for r in results)


class TestTelemetry:
    def test_measures_emitted_through_the_registry(self):
        telemetry = Telemetry(enabled=True)
        runner = PackRunner(tiny_pack(), telemetry=telemetry)
        result = runner.run("drop-bad")
        registry = telemetry.registry
        assert "pack_inconsistency_measure" in registry.families()
        labels = registry.series_labels("pack_inconsistency_measure")
        assert any(
            row["measure"] == "mi_count" and row["stream"] == "raw"
            for row in labels
        )
        assert registry.value(
            "pack_inconsistency_measure",
            labels={
                "pack": "tiny",
                "strategy": "drop-bad",
                "host": "middleware",
                "stream": "raw",
                "measure": "mi_count",
            },
        ) == float(result.measures_raw.mi_count)
