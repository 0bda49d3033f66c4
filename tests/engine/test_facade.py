"""Facade-level tests: events, metrics, config validation."""

import pytest

from repro.engine import EngineConfig, ShardedEngine
from repro.engine.workload import scalability_workload
from repro.ledger import verify_ledger
from repro.middleware.bus import (
    ContextAdmitted,
    ContextDelivered,
    ContextDiscarded,
    Event,
)


def small_workload(n=120):
    return scalability_workload(n, scope_groups=2, types_per_group=3)


class TestEngineConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config.shards == 4
        assert config.mode == "inline"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shards": 0},
            {"mode": "turbo"},
            {"use_window": -1},
            {"use_delay": -0.5},
            {"mode": "local"},
            {"mode": "process"},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            EngineConfig(**kwargs)

    @pytest.mark.parametrize("mode", ["local", "process"])
    def test_removed_modes_name_the_removal(self, mode):
        with pytest.raises(ValueError, match=f"mode '{mode}' was removed"):
            EngineConfig(mode=mode)

    def test_inline_mode_still_constructs(self):
        assert EngineConfig(mode="inline").mode == "inline"

    def test_with_shards(self):
        assert EngineConfig(shards=2).with_shards(8).shards == 8


class TestShardedEngineModes:
    def test_run_resolves_the_stream(self):
        constraints, stream = small_workload()
        engine = ShardedEngine(
            constraints,
            config=EngineConfig(shards=2, use_window=5),
        )
        result = engine.run(stream)
        assert result.metrics.contexts_total == len(stream)
        assert len(result.delivered) + len(result.discarded) <= len(stream)
        assert result.metrics.elapsed_s > 0
        assert result.metrics.contexts_per_second > 0

    def test_inline_streams_events_live_on_engine_bus(self):
        constraints, stream = small_workload(40)
        engine = ShardedEngine(
            constraints, config=EngineConfig(shards=2)
        )
        admitted = []
        engine.bus.subscribe(ContextAdmitted, admitted.append)
        engine.run(stream)
        assert admitted  # live events, not post-hoc replay

    def test_result_events_are_the_bus_stream_in_time_order(self):
        constraints, stream = small_workload(60)
        engine = ShardedEngine(constraints, config=EngineConfig(shards=2))
        seen = []
        engine.bus.subscribe(Event, seen.append)
        result = engine.run(stream)
        assert [
            e.context for e in seen if isinstance(e, ContextDiscarded)
        ] == result.discarded
        stamps = [e.at for e in seen]
        assert stamps and stamps == sorted(stamps)

    def test_per_shard_stats_cover_all_constraints(self):
        constraints, stream = small_workload()
        engine = ShardedEngine(
            constraints, config=EngineConfig(shards=2)
        )
        result = engine.run(stream)
        assert sum(s.constraints for s in result.metrics.per_shard) == len(
            constraints
        )
        assert sum(s.contexts for s in result.metrics.per_shard) == len(stream)

    def test_delivered_events_match_delivered_list(self):
        constraints, stream = small_workload(80)
        engine = ShardedEngine(
            constraints, config=EngineConfig(shards=2)
        )
        delivered = []
        engine.bus.subscribe(ContextDelivered, delivered.append)
        result = engine.run(stream)
        assert [e.context.ctx_id for e in delivered] == result.delivered_ids

    def test_failed_run_releases_its_session(self, tmp_path):
        constraints, stream = small_workload(40)
        path = tmp_path / "run.jsonl"
        engine = ShardedEngine(
            constraints,
            config=EngineConfig(shards=2, ledger_path=str(path)),
        )

        def failing_source():
            yield from stream[:10]
            raise RuntimeError("source failed")

        with pytest.raises(RuntimeError, match="source failed"):
            engine.run(failing_source())
        assert verify_ledger(str(path)).ok
        # Nothing of the failed session is left on the bus: a rerun
        # writes a clean ledger and decides like a fresh engine.
        result = engine.run(stream)
        assert verify_ledger(str(path)).ok
        fresh = ShardedEngine(constraints, config=EngineConfig(shards=2))
        assert result.decision_signature() == fresh.run(stream).decision_signature()

    def test_single_shard_engine_works(self):
        constraints, stream = small_workload(50)
        engine = ShardedEngine(
            constraints, config=EngineConfig(shards=1)
        )
        result = engine.run(stream)
        assert result.metrics.contexts_total == 50

    def test_engine_consumes_lazy_iterables(self):
        constraints, stream = small_workload(40)
        engine = ShardedEngine(
            constraints, config=EngineConfig(shards=2)
        )
        result = engine.run(iter(stream))
        assert result.metrics.contexts_total == 40

    def test_rerun_leaves_earlier_result_untouched(self):
        constraints, stream = small_workload(30)
        engine = ShardedEngine(constraints, config=EngineConfig(shards=2))
        first = engine.run(stream)
        delivered = list(first.delivered_ids)
        second = engine.run(stream)
        assert first.delivered_ids == delivered
        assert second.delivered_ids == delivered
