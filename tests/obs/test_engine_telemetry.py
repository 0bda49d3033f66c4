"""Engine + telemetry integration: one registry for every shard.

The engine's accounting invariant: the bundle's registry ends up
holding the sum of every shard's accounting, and
``EngineMetrics.from_registry`` reads the same totals the event stream
implies.
"""

from repro.engine import EngineConfig, ShardedEngine
from repro.engine.metrics import EngineMetrics
from repro.engine.workload import scalability_workload
from repro.obs import Telemetry

N_CONTEXTS = 240
SHARDS = 4


def run_engine(telemetry):
    constraints, contexts = scalability_workload(N_CONTEXTS)
    engine = ShardedEngine(
        constraints,
        strategy="drop-latest",
        config=EngineConfig(shards=SHARDS, use_window=8),
        telemetry=telemetry,
    )
    return engine.run(contexts)


class TestMergedRegistries:
    def test_registry_sums_shard_accounting(self):
        telemetry = Telemetry(enabled=True)
        result = run_engine(telemetry)
        registry = telemetry.registry

        delivered = sum(
            registry.value(
                "engine_shard_delivered_total", {"shard": str(shard)}
            )
            for shard in range(SHARDS)
        )
        discarded = sum(
            registry.value(
                "engine_shard_discarded_total", {"shard": str(shard)}
            )
            for shard in range(SHARDS)
        )
        routed = sum(
            registry.value(
                "engine_shard_contexts_total", {"shard": str(shard)}
            )
            for shard in range(SHARDS)
        )
        assert delivered == result.metrics.delivered_total == len(result.delivered)
        assert discarded == result.metrics.discarded_total == len(result.discarded)
        assert routed == N_CONTEXTS

    def test_stage_histograms_and_span_counts(self):
        telemetry = Telemetry(enabled=True)
        result = run_engine(telemetry)
        counts = telemetry.tracer.counts
        # One deliver span per delivery, one discard span per discard.
        assert counts.get("stage.deliver", 0) == result.metrics.delivered_total
        assert counts.get("stage.discard", 0) == result.metrics.discarded_total
        from repro.obs.telemetry import STAGE_HISTOGRAM

        histogram = telemetry.registry.histogram(
            STAGE_HISTOGRAM, labels={"stage": "check"}
        )
        assert histogram.count > 0

    def test_from_registry_matches_event_derived_metrics(self):
        telemetry = Telemetry(enabled=True)
        result = run_engine(telemetry)
        view = EngineMetrics.from_registry(telemetry.registry, shards=SHARDS)
        assert view.delivered_total == result.metrics.delivered_total
        assert view.discarded_total == result.metrics.discarded_total
        assert view.contexts_total == result.metrics.contexts_total
        assert [s.shard_id for s in view.per_shard] == list(range(SHARDS))

    def test_unflushed_shard_reads_as_zeros(self):
        telemetry = Telemetry(enabled=True)
        run_engine(telemetry)
        view = EngineMetrics.from_registry(
            telemetry.registry, shards=SHARDS + 2
        )
        dead = [s for s in view.per_shard if s.shard_id >= SHARDS]
        assert all(s.contexts == 0 and s.delivered == 0 for s in dead)
