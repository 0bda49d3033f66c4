"""Scalability smoke test: the sharding mechanism and the bench record.

Sharding pays because each arrival is checked against a smaller pool:
only its own shard's.  This tier-1 test checks that mechanism
deterministically -- the summed per-arrival pool size -- instead of a
wall-clock ratio, which flaked on loaded machines.  Timing lives in
``benchmarks/perf``.
"""

import json

from repro.engine import EngineConfig, ShardedEngine, write_bench_json
from repro.engine.workload import run_scalability_bench, scalability_workload


def summed_arrival_pool_sizes(shards, n_contexts=800):
    """Sum, over the stream, of the pool size of each arrival's shard
    at the moment it arrives."""
    constraints, contexts = scalability_workload(n_contexts)
    engine = ShardedEngine(
        constraints,
        config=EngineConfig(shards=shards, use_window=20, batch_kernels=False),
    )
    stream = engine.open_stream()
    total = 0
    for ctx in contexts:
        total += len(stream.pipelines[engine.router.shard_for(ctx)].pool)
        stream.submit([ctx])
    stream.close()
    return total


class TestScalabilityBench:
    def test_sharding_speeds_up_and_records_json(self, tmp_path):
        # batch_kernels off: the sharding speedup is measured on the
        # per-context detection path whose pool-scan cost sharding
        # removes -- columnar batched detection attacks the same cost,
        # so with it on the ratio measures two optimizations at once.
        record = run_scalability_bench(
            (1, 4), n_contexts=800, use_window=20, repeats=1,
            batch_kernels=False,
        )
        by_shards = record["contexts_per_second_by_shards"]
        assert set(by_shards) == {"1", "4"}
        for row in by_shards.values():
            assert row["contexts_per_second"] > 0
            assert row["delivered"] + row["discarded"] <= 800
        # Decision identity across shard counts is asserted inside
        # run_scalability_bench.  The workload has 4 equal scope groups
        # and nothing in it expires, so 4 shards see about a quarter of
        # the single pool at every arrival.
        assert summed_arrival_pool_sizes(4) <= 0.30 * summed_arrival_pool_sizes(1)

        out_path = tmp_path / "BENCH_engine.json"
        document = write_bench_json(out_path, "engine_scalability_smoke", record)
        assert "engine_scalability_smoke" in document
        reread = json.loads(out_path.read_text(encoding="utf-8"))
        assert (
            reread["engine_scalability_smoke"]["speedup"]["4_shards_vs_1"]
            == record["speedup"]["4_shards_vs_1"]
        )

    def test_decision_divergence_is_detected(self):
        # The runner must refuse to report throughput for a sharding
        # that changes decisions; drop-random's per-shard RNG order
        # difference is exactly such a case.
        import pytest

        from repro.engine.workload import scalability_workload

        constraints, contexts = scalability_workload(
            240, scope_groups=2, types_per_group=3, time_horizon=2.0
        )
        try:
            run_scalability_bench(
                (1, 2),
                strategy="drop-random",
                repeats=1,
                workload=(constraints, contexts),
            )
        except AssertionError:
            return  # divergence caught, as designed
        # drop-random may coincide by luck on tiny streams; that's
        # acceptable -- the guard is what's under test, so only a
        # silent wrong report would be a failure, and the runner
        # compared decisions either way.
        pytest.skip("drop-random happened to agree on this stream")


class TestCorruptBenchJson:
    def test_corrupt_file_logs_warning_and_resets(self, tmp_path, caplog):
        import logging

        path = tmp_path / "BENCH_engine.json"
        path.write_text("{not json at all", encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="repro.engine"):
            document = write_bench_json(path, "wl", {"x": 1})
        assert "resetting corrupt bench JSON" in caplog.text
        assert document == {"wl": {"x": 1}}
        assert json.loads(path.read_text(encoding="utf-8")) == {"wl": {"x": 1}}

    def test_non_object_top_level_logs_warning_and_resets(self, tmp_path, caplog):
        import logging

        path = tmp_path / "BENCH_engine.json"
        path.write_text("[1, 2, 3]", encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="repro.engine"):
            document = write_bench_json(path, "wl", {"x": 1})
        assert "expected object" in caplog.text
        assert document == {"wl": {"x": 1}}

    def test_healthy_file_keeps_other_workloads_silently(self, tmp_path, caplog):
        import logging

        path = tmp_path / "BENCH_engine.json"
        write_bench_json(path, "first", {"a": 1})
        with caplog.at_level(logging.WARNING, logger="repro.engine"):
            document = write_bench_json(path, "second", {"b": 2})
        assert caplog.text == ""
        assert document == {"first": {"a": 1}, "second": {"b": 2}}
