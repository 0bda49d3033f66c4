"""Tests for the metrics registry: instruments, snapshots, merging."""

import threading

import pytest

from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestInstruments:
    def test_counter_accumulates(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_gauge_overwrites(self):
        gauge = Gauge()
        gauge.set(7)
        gauge.set(3)
        assert gauge.value == 3.0

    def test_histogram_buckets_must_be_sorted_unique(self):
        with pytest.raises(ValueError):
            Histogram([0.2, 0.1])
        with pytest.raises(ValueError):
            Histogram([0.1, 0.1])
        with pytest.raises(ValueError):
            Histogram([])

    def test_histogram_observe_places_in_le_buckets(self):
        histogram = Histogram([0.1, 1.0])
        histogram.observe(0.05)   # <= 0.1
        histogram.observe(0.5)    # <= 1.0
        histogram.observe(2.0)    # +Inf slot
        assert histogram.counts == [1, 1, 1]
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(2.55)

    def test_histogram_percentile(self):
        histogram = Histogram([0.1, 1.0])
        for _ in range(9):
            histogram.observe(0.05)
        histogram.observe(0.5)
        assert histogram.percentile(0.5) == 0.1
        assert histogram.percentile(1.0) == 1.0
        assert Histogram([0.1]).percentile(0.5) == 0.0
        with pytest.raises(ValueError):
            histogram.percentile(1.5)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        first = registry.counter("requests_total", labels={"shard": "0"})
        second = registry.counter("requests_total", labels={"shard": "0"})
        assert first is second
        other = registry.counter("requests_total", labels={"shard": "1"})
        assert other is not first

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("busy")
        with pytest.raises(ValueError, match="is a counter"):
            registry.gauge("busy")
        with pytest.raises(ValueError, match="is a counter"):
            registry.histogram("busy")

    def test_histogram_family_fixes_buckets(self):
        registry = MetricsRegistry()
        first = registry.histogram("lat", buckets=(0.1, 1.0))
        # Later calls reuse the family's buckets even if they ask for
        # different ones -- merging depends on one layout per family.
        second = registry.histogram("lat", labels={"s": "1"}, buckets=(9.0,))
        assert second.buckets == first.buckets == (0.1, 1.0)

    def test_value_of_absent_series_is_zero(self):
        registry = MetricsRegistry()
        assert registry.value("nope") == 0.0
        registry.histogram("hist").observe(0.1)
        assert registry.value("hist") == 0.0  # histograms have no value

    def test_series_labels_and_families(self):
        registry = MetricsRegistry()
        registry.counter("a", labels={"x": "2"})
        registry.counter("a", labels={"x": "1"})
        registry.gauge("b")
        assert registry.series_labels("a") == [{"x": "1"}, {"x": "2"}]
        assert registry.families() == ["a", "b"]

    def test_default_buckets_cover_sub_millisecond_and_seconds(self):
        assert DEFAULT_LATENCY_BUCKETS[0] <= 0.0001
        assert DEFAULT_LATENCY_BUCKETS[-1] >= 1.0

    def test_thread_safety_of_counter_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")

        def worker():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 4000


class TestSnapshotMerge:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("ctx_total", labels={"shard": "0"}).inc(5)
        registry.gauge("pool_size").set(3)
        registry.histogram("lat", buckets=(0.1, 1.0)).observe(0.05)
        return registry

    def test_snapshot_is_json_plain(self):
        import json

        snapshot = self._populated().snapshot()
        json.dumps(snapshot)  # must not raise
        assert set(snapshot) == {"families", "series"}

    def test_clear_drops_everything(self):
        registry = self._populated()
        registry.clear()
        assert registry.families() == []
        assert registry.value("ctx_total", {"shard": "0"}) == 0.0
