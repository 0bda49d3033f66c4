"""Tests for the span tracer: nesting, the ring, export and merging."""

import json

import pytest

from repro.obs.tracer import SpanRecord, SpanTracer


class TestSpanProduction:
    def test_nested_spans_record_parent_ids(self):
        tracer = SpanTracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        spans = {s.name: s for s in tracer.spans()}
        assert spans["inner"].parent_id == outer.span_id
        assert spans["outer"].parent_id is None
        assert spans["inner"].span_id == inner.span_id
        # Inner closed first: the ring is oldest-first.
        assert [s.name for s in tracer.spans()] == ["inner", "outer"]

    def test_sibling_spans_share_no_parent(self):
        tracer = SpanTracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert all(s.parent_id is None for s in tracer.spans())

    def test_attrs_and_error_annotation(self):
        tracer = SpanTracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom", ctx_id="c1"):
                raise RuntimeError("nope")
        (span,) = tracer.spans()
        assert span.attrs == {"ctx_id": "c1", "error": "RuntimeError"}
        assert span.duration >= 0.0

    def test_reusable_span_records_per_entry(self):
        tracer = SpanTracer()
        timer = tracer.reusable_span("hot")
        for _ in range(3):
            with timer:
                pass
        assert tracer.counts["hot"] == 3
        ids = [s.span_id for s in tracer.spans()]
        assert len(set(ids)) == 3

    def test_reusable_span_error_does_not_pollute_later_uses(self):
        tracer = SpanTracer()
        timer = tracer.reusable_span("hot")
        with pytest.raises(ValueError):
            with timer:
                raise ValueError("once")
        with timer:
            pass
        first, second = tracer.spans()
        assert first.attrs == {"error": "ValueError"}
        assert second.attrs == {}

    def test_disabled_tracer_records_nothing(self):
        tracer = SpanTracer(enabled=False)
        with tracer.span("x"):
            pass
        with tracer.reusable_span("y"):
            pass
        assert tracer.spans() == []
        assert tracer.total_spans() == 0


class TestRing:
    def test_ring_evicts_but_counts_survive(self):
        tracer = SpanTracer(ring_size=2)
        for index in range(5):
            with tracer.span(f"s{index}"):
                pass
        assert [s.name for s in tracer.spans()] == ["s3", "s4"]
        assert tracer.total_spans() == 5
        assert sum(tracer.counts.values()) == 5

    def test_ring_size_validated(self):
        with pytest.raises(ValueError):
            SpanTracer(ring_size=0)

    def test_slowest_orders_by_duration(self):
        tracer = SpanTracer()
        for name, duration in (("fast", 0.001), ("slow", 0.5), ("mid", 0.1)):
            tracer._close(name, 0.0, duration, 0, None, {})
        assert [s.name for s in tracer.slowest(2)] == ["slow", "mid"]


class TestExportMerge:
    def test_export_jsonl_round_trips(self, tmp_path):
        tracer = SpanTracer()
        with tracer.span("outer", k="v"):
            with tracer.span("inner"):
                pass
        path = tmp_path / "spans.jsonl"
        written = tracer.export_jsonl(path)
        assert written == 2
        lines = path.read_text(encoding="utf-8").splitlines()
        records = [SpanRecord.from_dict(json.loads(line)) for line in lines]
        assert [r.name for r in records] == ["inner", "outer"]
        assert records[1].attrs == {"k": "v"}

    def test_clear(self):
        tracer = SpanTracer()
        with tracer.span("x"):
            pass
        tracer.clear()
        assert tracer.spans() == []
        assert tracer.counts == {}
