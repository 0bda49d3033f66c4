"""Tests for the Telemetry bundle: stage timers, counters, snapshots."""

import pytest

from repro.obs.telemetry import NULL_TELEMETRY, STAGE_HISTOGRAM, Telemetry


class TestStageTiming:
    def test_stage_records_histogram_and_span(self):
        telemetry = Telemetry(enabled=True)
        with telemetry.stage("check", ctx_id="c1"):
            pass
        histogram = telemetry.registry.histogram(
            STAGE_HISTOGRAM, labels={"stage": "check"}
        )
        assert histogram.count == 1
        (span,) = telemetry.tracer.spans()
        assert span.name == "stage.check"
        assert span.attrs == {"ctx_id": "c1"}
        assert span.duration == pytest.approx(histogram.sum, abs=1e-4)

    def test_stage_timer_reuse_accumulates(self):
        telemetry = Telemetry(enabled=True)
        timer = telemetry.stage_timer("deliver")
        for _ in range(4):
            with timer:
                pass
        histogram = telemetry.registry.histogram(
            STAGE_HISTOGRAM, labels={"stage": "deliver"}
        )
        assert histogram.count == 4
        assert telemetry.tracer.counts["stage.deliver"] == 4

    def test_stage_timer_error_annotation_is_per_use(self):
        telemetry = Telemetry(enabled=True)
        timer = telemetry.stage_timer("resolve")
        with pytest.raises(KeyError):
            with timer:
                raise KeyError("x")
        with timer:
            pass
        first, second = telemetry.tracer.spans()
        assert first.attrs == {"error": "KeyError"}
        assert second.attrs == {}

    def test_span_timer_is_a_bare_reusable_span(self):
        telemetry = Telemetry(enabled=True)
        timer = telemetry.span_timer("check.incremental")
        with timer:
            pass
        assert telemetry.tracer.counts["check.incremental"] == 1
        # No histogram family was created for a bare span.
        assert STAGE_HISTOGRAM not in telemetry.registry.families()

    def test_stage_nests_under_open_span(self):
        telemetry = Telemetry(enabled=True)
        with telemetry.span("engine.batch") as batch:
            with telemetry.stage("check"):
                pass
        spans = {s.name: s for s in telemetry.tracer.spans()}
        assert spans["stage.check"].parent_id == batch.span_id


class TestDisabled:
    def test_disabled_bundle_records_nothing(self):
        telemetry = Telemetry.disabled()
        with telemetry.stage("check"):
            pass
        with telemetry.span("x"):
            pass
        with telemetry.stage_timer("deliver"):
            pass
        with telemetry.span_timer("check.incremental"):
            pass
        telemetry.count("ctx_total")
        assert telemetry.registry.families() == []
        assert telemetry.tracer.total_spans() == 0

    def test_null_telemetry_is_shared_and_disabled(self):
        assert not NULL_TELEMETRY.enabled
        assert not NULL_TELEMETRY.tracer.enabled


class TestCountersAndSnapshots:
    def test_count_increments_labeled_counter(self):
        telemetry = Telemetry(enabled=True)
        telemetry.count("discards_total", 2, labels={"strategy": "drop-bad"})
        telemetry.count("discards_total", labels={"strategy": "drop-bad"})
        assert (
            telemetry.registry.value(
                "discards_total", {"strategy": "drop-bad"}
            )
            == 3
        )

    def test_clear_resets_cached_stage_histograms(self):
        telemetry = Telemetry(enabled=True)
        with telemetry.stage("check"):
            pass
        telemetry.clear()
        assert telemetry.registry.families() == []
        with telemetry.stage("check"):
            pass
        histogram = telemetry.registry.histogram(
            STAGE_HISTOGRAM, labels={"stage": "check"}
        )
        assert histogram.count == 1
