"""Unified telemetry: metrics registry, span tracer, exporters.

The observability layer the performance work reads its numbers from
(docs/observability.md).  Dependency-free and middleware-agnostic:

* :class:`MetricsRegistry` -- counters, gauges, fixed-bucket
  histograms; thread-safe; plain-dict snapshots;
* :class:`SpanTracer` -- ring-buffered nested spans with a JSONL
  exporter;
* :class:`Telemetry` -- one registry + one tracer, pluggable into the
  middleware manager, the resolution service, the constraint checker
  and the sharded engine; disabled bundles cost one attribute check;
* :class:`TelemetryService` -- middleware plug-in deriving metrics
  from bus events;
* exporters (Prometheus text, JSON) and the ``TELEMETRY_*.json``
  sidecar read/write behind the ``repro obs`` CLI.
"""

from .exporters import json_text, prometheus_text, registry_prometheus
from .registry import (
    DEFAULT_LATENCY_BUCKETS,
    FINE_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .service import TelemetryService
from .sidecar import (
    atomic_write_text,
    read_sidecar,
    sidecar_slowest_spans,
    sidecar_summary,
    stage_histogram_nonempty,
    write_sidecar,
)
from .telemetry import NULL_TELEMETRY, STAGE_HISTOGRAM, Telemetry
from .tracer import SpanRecord, SpanTracer

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "FINE_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanRecord",
    "SpanTracer",
    "Telemetry",
    "NULL_TELEMETRY",
    "STAGE_HISTOGRAM",
    "TelemetryService",
    "prometheus_text",
    "json_text",
    "registry_prometheus",
    "atomic_write_text",
    "write_sidecar",
    "read_sidecar",
    "sidecar_summary",
    "sidecar_slowest_spans",
    "stage_histogram_nonempty",
]
