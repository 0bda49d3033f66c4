"""Metrics registry: counters, gauges and fixed-bucket histograms.

The registry is the single accounting surface of the telemetry
subsystem (docs/observability.md).  Design constraints:

* **dependency-free** -- plain stdlib, no prometheus_client;
* **thread-safe** -- one lock per registry guards family creation, one
  lock per instrument guards updates, so the serve tier's threads and
  bus subscribers can record concurrently;
* **serializable** -- a registry snapshots to a plain dict (the
  telemetry sidecar and the exporters read it);
* **fixed buckets** -- histograms use fixed boundaries chosen at
  creation.

Instruments are identified by ``(family name, label set)``; the first
``counter``/``gauge``/``histogram`` call for a family fixes its type
(and bucket boundaries), later calls with a conflicting type raise.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "FINE_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]


#: Default latency buckets (seconds): 50us .. 2.5s, roughly log-spaced.
#: Wide enough for a full batch, fine enough for one incremental check.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.00005,
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
)

#: Fine-grained latency buckets (seconds): 10us .. 10s on a 1-2-5
#: ladder.  The default buckets above are throughput-oriented (the
#: coarse top end suits whole-batch timings); the serving subsystem's
#: ingest->decision percentiles live well under a millisecond at low
#: load and need the sub-100us resolution, while sustained-load tails
#: can stretch past the default 2.5s ceiling.  Pass these (or any
#: custom ladder) through the ``buckets`` parameter -- the default
#: layout is unchanged, so existing snapshots keep merging.
FINE_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.00001,
    0.00002,
    0.00005,
    0.0001,
    0.0002,
    0.0005,
    0.001,
    0.002,
    0.005,
    0.01,
    0.02,
    0.05,
    0.1,
    0.2,
    0.5,
    1.0,
    2.0,
    5.0,
    10.0,
)

#: Canonical label-set key: sorted tuple of (key, value) pairs.
LabelsKey = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Optional[Mapping[str, str]]) -> LabelsKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing value (events, contexts, discards)."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self.value += amount


class Gauge:
    """Point-in-time value (pool size, shard constraint count)."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)


class Histogram:
    """Fixed-boundary histogram with cumulative-le bucket semantics.

    ``counts[i]`` is the number of observations ``<= buckets[i]`` minus
    those in earlier buckets; the final slot counts observations above
    the largest boundary (the implicit ``+Inf`` bucket).
    """

    __slots__ = ("_lock", "buckets", "counts", "sum", "count")

    def __init__(self, buckets: Sequence[float]) -> None:
        if not buckets or list(buckets) != sorted(set(buckets)):
            raise ValueError("buckets must be non-empty, sorted, unique")
        self._lock = threading.Lock()
        self.buckets: Tuple[float, ...] = tuple(float(b) for b in buckets)
        self.counts: List[int] = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self.buckets, value)
        with self._lock:
            self.counts[index] += 1
            self.sum += value
            self.count += 1

    def percentile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (upper bucket boundary).

        ``q`` in [0, 1]; returns 0.0 for an empty histogram and the
        largest boundary for observations beyond it.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank:
                if index < len(self.buckets):
                    return self.buckets[index]
                return self.buckets[-1]
        return self.buckets[-1]


_INSTRUMENTS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Named, labelled instruments with snapshot/merge support."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: family name -> {"type": ..., "help": ..., "buckets": ...}
        self._families: Dict[str, Dict[str, object]] = {}
        self._series: Dict[Tuple[str, LabelsKey], object] = {}

    # -- instrument access --------------------------------------------------

    def counter(
        self,
        name: str,
        *,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> Counter:
        return self._get(name, "counter", help, labels)  # type: ignore[return-value]

    def gauge(
        self,
        name: str,
        *,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> Gauge:
        return self._get(name, "gauge", help, labels)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        *,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get(name, "histogram", help, labels, buckets)  # type: ignore[return-value]

    def _get(
        self,
        name: str,
        kind: str,
        help: str,
        labels: Optional[Mapping[str, str]],
        buckets: Optional[Sequence[float]] = None,
    ):
        key = (name, _labels_key(labels))
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = {"type": kind, "help": help}
                if kind == "histogram":
                    family["buckets"] = tuple(
                        float(b) for b in (buckets or DEFAULT_LATENCY_BUCKETS)
                    )
                self._families[name] = family
            elif family["type"] != kind:
                raise ValueError(
                    f"metric {name!r} is a {family['type']}, not a {kind}"
                )
            instrument = self._series.get(key)
            if instrument is None:
                if kind == "histogram":
                    instrument = Histogram(family["buckets"])  # type: ignore[arg-type]
                else:
                    instrument = _INSTRUMENTS[kind]()
                self._series[key] = instrument
            return instrument

    # -- queries -------------------------------------------------------------

    def value(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> float:
        """Current value of a counter/gauge series; 0.0 when absent."""
        instrument = self._series.get((name, _labels_key(labels)))
        if instrument is None or isinstance(instrument, Histogram):
            return 0.0
        return instrument.value  # type: ignore[union-attr]

    def series_labels(self, name: str) -> List[Dict[str, str]]:
        """All label sets recorded for a family, sorted."""
        with self._lock:
            keys = sorted(lk for fn, lk in self._series if fn == name)
        return [dict(lk) for lk in keys]

    def families(self) -> List[str]:
        with self._lock:
            return sorted(self._families)

    # -- snapshot ----------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Serialize to a plain JSON-ready dict (queue- and file-safe)."""
        with self._lock:
            items = sorted(self._series.items())
            families = {
                name: dict(meta) for name, meta in self._families.items()
            }
        series = []
        for (name, labels_key), instrument in items:
            entry: Dict[str, object] = {
                "name": name,
                "labels": dict(labels_key),
            }
            if isinstance(instrument, Histogram):
                entry["counts"] = list(instrument.counts)
                entry["sum"] = instrument.sum
                entry["count"] = instrument.count
            else:
                entry["value"] = instrument.value
            series.append(entry)
        for meta in families.values():
            if "buckets" in meta:
                meta["buckets"] = list(meta["buckets"])  # type: ignore[index]
        return {"families": families, "series": series}

    def clear(self) -> None:
        """Drop every family and series (between experiment groups)."""
        with self._lock:
            self._families.clear()
            self._series.clear()
