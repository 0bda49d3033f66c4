"""Engine metrics and machine-readable benchmark output.

``EngineMetrics`` is a *view* over the telemetry registry: shards
flush their accounting into per-shard ``engine_shard_*`` series
(:meth:`~repro.engine.shard.ShardPipeline.flush_stats`) and
:meth:`EngineMetrics.from_registry` reads the registry back into the
familiar totals -- one accounting path.

``BENCH_engine.json`` (written under ``benchmarks/out/`` next to the
textual reports) records contexts/second per shard count so tooling
can track scalability across commits without parsing tables.
``contexts_per_second`` is recorded **raw** -- consumers compare
floats; rounding is for text reports only (see :meth:`summary`).
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Union

from ..obs.sidecar import atomic_write_text

__all__ = ["ShardStats", "EngineMetrics", "write_bench_json"]

_log = logging.getLogger("repro.engine")


@dataclass
class ShardStats:
    """Per-shard accounting of one engine run."""

    shard_id: int
    constraints: int = 0
    contexts: int = 0
    delivered: int = 0
    discarded: int = 0
    inconsistencies: int = 0
    detect_calls: int = 0


@dataclass
class EngineMetrics:
    """Whole-run accounting: totals, per-shard stats, throughput."""

    shards: int = 1
    contexts_total: int = 0
    delivered_total: int = 0
    discarded_total: int = 0
    inconsistencies_total: int = 0
    elapsed_s: float = 0.0
    per_shard: List[ShardStats] = field(default_factory=list)

    @property
    def contexts_per_second(self) -> float:
        if self.elapsed_s <= 0:
            return 0.0
        return self.contexts_total / self.elapsed_s

    @classmethod
    def from_registry(cls, registry, *, shards: int) -> "EngineMetrics":
        """Build the metrics view from a telemetry registry.

        Reads the ``engine_shard_*`` series every shard flushed
        (``registry`` is a :class:`repro.obs.MetricsRegistry`); a shard
        that never flushed reads as zeros.
        """
        per_shard: List[ShardStats] = []
        for shard_id in range(shards):
            labels = {"shard": str(shard_id)}
            per_shard.append(
                ShardStats(
                    shard_id=shard_id,
                    constraints=int(
                        registry.value("engine_shard_constraints", labels)
                    ),
                    contexts=int(
                        registry.value("engine_shard_contexts_total", labels)
                    ),
                    delivered=int(
                        registry.value("engine_shard_delivered_total", labels)
                    ),
                    discarded=int(
                        registry.value("engine_shard_discarded_total", labels)
                    ),
                    inconsistencies=int(
                        registry.value(
                            "engine_shard_inconsistencies_total", labels
                        )
                    ),
                    detect_calls=int(
                        registry.value(
                            "engine_shard_detect_calls_total", labels
                        )
                    ),
                )
            )
        return cls(
            shards=shards,
            contexts_total=sum(s.contexts for s in per_shard),
            delivered_total=sum(s.delivered for s in per_shard),
            discarded_total=sum(s.discarded for s in per_shard),
            inconsistencies_total=sum(s.inconsistencies for s in per_shard),
            per_shard=per_shard,
        )

    def summary(self) -> Dict[str, object]:
        """JSON-ready dict; ``contexts_per_second`` is the raw float.

        Bench JSON consumers compare throughput floats across commits,
        so no precision is dropped here; text reports round at the
        formatting edge (:meth:`summary_text`).
        """
        data = asdict(self)
        data["contexts_per_second"] = self.contexts_per_second
        return data

    def summary_text(self) -> str:
        """One-line human summary (rounded for reading, not storage)."""
        return (
            f"{self.contexts_total} contexts on {self.shards} shard(s) "
            f"in {self.elapsed_s:.3f}s "
            f"({self.contexts_per_second:.1f} ctx/s): "
            f"{self.delivered_total} delivered, "
            f"{self.discarded_total} discarded, "
            f"{self.inconsistencies_total} inconsistencies"
        )


def write_bench_json(
    path: Union[str, Path], workload: str, record: Dict[str, object]
) -> Dict[str, object]:
    """Merge ``record`` under ``workload`` into the JSON file at ``path``.

    Existing entries for other workloads are preserved, so the
    scalability benchmark and the engine benchmark can both contribute
    to one ``BENCH_engine.json``.  A corrupt existing file is reset to
    a fresh document -- but loudly: the parse error is logged as a
    warning first, because silently discarding past benchmark records
    hides history loss.  Returns the full document written.
    """
    path = Path(path)
    document: Dict[str, object] = {}
    if path.exists():
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (ValueError, OSError) as error:
            _log.warning(
                "resetting corrupt bench JSON %s (%s: %s)",
                path,
                type(error).__name__,
                error,
            )
            document = {}
    if not isinstance(document, dict):
        _log.warning(
            "resetting bench JSON %s: top level is %s, expected object",
            path,
            type(document).__name__,
        )
        document = {}
    document[workload] = record
    # Atomic replace: a crash mid-write must not destroy the merged
    # history of every other workload's records.
    atomic_write_text(
        path, json.dumps(document, indent=2, sort_keys=True) + "\n"
    )
    return document
