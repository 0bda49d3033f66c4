"""Engine configuration.

One frozen dataclass collects every tunable of the sharded engine so
the CLI, the benchmarks and the tests construct engines the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..runtime.snapshot import AsyncCheckConfig

__all__ = ["EngineConfig"]


@dataclass(frozen=True)
class EngineConfig:
    """Tunables of a :class:`~repro.engine.facade.ShardedEngine` run.

    Parameters
    ----------
    shards:
        Number of shards to spread the constraint scopes over (>= 1).
        Independent scopes are packed onto shards balancing estimated
        load; asking for more shards than there are independent scopes
        leaves the surplus shards empty.
    mode:
        Always ``"inline"``: every shard runs in-process behind one
        global use schedule, so decisions equal the single-pool
        middleware's.  The ``local`` and ``process`` modes were removed
        (they counted use windows per shard, so they did not compute
        the paper's decisions); any other value raises ``ValueError``.
        The field remains so that callers passing ``mode="inline"``
        explicitly -- the repository benchmark's engine builder among
        them -- keep working.
    use_window:
        Count-based use window (arrivals before a context is used),
        exactly as in :class:`~repro.middleware.manager.Middleware`.
        Ignored when ``use_delay`` is set.
    use_delay:
        Time-based use window (simulated seconds).
    kernels:
        Compile constraint bodies into specialized closures and prune
        candidate enumeration through equality-join indexes (default).
        ``False`` forces the interpreted reference path -- the
        ``repro engine run --no-kernels`` escape hatch.
    batch_kernels:
        Columnar batched detection (default): the runtime batch path
        plans whole runs of arrivals through
        ``ConstraintChecker.detect_batch`` -- vectorized batch
        kernels, fused same-shape constraints, shared candidate-index
        probes.  Decision-neutral by construction (the equivalence and
        golden suites pin it); ``False`` is the ``repro engine run
        --no-batch-kernels`` escape hatch and the A/B lever of the
        ``detection_batch`` benchmark column.
    runtime_batch:
        Apply arrivals through the amortized runtime batch path
        (:func:`repro.runtime.batch.receive_batch`, default).
        ``False`` falls back to per-context ``driver.receive`` -- the
        ``repro engine run --no-runtime-batch`` escape hatch and the
        A/B lever of the ``runtime_batch`` benchmark column.
    ledger_path:
        When set, the run writes an immutable decision ledger (see
        :mod:`repro.ledger`) to this JSONL path: every arrival,
        detection and verdict hash-chained under the run's
        ``ruleset_hash``.
    ledger_fsync:
        Force-fsync every ledger flush (durability over throughput).
    async_check:
        Optional :class:`~repro.runtime.snapshot.AsyncCheckConfig`
        enabling the snapshot-window asynchronous checking mode:
        arrivals are buffered, deduplicated and released to the
        checker in timestamp order behind a watermark, tolerating
        late / reordered / duplicated streams.  ``None`` (default) is
        the historical synchronous path.  Decision-*relevant* (a
        perturbed stream resolves differently with it on), so it is
        recorded in the ledger ruleset, not in ``meta``.  One global
        window orders the whole stream.
    """

    shards: int = 4
    mode: str = "inline"
    use_window: int = 4
    use_delay: Optional[float] = None
    kernels: bool = True
    batch_kernels: bool = True
    runtime_batch: bool = True
    ledger_path: Optional[str] = None
    ledger_fsync: bool = False
    async_check: Optional[AsyncCheckConfig] = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.mode != "inline":
            raise ValueError(
                f"mode {self.mode!r} was removed: the local and process "
                "execution modes are gone and the engine runs inline only"
            )
        if self.use_window < 0:
            raise ValueError(f"use_window must be >= 0, got {self.use_window}")
        if self.use_delay is not None and self.use_delay < 0:
            raise ValueError(f"use_delay must be >= 0, got {self.use_delay}")
        if self.async_check is not None and not isinstance(
            self.async_check, AsyncCheckConfig
        ):
            raise ValueError(
                "async_check must be an AsyncCheckConfig or None, got "
                f"{type(self.async_check).__name__}"
            )

    def with_shards(self, shards: int) -> "EngineConfig":
        """This configuration with a different shard count."""
        return replace(self, shards=shards)
