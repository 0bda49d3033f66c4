"""Sharded streaming resolution engine.

The single-pool :class:`~repro.middleware.manager.Middleware` caps
every run at one pool and one checker.  This package scales
the same resolution semantics out: a *scope analyzer* partitions the
consistency constraints into independent shards (constraints are
coupled only through the context types they quantify over), a *router*
assigns arriving contexts to shards, and each shard runs its own
context pool + incremental checker + strategy instance, all driven
in-process through one global use schedule.  Because the constraint
scopes are disjoint, sharded resolution decisions are identical to the
single-pool middleware's -- a property-based test
(``tests/engine/test_equivalence.py``) machine-checks this on random
streams.

See ``docs/engine.md`` for the architecture and the shard-safety
argument.
"""

from .config import EngineConfig
from .facade import EngineResult, ShardedEngine
from .metrics import EngineMetrics, ShardStats, write_bench_json
from .router import ContextRouter
from .scope import ScopePartition, partition_constraints
from .shard import ShardPipeline, ShardSpec
from .stream import EngineStream
from .workload import run_scalability_bench, scalability_workload

__all__ = [
    "EngineConfig",
    "ShardedEngine",
    "EngineStream",
    "EngineResult",
    "EngineMetrics",
    "ShardStats",
    "write_bench_json",
    "ContextRouter",
    "ScopePartition",
    "partition_constraints",
    "ShardPipeline",
    "ShardSpec",
    "run_scalability_bench",
    "scalability_workload",
]
