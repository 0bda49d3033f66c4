"""The four benchmark workloads: inputs, hosts and reference decisions.

Each workload is built so that a different layer does most of the
work, and each pair shares what a later change might trade against:

* ``fleet-dropbad`` -- the paper's strategy on a large expiring pool;
  the checking-scope filter in ``ResolutionService.handle_addition``
  dominates and batched detection never engages.
* ``fleet-droplatest`` -- the identical stream under drop-latest, which
  takes the batch planner -> ``ConstraintChecker.detect_batch`` path.
* ``immortal-chain`` -- nothing expires or is discarded, so the pool
  grows with the stream and the O(pool) ``existing`` copy in
  ``ResolutionPipeline.add`` dominates.
* ``serve-home`` -- the only workload that crosses the serve front
  door, the live ledger and telemetry.

Every input is a pure function of ``(workload, seed, scale)``; the
program under test only ever sees the generated contexts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "WORKLOADS",
    "Workload",
    "build_engine",
    "decision_digest",
    "expected_decisions",
    "generate",
    "nominal_records",
    "saturate_records",
    "stream_decisions",
]

#: Contexts handed to ``EngineStream.submit`` per call, offline.
CHUNK = 256
ERR_RATE = 0.2
#: Fleet: residents, and the pack's phase script stretched 4x.
FLEET_SUBJECTS = 32
FLEET_DURATION_SCALE = 4.0
IMMORTAL_CONTEXTS = 30_000
#: serve-home: residents, script stretch, and the two phases' sizes.
SERVE_SUBJECTS = 4
SERVE_DURATION_SCALE = 128.0
#: The nominal rate is about a tenth of the server's capacity: the wait
#: for a verdict at light load.  Nearer capacity, queueing amplifies
#: every slowdown of a shared host into a different latency.
NOMINAL_RATE = 500.0
NOMINAL_RECORDS = 15_000
SATURATE_RECORDS = 30_000


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``offline`` (engine stream driven in-process) or ``serve``.
    kind: str
    strategy: str
    shards: int
    use_window: int
    #: Scale of a time-boxed run: small enough that several repeats fit.
    timed_scale: float
    why: str


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fleet-dropbad",
            "offline",
            "drop-bad",
            2,
            10,
            0.4,
            "drop-bad on a large expiring pool: the checking-scope filter "
            "dominates, batched detection never engages",
        ),
        Workload(
            "fleet-droplatest",
            "offline",
            "drop-latest",
            2,
            10,
            0.4,
            "the same stream under drop-latest: the batch planner and "
            "detect_batch dominate",
        ),
        Workload(
            "immortal-chain",
            "offline",
            "drop-latest",
            4,
            20,
            0.4,
            "nothing expires or is discarded: the pool grows and the "
            "O(pool) copy in ResolutionPipeline.add dominates",
        ),
        Workload(
            "serve-home",
            "serve",
            "drop-bad",
            2,
            10,
            0.2,
            "the WebSocket front door with ledger and telemetry on: the "
            "only workload through serve, ledger and obs",
        ),
    )
}


def _smart_home(subjects: int):
    from repro.scenarios.registry import get_pack

    pack = get_pack("smart-home")
    residents = tuple(f"resident-{i:02d}" for i in range(subjects))
    return pack, dataclasses.replace(pack.workload, subjects=residents)


def _scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


def generate(name: str, seed: int, scale: float):
    """The workload's whole input stream (a list of contexts)."""
    if name in ("fleet-dropbad", "fleet-droplatest"):
        _, spec = _smart_home(FLEET_SUBJECTS)
        return spec.generate(
            ERR_RATE, seed, duration_scale=FLEET_DURATION_SCALE * scale
        )
    if name == "immortal-chain":
        from repro.engine import scalability_workload

        _, contexts = scalability_workload(
            _scaled(IMMORTAL_CONTEXTS, scale), seed=seed
        )
        return contexts
    if name == "serve-home":
        _, spec = _smart_home(SERVE_SUBJECTS)
        stream = spec.generate(
            ERR_RATE, seed, duration_scale=SERVE_DURATION_SCALE * scale
        )
        needed = max(nominal_records(scale), saturate_records(scale))
        if len(stream) < needed:
            raise ValueError(
                f"serve-home stream has {len(stream)} contexts, fewer than "
                f"the {needed} a phase sends"
            )
        return stream
    raise ValueError(f"unknown workload {name!r}")


def nominal_records(scale: float) -> int:
    return _scaled(NOMINAL_RECORDS, scale)


def saturate_records(scale: float) -> int:
    return _scaled(SATURATE_RECORDS, scale)


def build_engine(
    name: str, *, telemetry=None, ledger_path: Optional[str] = None
):
    """The engine host a workload runs on (inline mode)."""
    from repro.engine import EngineConfig, ShardedEngine, scalability_workload

    workload = WORKLOADS[name]
    if name == "immortal-chain":
        constraints, _ = scalability_workload(0)
        registry_factory = None
    else:
        pack, _ = _smart_home(1)
        constraints = pack.build_constraints()
        registry_factory = pack.build_registry
    kwargs = {} if registry_factory is None else {"registry_factory": registry_factory}
    return ShardedEngine(
        constraints,
        strategy=workload.strategy,
        config=EngineConfig(
            shards=workload.shards,
            mode="inline",
            use_window=workload.use_window,
            ledger_path=ledger_path,
        ),
        telemetry=telemetry,
        **kwargs,
    )


def decision_digest(
    delivered_ids: Sequence[str], discarded_ids: Sequence[str]
) -> str:
    """Digest of delivered ids in order plus sorted discarded ids."""
    blob = json.dumps(
        {"delivered": list(delivered_ids), "discarded": sorted(discarded_ids)},
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def stream_decisions(stream) -> Tuple[List[str], List[str]]:
    """Delivered ids in decision order, and discarded ids, of an
    :class:`~repro.engine.stream.EngineStream` after ``close()``."""
    delivered = [ctx.ctx_id for ctx in stream.driver.delivered]
    discarded = [
        ctx.ctx_id
        for pipeline in stream.pipelines
        for ctx in pipeline.resolution.log.discarded
    ]
    return delivered, discarded


def expected_decisions(name: str, contexts: Sequence) -> str:
    """The reference digest a host must reproduce on ``contexts``.

    ``immortal-chain`` has no inconsistencies by construction: every id
    is delivered in stream order and none is discarded.  The others are
    replayed through the single-pool ``Middleware`` host with
    per-context detection -- a different host *and* a different
    detection path from the engine under test.
    """
    if name == "immortal-chain":
        return decision_digest([ctx.ctx_id for ctx in contexts], [])
    from repro.core.strategy import make_strategy
    from repro.middleware.bus import ContextDelivered, ContextDiscarded
    from repro.middleware.manager import Middleware

    workload = WORKLOADS[name]
    pack, _ = _smart_home(1)
    middleware = Middleware(
        pack.build_checker(),
        make_strategy(workload.strategy),
        use_window=workload.use_window,
        batch_kernels=False,
    )
    delivered: List[str] = []
    discarded: List[str] = []
    middleware.bus.subscribe(
        ContextDelivered, lambda e: delivered.append(e.context.ctx_id)
    )
    middleware.bus.subscribe(
        ContextDiscarded, lambda e: discarded.append(e.context.ctx_id)
    )
    middleware.receive_all(contexts)
    return decision_digest(delivered, discarded)
