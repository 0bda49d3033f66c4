"""Deterministic replay: re-project decisions from (ledger + ruleset).

A verified ledger contains everything a re-execution needs: the full
arrival stream (context records in order), the constraint DSL texts,
the strategy name + kwargs and the window semantics.  Replay rebuilds
the resolution pipeline from the header, feeds it the recorded
arrivals, and asserts the resulting ``decision_signature`` is
byte-identical to the one the ledger records -- time-travel debugging
and crash recovery: the ledger alone reconstitutes the run.

Replay executes on the sharded engine, which is sufficient for every
recording host: the golden equivalence suite pins that the middleware
and the engine produce byte-identical decisions over one stream.  (The
one documented exception is ``drop-random``: its per-shard RNG draws
are not captured in the ruleset, so stochastic runs cannot be
re-projected.)  Ledgers recorded by older builds in the removed
``local`` / ``process`` modes still verify and replay; where those
modes' per-shard use windows changed a decision, replay reports the
first mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from ..middleware.trace import context_from_record
from .reader import Entries, ledger_signature, read_ledger, verify_ledger
from .records import (
    KIND_ARRIVAL,
    constraints_from_document,
    resolve_registry_spec,
)

__all__ = ["ReplayResult", "replay_ledger"]


@dataclass
class ReplayResult:
    """Outcome of one ledger replay."""

    ok: bool
    contexts: int
    recorded: Dict[str, List[str]]
    replayed: Dict[str, List[str]]
    ruleset_hash: Optional[str] = None
    detail: str = ""

    def summary(self) -> str:
        if self.ok:
            return (
                f"OK: {self.contexts} contexts replayed, "
                f"{len(self.recorded['delivered'])} delivered / "
                f"{len(self.recorded['discarded'])} discarded, "
                "decision signature byte-identical"
            )
        return f"MISMATCH: {self.detail}"


def _first_mismatch(recorded: List[str], replayed: List[str]) -> str:
    for index, (a, b) in enumerate(zip(recorded, replayed)):
        if a != b:
            return f"index {index}: recorded {a!r}, replayed {b!r}"
    return f"length {len(recorded)} recorded vs {len(replayed)} replayed"


def replay_ledger(
    source: Union[str, Path, Entries],
    *,
    shards: Optional[int] = None,
    registry_factory: Optional[Callable] = None,
    verify: bool = True,
) -> ReplayResult:
    """Re-execute a ledger's run and compare decision signatures.

    Parameters
    ----------
    source:
        Ledger path or parsed entries.
    shards:
        Shard count for the replay engine (default: the recorded
        ``meta.shards``, else 1).  Inline decisions are shard-count
        invariant, so this only affects layout, never the outcome.
    registry_factory:
        Override for the predicate registry; required when the header
        has no resolvable registry spec (closures, lambdas).
    verify:
        Check the hash chain first (default).  A ledger that fails
        verification is refused -- replaying tampered history would
        launder it.
    """
    entries = (
        read_ledger(source) if isinstance(source, (str, Path)) else list(source)
    )
    if verify:
        check = verify_ledger(entries)
        if not check.ok:
            return ReplayResult(
                False,
                0,
                {"delivered": [], "discarded": []},
                {"delivered": [], "discarded": []},
                check.ruleset_hash,
                f"refusing to replay an unverifiable ledger ({check.summary()})",
            )
    header = entries[0]
    ruleset = header.get("ruleset") or {}
    meta = header.get("meta") or {}

    constraints = constraints_from_document(ruleset)
    if registry_factory is None:
        spec = ruleset.get("registry")
        if spec is None:
            return ReplayResult(
                False,
                0,
                {"delivered": [], "discarded": []},
                {"delivered": [], "discarded": []},
                header.get("ruleset_hash"),
                "ruleset has no registry spec; pass registry_factory "
                "(CLI: --app)",
            )
        registry_factory = resolve_registry_spec(spec)

    contexts = [
        context_from_record(entry["ctx"])
        for entry in entries
        if entry.get("kind") == KIND_ARRIVAL
    ]

    # Deferred import: the engine imports the ledger package for its
    # own wiring, so a module-level import here would cycle.
    from ..engine.config import EngineConfig
    from ..engine.facade import ShardedEngine
    from ..runtime.snapshot import AsyncCheckConfig

    # An async-mode ledger records arrivals in *release* order (the
    # snapshot window's timestamp-sorted output), so re-feeding them
    # through the same window configuration releases them identically:
    # sorted input, unique ids, nothing refused, same clock at every
    # step.  The refusal entries (stale/duplicate) are not arrivals
    # and are deliberately not replayed.
    async_doc = ruleset.get("async_check")
    engine = ShardedEngine(
        constraints,
        strategy=ruleset.get("strategy", "drop-latest"),
        strategy_kwargs=dict(ruleset.get("strategy_kwargs") or {}),
        registry_factory=registry_factory,
        config=EngineConfig(
            shards=shards
            if shards is not None
            else int(meta.get("shards", 1) or 1),
            use_window=int(ruleset.get("use_window", 4)),
            use_delay=ruleset.get("use_delay"),
            async_check=(
                AsyncCheckConfig.from_document(async_doc)
                if async_doc is not None
                else None
            ),
        ),
    )
    result = engine.run(contexts)

    recorded = ledger_signature(entries)
    replayed = result.decision_signature()
    if recorded == replayed:
        return ReplayResult(
            True, len(contexts), recorded, replayed, header.get("ruleset_hash")
        )
    details = []
    for key in ("delivered", "discarded"):
        if recorded[key] != replayed[key]:
            details.append(f"{key}: {_first_mismatch(recorded[key], replayed[key])}")
    return ReplayResult(
        False,
        len(contexts),
        recorded,
        replayed,
        header.get("ruleset_hash"),
        "; ".join(details),
    )
