"""Immutable decision ledger: hash-chained provenance + replay.

The paper's contribution is a *decision procedure* -- which
inconsistent context to discard under drop-latest / drop-all /
drop-bad -- and this package makes every one of those decisions a
durable, auditable record.  A ledger is an append-only JSONL file:
line 0 is the run's full resolution configuration (the *ruleset*,
hashed into ``ruleset_hash``), every later line one life-cycle verdict
(arrival, detection, admit, buffer, mark-bad, discard with its *why*,
deliver, expire), each hash-chained to its predecessor so editing,
dropping or reordering history is detectable from the file alone.

Emission rides the canonical runtime's event bus, so every host
records for free: ``Middleware`` via :class:`LedgerService`, the
sharded engine via ``EngineConfig(ledger_path=...)``, the serving
front-door through the engine's open stream.

The reader side needs nothing but the file: ``repro ledger verify``
(chain + ruleset check), ``repro ledger explain <ctx-id>`` (causal
story), ``repro ledger replay`` (re-project the decisions from ledger
+ ruleset and assert byte-identical signatures), ``repro ledger diff``
(compare two runs).  See docs/ledger.md.
"""

from .hashing import GENESIS, canonical_json, chain_hash, ruleset_hash
from .reader import (
    VerifyResult,
    diff_ledgers,
    explain_context,
    format_diff,
    iter_ledger,
    ledger_signature,
    read_ledger,
    verify_ledger,
)
from .recorder import LedgerRecorder, entries_from_events
from .records import (
    DECISION_KINDS,
    LEDGER_VERSION,
    TERMINAL_KINDS,
    constraints_from_document,
    registry_spec,
    resolve_registry_spec,
    ruleset_document,
)
from .replay import ReplayResult, replay_ledger
from .service import LedgerService
from .writer import LedgerWriter

__all__ = [
    "GENESIS",
    "LEDGER_VERSION",
    "DECISION_KINDS",
    "TERMINAL_KINDS",
    "canonical_json",
    "chain_hash",
    "ruleset_hash",
    "ruleset_document",
    "constraints_from_document",
    "registry_spec",
    "resolve_registry_spec",
    "LedgerWriter",
    "LedgerRecorder",
    "entries_from_events",
    "LedgerService",
    "read_ledger",
    "iter_ledger",
    "VerifyResult",
    "verify_ledger",
    "ledger_signature",
    "explain_context",
    "diff_ledgers",
    "format_diff",
    "ReplayResult",
    "replay_ledger",
]
