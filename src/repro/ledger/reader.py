"""Reading, verifying and interrogating ledger files.

Everything here works from the ledger file *alone* -- no access to the
recorded run, its workload or its process is needed.  That is the
audit contract: given a ``LEDGER_*.jsonl`` artifact, an operator can

* :func:`verify_ledger` -- prove nobody edited, dropped or reordered
  an entry (hash chain) and that the header's ``ruleset_hash`` really
  is the hash of the embedded ruleset;
* :func:`ledger_signature` -- re-project the run's externally visible
  ``decision_signature`` (delivered/discarded ids in decision order);
* :func:`explain_context` -- the full causal story of one context:
  when it arrived, which constraints implicated it, what verdict it
  got and why;
* :func:`diff_ledgers` -- compare two runs' verdict streams (kernels
  on vs off, fault-injected vs clean, strategy A vs B).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .hashing import GENESIS, chain_hash, ruleset_hash
from .records import (
    DECISION_KINDS,
    KIND_ARRIVAL,
    KIND_DELIVER,
    KIND_DETECTION,
    KIND_DISCARD,
    KIND_RULESET,
    LEDGER_VERSION,
    TERMINAL_KINDS,
)

__all__ = [
    "read_ledger",
    "iter_ledger",
    "VerifyResult",
    "verify_ledger",
    "ledger_signature",
    "explain_context",
    "diff_ledgers",
    "format_diff",
]

PathLike = Union[str, Path]
Entries = Sequence[dict]


def iter_ledger(path: PathLike) -> Iterator[dict]:
    """Lazily yield the parsed entries of a ledger file, in file order."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)


def read_ledger(path: PathLike) -> List[dict]:
    """All entries of a ledger file, parsed."""
    return list(iter_ledger(path))


@dataclass
class VerifyResult:
    """Outcome of a chain + ruleset verification pass."""

    ok: bool
    entries: int = 0
    ruleset_hash: Optional[str] = None
    errors: List[str] = field(default_factory=list)

    def summary(self) -> str:
        if self.ok:
            return (
                f"OK: {self.entries} entries, chain intact, "
                f"ruleset {self.ruleset_hash[:12]}..."
            )
        detail = "; ".join(self.errors) if self.errors else "unknown error"
        return f"FAILED after {self.entries} entries: {detail}"


def verify_ledger(source: Union[PathLike, Entries]) -> VerifyResult:
    """Recompute the hash chain and the header's ruleset hash.

    ``source`` is a ledger path or an already-parsed entry sequence.
    Verification stops at the first broken link -- every entry after an
    edit is unverifiable by construction, so one error is the honest
    report.
    """
    entries = (
        iter_ledger(source)
        if isinstance(source, (str, Path))
        else iter(source)
    )
    prev = GENESIS
    count = 0
    header_hash: Optional[str] = None
    for position, entry in enumerate(entries):
        body = dict(entry)
        stored = body.pop("h", None)
        if stored is None:
            return VerifyResult(
                False, count, header_hash, [f"entry {position}: missing hash"]
            )
        if body.get("seq") != position:
            return VerifyResult(
                False,
                count,
                header_hash,
                [
                    f"entry {position}: sequence says {body.get('seq')!r} "
                    "(entries dropped or reordered)"
                ],
            )
        if chain_hash(prev, body) != stored:
            return VerifyResult(
                False,
                count,
                header_hash,
                [f"entry {position}: hash chain broken"],
            )
        prev = stored
        if position == 0:
            if body.get("kind") != KIND_RULESET:
                return VerifyResult(
                    False, 0, None, ["entry 0 is not a ruleset header"]
                )
            if body.get("ledger_version") != LEDGER_VERSION:
                return VerifyResult(
                    False,
                    0,
                    None,
                    [
                        f"unsupported ledger_version "
                        f"{body.get('ledger_version')!r}"
                    ],
                )
            header_hash = body.get("ruleset_hash")
            if ruleset_hash(body.get("ruleset") or {}) != header_hash:
                return VerifyResult(
                    False,
                    0,
                    header_hash,
                    ["header ruleset_hash does not hash the embedded ruleset"],
                )
        count += 1
    if count == 0:
        return VerifyResult(False, 0, None, ["empty ledger"])
    return VerifyResult(True, count, header_hash)


def ledger_signature(entries: Entries) -> Dict[str, List[str]]:
    """The recorded run's ``decision_signature``, from the ledger alone.

    Byte-compatible with
    :meth:`repro.engine.facade.EngineResult.decision_signature`:
    delivered / discarded context ids in decision order.
    """
    delivered: List[str] = []
    discarded: List[str] = []
    for entry in entries:
        kind = entry.get("kind")
        if kind == KIND_DELIVER:
            delivered.append(entry["ctx_id"])
        elif kind == KIND_DISCARD:
            discarded.append(entry["ctx_id"])
    return {"delivered": delivered, "discarded": discarded}


# -- explain ------------------------------------------------------------------


def _involves(entry: dict, ctx_id: str) -> bool:
    if entry.get("ctx_id") == ctx_id:
        return True
    if entry.get("kind") == KIND_ARRIVAL:
        return entry.get("ctx", {}).get("ctx_id") == ctx_id
    if entry.get("kind") == KIND_DETECTION:
        return ctx_id in entry.get("ctx_ids", ())
    return False


def explain_context(entries: Entries, ctx_id: str) -> str:
    """The causal story of one context, answered from the ledger alone."""
    header = entries[0] if entries else {}
    ruleset = header.get("ruleset") or {}
    strategy = ruleset.get("strategy", "?")
    story = [entry for entry in entries[1:] if _involves(entry, ctx_id)]
    if not story:
        return f"{ctx_id}: no record in this ledger"

    lines = [f"{ctx_id} under {strategy} (ruleset "
             f"{str(header.get('ruleset_hash', '?'))[:12]}...):"]
    for entry in story:
        at = entry.get("at", 0.0)
        kind = entry.get("kind")
        prefix = f"  t={at:g}"
        if kind == KIND_ARRIVAL:
            ctx = entry.get("ctx", {})
            lines.append(
                f"{prefix}  arrived: type={ctx.get('ctx_type')} "
                f"subject={ctx.get('subject')} value={ctx.get('value')!r} "
                f"source={ctx.get('source')} -> shard {entry.get('shard')}"
            )
        elif kind == KIND_DETECTION:
            others = [c for c in entry.get("ctx_ids", ()) if c != ctx_id]
            with_text = f" with {', '.join(others)}" if others else ""
            lines.append(
                f"{prefix}  implicated by constraint "
                f"{entry.get('constraint')!r}{with_text}"
            )
        elif kind == KIND_DISCARD:
            why = entry.get("why") or []
            why_text = (
                f"violated {', '.join(repr(w) for w in why)}"
                if why
                else "strategy decision (no recorded detection)"
            )
            lines.append(f"{prefix}  DISCARDED by {strategy}: {why_text}")
        elif kind in TERMINAL_KINDS or kind in (
            "admit",
            "buffer",
            "mark_bad",
        ):
            verb = {
                "admit": "admitted as consistent",
                "buffer": "buffered pending use (drop-bad)",
                "mark_bad": "marked bad (deferred discard)",
                "deliver": "DELIVERED to the application",
                "expire": "EXPIRED unused (availability period elapsed)",
                "stale": (
                    "REFUSED by the async-check ingress: arrived too "
                    "late to order (timestamp behind the cursor)"
                ),
                "duplicate": (
                    "REFUSED by the async-check ingress: ctx_id "
                    "already seen (duplicate delivery)"
                ),
            }.get(kind, kind)
            lines.append(f"{prefix}  {verb}")
    return "\n".join(lines)


# -- diff ---------------------------------------------------------------------


def _verdicts(entries: Entries) -> Dict[str, Tuple[str, float]]:
    verdicts: Dict[str, Tuple[str, float]] = {}
    for entry in entries:
        kind = entry.get("kind")
        if kind in TERMINAL_KINDS:
            verdicts[entry["ctx_id"]] = (kind, entry.get("at", 0.0))
    return verdicts


def diff_ledgers(entries_a: Entries, entries_b: Entries) -> dict:
    """Structural comparison of two runs' verdict streams.

    Returns a plain dict: ruleset hash equality, decision-signature
    equality, the index of the first diverging decision, and the
    per-context verdict changes (``ctx_id -> [verdict_a, verdict_b]``,
    ``"(absent)"`` when a context only appears in one run).
    """
    header_a = entries_a[0] if entries_a else {}
    header_b = entries_b[0] if entries_b else {}
    signature_a = ledger_signature(entries_a)
    signature_b = ledger_signature(entries_b)

    decisions_a = [
        (e["kind"], e["ctx_id"])
        for e in entries_a
        if e.get("kind") in DECISION_KINDS
    ]
    decisions_b = [
        (e["kind"], e["ctx_id"])
        for e in entries_b
        if e.get("kind") in DECISION_KINDS
    ]
    first_divergence = None
    for index, (da, db) in enumerate(zip(decisions_a, decisions_b)):
        if da != db:
            first_divergence = index
            break
    if first_divergence is None and len(decisions_a) != len(decisions_b):
        first_divergence = min(len(decisions_a), len(decisions_b))

    verdicts_a = _verdicts(entries_a)
    verdicts_b = _verdicts(entries_b)
    changed: Dict[str, List[str]] = {}
    for ctx_id in sorted(set(verdicts_a) | set(verdicts_b)):
        va = verdicts_a.get(ctx_id, ("(absent)", 0.0))[0]
        vb = verdicts_b.get(ctx_id, ("(absent)", 0.0))[0]
        if va != vb:
            changed[ctx_id] = [va, vb]
    return {
        "same_ruleset": header_a.get("ruleset_hash")
        == header_b.get("ruleset_hash"),
        "ruleset_hashes": [
            header_a.get("ruleset_hash"),
            header_b.get("ruleset_hash"),
        ],
        "identical": signature_a == signature_b,
        "decisions": [len(decisions_a), len(decisions_b)],
        "first_divergence": first_divergence,
        "changed_verdicts": changed,
    }


def format_diff(diff: dict, label_a: str = "A", label_b: str = "B") -> str:
    """Human rendering of a :func:`diff_ledgers` result."""
    lines = [f"Ledger diff -- {label_a} vs {label_b}"]
    hash_a, hash_b = diff["ruleset_hashes"]
    if diff["same_ruleset"]:
        lines.append(f"  ruleset: identical ({str(hash_a)[:12]}...)")
    else:
        lines.append(
            f"  ruleset: DIFFERENT ({str(hash_a)[:12]}... vs "
            f"{str(hash_b)[:12]}...)"
        )
    count_a, count_b = diff["decisions"]
    if diff["identical"]:
        lines.append(f"  decisions: identical ({count_a} in both)")
        return "\n".join(lines)
    lines.append(
        f"  decisions: DIVERGENT ({count_a} vs {count_b}, first at "
        f"decision index {diff['first_divergence']})"
    )
    changed = diff["changed_verdicts"]
    lines.append(f"  changed verdicts: {len(changed)}")
    for ctx_id, (verdict_a, verdict_b) in list(changed.items())[:20]:
        lines.append(f"    {ctx_id}: {verdict_a} -> {verdict_b}")
    if len(changed) > 20:
        lines.append(f"    ... and {len(changed) - 20} more")
    return "\n".join(lines)
