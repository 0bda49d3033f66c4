"""Ledger entry vocabulary and the self-describing ruleset document.

A ledger file is JSONL: one entry per line, hash-chained in order.
Line 0 is always the *ruleset header* (kind ``"ruleset"``) -- the full
resolution configuration in re-parseable form -- and every later line
is one life-cycle verdict of the paper's resolution pipeline:

========== ===========================================================
kind       meaning / extra fields
========== ===========================================================
ruleset    header: ``ledger_version``, ``ruleset`` (see
           :func:`ruleset_document`), ``ruleset_hash``, ``meta``
arrival    a context reached the pipeline; ``ctx`` is the full
           context record (enough to replay the run from the ledger)
detection  a constraint fired; ``constraint``, ``ctx_ids``
discard    a context was dropped; ``ctx_id``, ``why`` (the constraint
           names whose detections implicated it -- empty for expiry-
           free strategies that discard on arrival without detection)
admit      the strategy judged a context consistent; ``ctx_id``
mark_bad   drop-bad marked a context bad (deferred drop); ``ctx_id``
deliver    a used context reached the application; ``ctx_id``
expire     availability period elapsed unused; ``ctx_id``
stale      the async-check ingress refused an unorderably late
           arrival; ``ctx_id`` plus the full ``ctx`` record (the
           context never *arrived* at the pipeline, so this is not an
           ``arrival`` -- replay must not feed it)
duplicate  the async-check ingress refused a re-delivered ctx_id;
           same fields as ``stale``
========== ===========================================================

All entries carry ``at`` (simulation time), ``shard`` (the owning
shard, ``0`` in the single-pool middleware) and writer-assigned
``seq`` + ``h`` (chain hash).  The delivered/discarded entries in file
order *are* the run's ``decision_signature`` -- see
:func:`repro.ledger.reader.ledger_signature`.

Mechanical staging (a context being *buffered* pending its use) is
deliberately not a ledger kind: it is not a verdict, it is visible in
telemetry stage histograms, and at roughly one event per context it
would be the single largest contributor to ledger write overhead.

The ruleset document deliberately contains only decision-relevant
configuration: constraint DSL texts (round-trippable through
:func:`repro.constraints.parser.parse_constraint`), strategy name and
kwargs, window semantics and the predicate-registry factory spec.
Accelerations that are pinned decision-neutral (compiled kernels,
candidate indexes, runtime batching) belong in ``meta``, so kernels-on
and kernels-off runs share one ``ruleset_hash`` and stay diffable.
"""

from __future__ import annotations

import importlib
import types
from typing import Callable, Iterable, Mapping, Optional, Sequence

from ..constraints.ast import Constraint
from ..constraints.builtins import standard_registry
from ..constraints.format import format_formula

__all__ = [
    "LEDGER_VERSION",
    "KIND_RULESET",
    "KIND_ARRIVAL",
    "KIND_DETECTION",
    "KIND_ADMIT",
    "KIND_MARK_BAD",
    "KIND_DISCARD",
    "KIND_DELIVER",
    "KIND_EXPIRE",
    "KIND_STALE",
    "KIND_DUPLICATE",
    "DECISION_KINDS",
    "TERMINAL_KINDS",
    "ruleset_document",
    "constraints_from_document",
    "registry_spec",
    "resolve_registry_spec",
]

#: Ledger format version (bump on incompatible entry-schema change).
LEDGER_VERSION = 1

KIND_RULESET = "ruleset"
KIND_ARRIVAL = "arrival"
KIND_DETECTION = "detection"
KIND_ADMIT = "admit"
KIND_MARK_BAD = "mark_bad"
KIND_DISCARD = "discard"
KIND_DELIVER = "deliver"
KIND_EXPIRE = "expire"
KIND_STALE = "stale"
KIND_DUPLICATE = "duplicate"

#: The externally visible decisions (the ``decision_signature`` pair).
DECISION_KINDS = (KIND_DELIVER, KIND_DISCARD)
#: Kinds after which a context's story is over.
TERMINAL_KINDS = (
    KIND_DELIVER,
    KIND_DISCARD,
    KIND_EXPIRE,
    KIND_STALE,
    KIND_DUPLICATE,
)

_STANDARD_REGISTRY_SPEC = "repro.constraints.builtins:standard_registry"


def registry_spec(factory: Optional[Callable]) -> Optional[str]:
    """A ``"module:qualname"`` spec re-resolving to ``factory``.

    Covers module-level callables and bound methods of no-argument-constructible classes
    (the application objects' ``build_registry``).  Closures, lambdas
    and locals have no stable spec -- ``None`` is returned and replay
    will need an explicit registry (``repro ledger replay --app``).
    """
    if factory is None or factory is standard_registry:
        return _STANDARD_REGISTRY_SPEC
    func = getattr(factory, "__func__", factory)
    module = getattr(func, "__module__", None)
    qualname = getattr(func, "__qualname__", None)
    if not module or not qualname or "<" in qualname:
        return None
    return f"{module}:{qualname}"


def resolve_registry_spec(spec: str) -> Callable:
    """Import the callable a :func:`registry_spec` string names.

    A plain function resolves by attribute walk; a function reached
    *through a class* (an app's ``build_registry``) is bound to a
    freshly constructed instance of that class.
    """
    module_name, sep, qualname = spec.partition(":")
    if not sep or not qualname:
        raise ValueError(f"malformed registry spec {spec!r}")
    obj: object = importlib.import_module(module_name)
    parent: object = None
    last_part = ""
    for part in qualname.split("."):
        parent, obj = obj, getattr(obj, part)
        last_part = part
    if isinstance(parent, type) and isinstance(obj, types.FunctionType):
        # Unbound instance method fetched off the class: bind it.
        obj = getattr(parent(), last_part)
    if not callable(obj):
        raise ValueError(f"registry spec {spec!r} is not callable")
    return obj


def ruleset_document(
    constraints: Iterable[Constraint],
    *,
    strategy: str,
    strategy_kwargs: Optional[Mapping[str, object]] = None,
    use_window: int = 4,
    use_delay: Optional[float] = None,
    registry_factory: Optional[Callable] = None,
    async_check: Optional[Mapping[str, object]] = None,
) -> dict:
    """The self-describing resolution configuration of one run.

    Constraints are stored name-sorted as re-parseable DSL text
    (``format_formula`` round-trips through ``parse_constraint``), so
    a ledger plus this document is sufficient to re-project every
    decision.  The document is plain JSON data; its canonical hash is
    the run's ``ruleset_hash``.

    ``async_check`` is the snapshot-window configuration
    (:meth:`repro.runtime.snapshot.AsyncCheckConfig.to_document`) when
    asynchronous checking is on.  It is decision-relevant -- replaying
    a perturbed stream without the window resolves differently -- so
    it belongs here, but the key is *omitted entirely* when ``None``:
    synchronous rulesets keep the exact document (and hash) they had
    before the mode existed.
    """
    docs = [
        {
            "name": c.name,
            "text": format_formula(c.formula),
            "description": c.description,
        }
        for c in sorted(constraints, key=lambda c: c.name)
    ]
    document = {
        "constraints": docs,
        "strategy": strategy,
        "strategy_kwargs": dict(strategy_kwargs or {}),
        "use_window": use_window,
        "use_delay": use_delay,
        "registry": registry_spec(registry_factory),
    }
    if async_check is not None:
        document["async_check"] = dict(async_check)
    return document


def constraints_from_document(ruleset: Mapping[str, object]) -> Sequence[Constraint]:
    """Re-parse the header's constraint texts into AST constraints."""
    from ..constraints.parser import parse_constraint

    return [
        parse_constraint(
            doc["name"], doc["text"], doc.get("description", "")
        )
        for doc in ruleset.get("constraints", ())  # type: ignore[union-attr]
    ]
