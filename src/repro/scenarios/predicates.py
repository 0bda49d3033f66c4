"""Data-driven predicate builders for declarative packs.

The constraint DSL (:mod:`repro.constraints.parser`) resolves predicate
names against a :class:`~repro.constraints.builtins.FunctionRegistry`.
The legacy applications extend the standard registry with hand-written
closures (floor plans, reader graphs); declarative packs instead
describe each extra predicate as a :class:`PredicateSpec` -- a *kind*
plus plain-data parameters -- and the spec compiles itself into the
equivalent closure at checker-build time.  Everything stays plain
data until then, which is what lets a pack travel into TOML/JSON
documents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Tuple

from ..core.context import Context

__all__ = ["PREDICATE_KINDS", "PredicateSpec", "freeze_params", "thaw_params"]

#: The supported predicate kinds and their arity.
PREDICATE_KINDS: Mapping[str, int] = {
    # binary: values equal (if self_ok) or joined by an ``edges`` entry.
    "graph_reachable": 2,
    # binary: numeric values differ by at most ``limit``.
    "step_le": 2,
    # binary: positions in the ``order`` list differ by at most ``limit``.
    "rank_le": 2,
    # binary: the value pair appears in ``pairs`` (optionally symmetric).
    "compatible": 2,
    # unary: the value is one of ``values``.
    "value_known": 1,
    # unary: the numeric value lies in [``low``, ``high``].
    "numeric_range": 1,
}


def _freeze_item(value: Any) -> Any:
    if isinstance(value, Mapping):
        raise ValueError(
            "nested mappings are not supported in spec parameters; "
            "use lists or scalars"
        )
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_item(v) for v in value)
    return value


def _thaw_item(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_thaw_item(v) for v in value]
    return value


def freeze_params(params: Any) -> Tuple[Tuple[str, Any], ...]:
    """Canonical hashable form of a parameter mapping.

    The mapping becomes a key-sorted tuple of ``(key, value)`` pairs;
    sequence values become tuples recursively.  Nested mappings are
    rejected, which keeps freezing unambiguous (a list of string pairs
    -- e.g. a graph edge list -- is never mistaken for a mapping when
    thawed back into document form).
    """
    items = params.items() if isinstance(params, Mapping) else params
    return tuple(sorted((str(k), _freeze_item(v)) for k, v in items))


def thaw_params(params: Tuple[Tuple[str, Any], ...]) -> dict:
    """Inverse of :func:`freeze_params`, for document emission."""
    return {k: _thaw_item(v) for k, v in params}


def _numeric(ctx: Context) -> Optional[float]:
    try:
        return float(ctx.value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None


@dataclass(frozen=True)
class PredicateSpec:
    """One declaratively defined predicate of a pack's registry.

    ``params`` is a frozen mapping (sorted key/value pairs; see
    :func:`freeze_value`); a plain dict passed to the constructor is
    frozen automatically.
    """

    name: str
    kind: str
    params: Tuple[Tuple[str, Any], ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in PREDICATE_KINDS:
            raise ValueError(
                f"predicate {self.name!r} has unknown kind {self.kind!r}; "
                f"known: {', '.join(sorted(PREDICATE_KINDS))}"
            )
        object.__setattr__(self, "params", freeze_params(self.params))

    def param(self, key: str, default: Any = None) -> Any:
        for k, v in self.params:
            if k == key:
                return v
        return default

    # -- compilation --------------------------------------------------------

    def build(self) -> Callable[..., bool]:
        """Compile the spec into the predicate callable."""
        builder = _BUILDERS[self.kind]
        fn = builder(self)
        fn.__name__ = self.name
        fn.__doc__ = self.description or f"declarative {self.kind} predicate"
        return fn


def _build_graph_reachable(spec: PredicateSpec) -> Callable[..., bool]:
    self_ok = bool(spec.param("self_ok", True))
    edges = set()
    for pair in spec.param("edges", ()):
        a, b = (str(pair[0]), str(pair[1]))
        edges.add((a, b))
        edges.add((b, a))

    def fn(a: Context, b: Context) -> bool:
        va, vb = str(a.value), str(b.value)
        if va == vb:
            return self_ok
        return (va, vb) in edges

    return fn


def _build_step_le(spec: PredicateSpec) -> Callable[..., bool]:
    limit = float(spec.param("limit", 0.0))

    def fn(a: Context, b: Context) -> bool:
        va, vb = _numeric(a), _numeric(b)
        if va is None or vb is None:
            return False
        return abs(va - vb) <= limit

    return fn


def _build_rank_le(spec: PredicateSpec) -> Callable[..., bool]:
    rank = {str(state): i for i, state in enumerate(spec.param("order", ()))}
    limit = int(spec.param("limit", 1))

    def fn(a: Context, b: Context) -> bool:
        ra, rb = rank.get(str(a.value)), rank.get(str(b.value))
        if ra is None or rb is None:
            return False
        return abs(ra - rb) <= limit

    return fn


def _build_compatible(spec: PredicateSpec) -> Callable[..., bool]:
    pairs = set()
    for pair in spec.param("pairs", ()):
        a, b = (str(pair[0]), str(pair[1]))
        pairs.add((a, b))
        if bool(spec.param("symmetric", False)):
            pairs.add((b, a))

    def fn(a: Context, b: Context) -> bool:
        return (str(a.value), str(b.value)) in pairs

    return fn


def _build_value_known(spec: PredicateSpec) -> Callable[..., bool]:
    allowed = {str(v) for v in spec.param("values", ())}

    def fn(ctx: Context) -> bool:
        return str(ctx.value) in allowed

    return fn


def _build_numeric_range(spec: PredicateSpec) -> Callable[..., bool]:
    low = float(spec.param("low", float("-inf")))
    high = float(spec.param("high", float("inf")))

    def fn(ctx: Context) -> bool:
        value = _numeric(ctx)
        return value is not None and low <= value <= high

    return fn


_BUILDERS: Mapping[str, Callable[[PredicateSpec], Callable[..., bool]]] = {
    "graph_reachable": _build_graph_reachable,
    "step_le": _build_step_le,
    "rank_le": _build_rank_le,
    "compatible": _build_compatible,
    "value_known": _build_value_known,
    "numeric_range": _build_numeric_range,
}
