"""Predicate function registry and the standard predicate library.

Constraint formulas apply *named* boolean functions to bound contexts
and literals; the names are resolved against a
:class:`FunctionRegistry` at evaluation time.  This keeps formulas
serializable/hashable and lets applications register domain predicates
(velocity bounds, zone membership, RFID flow order, ...) next to the
generic ones provided here.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional

from ..core.context import Context

__all__ = ["FunctionRegistry", "standard_registry"]

PredicateFn = Callable[..., bool]


class FunctionRegistry:
    """Name -> boolean function mapping used by the evaluator.

    Functions receive the resolved predicate arguments (contexts for
    variables, raw values for literals) and return a ``bool``.  A
    registry also carries a ``now`` attribute that time-dependent
    predicates (freshness checks) may read; the constraint checker
    updates it before each detection pass.
    """

    def __init__(self) -> None:
        self._functions: Dict[str, PredicateFn] = {}
        #: Current simulation time, updated by the checker.
        self.now: float = 0.0
        #: Bumped on every register/replace; compiled kernels pre-bind
        #: resolved functions and use this to detect staleness.
        #: (Mutating ``now`` does *not* bump it -- predicates read
        #: ``now`` through the registry, never a captured copy.)
        self.version: int = 0

    def register(self, name: str, fn: Optional[PredicateFn] = None):
        """Register ``fn`` under ``name``; usable as a decorator."""

        def _do_register(f: PredicateFn) -> PredicateFn:
            if name in self._functions:
                raise ValueError(f"predicate {name!r} already registered")
            self._functions[name] = f
            self.version += 1
            return f

        if fn is None:
            return _do_register
        return _do_register(fn)

    def replace(self, name: str, fn: PredicateFn) -> None:
        """Register or overwrite ``name`` (for test doubles)."""
        self._functions[name] = fn
        self.version += 1

    def resolve(self, name: str) -> PredicateFn:
        try:
            return self._functions[name]
        except KeyError:
            known = ", ".join(sorted(self._functions))
            raise KeyError(
                f"unknown predicate {name!r}; known: {known}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._functions

    def names(self) -> List[str]:
        return sorted(self._functions)


def standard_registry() -> FunctionRegistry:
    """A registry pre-loaded with the generic predicate library.

    Provided predicates (all take contexts unless noted):

    * ``same_subject(a, b)`` / ``distinct(a, b)`` / ``same_type(a, b)``
    * ``before(a, b)`` / ``after(a, b)`` -- timestamp order (strict)
    * ``within_time(a, b, dt)`` -- |t_a - t_b| <= dt
    * ``older_than(a, dt)`` -- registry.now - t_a > dt
    * ``distance_le(a, b, d)`` / ``distance_ge(a, b, d)``
    * ``velocity_le(a, b, vmax)`` -- displacement / |Δt| <= vmax
    * ``attr_eq(a, key, value)`` / ``attr_ne(a, key, value)``
    * ``value_eq(a, value)`` / ``value_in(a, collection)``
    * ``true()`` / ``false()`` -- constants, mostly for tests
    """
    registry = FunctionRegistry()

    @registry.register("same_subject")
    def same_subject(a: Context, b: Context) -> bool:
        return a.subject == b.subject

    @registry.register("distinct")
    def distinct(a: Context, b: Context) -> bool:
        return a.ctx_id != b.ctx_id

    @registry.register("same_type")
    def same_type(a: Context, b: Context) -> bool:
        return a.ctx_type == b.ctx_type

    @registry.register("before")
    def before(a: Context, b: Context) -> bool:
        return a.timestamp < b.timestamp

    @registry.register("after")
    def after(a: Context, b: Context) -> bool:
        return a.timestamp > b.timestamp

    @registry.register("within_time")
    def within_time(a: Context, b: Context, dt: float) -> bool:
        return abs(a.timestamp - b.timestamp) <= dt

    @registry.register("older_than")
    def older_than(a: Context, dt: float) -> bool:
        return (registry.now - a.timestamp) > dt

    @registry.register("distance_le")
    def distance_le(a: Context, b: Context, d: float) -> bool:
        return a.distance_to(b) <= d

    @registry.register("distance_ge")
    def distance_ge(a: Context, b: Context, d: float) -> bool:
        return a.distance_to(b) >= d

    @registry.register("velocity_le")
    def velocity_le(a: Context, b: Context, vmax: float) -> bool:
        """Estimated walking velocity between two location contexts.

        Contexts with (almost) identical timestamps cannot produce a
        finite velocity estimate; they are treated as satisfying the
        bound only if they are (almost) co-located.
        """
        dt = abs(a.timestamp - b.timestamp)
        dist = a.distance_to(b)
        if dt < 1e-9:
            return dist < 1e-9
        return dist / dt <= vmax

    @registry.register("attr_eq")
    def attr_eq(a: Context, key: str, value: Any) -> bool:
        return a.attr(key) == value

    @registry.register("attr_ne")
    def attr_ne(a: Context, key: str, value: Any) -> bool:
        return a.attr(key) != value

    @registry.register("value_eq")
    def value_eq(a: Context, value: Any) -> bool:
        return a.value == value

    @registry.register("value_in")
    def value_in(a: Context, collection: Iterable[Any]) -> bool:
        return a.value in collection

    @registry.register("true")
    def true_fn() -> bool:
        return True

    @registry.register("false")
    def false_fn() -> bool:
        return False

    return registry
