"""Context model for pervasive computing applications.

A *context* is a piece of information that captures a characteristic of
the computing environment at some instant: a tracked location, an RFID
read, a badge sighting, a temperature sample.  Contexts are produced by
distributed context sources, collected by the middleware, and consumed
by context-aware applications.

The model follows the ICDCS 2008 paper:

* every context carries a timestamp and an *availability period* after
  which it expires (Section 3.2: "the context is still available until
  it expires according to its own available period");
* whether a context is *corrupted* (incorrect, should be identified as
  inconsistent) or *expected* (correct) is ground truth known only to
  the workload generator, the optimal OPT-R strategy and the metrics
  layer -- never to a practical resolution strategy (Section 3.4).

Contexts are immutable value objects.  All mutable per-context state
(the four-state life cycle) lives in :mod:`repro.core.lifecycle`.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Tuple

__all__ = [
    "Context",
    "ContextState",
    "ContextFactory",
    "INFINITE_LIFESPAN",
]

#: Lifespan value meaning "never expires".
INFINITE_LIFESPAN = math.inf


class ContextState(enum.Enum):
    """The four states of a context's life cycle (paper Figure 8).

    * ``UNDECIDED`` -- initial state; the context has been recognized
      by the middleware but no decision about its consistency exists.
    * ``CONSISTENT`` -- the context was judged correct and is available
      to applications.
    * ``BAD`` -- the context has been judged incorrect while resolving
      an inconsistency for *another* context, but has not itself been
      used by an application yet; it will be discarded when used.
    * ``INCONSISTENT`` -- the context was judged incorrect and has been
      discarded.
    """

    UNDECIDED = "undecided"
    CONSISTENT = "consistent"
    BAD = "bad"
    INCONSISTENT = "inconsistent"

    def is_terminal(self) -> bool:
        """Whether no further transition can leave this state."""
        return self in (ContextState.CONSISTENT, ContextState.INCONSISTENT)


@dataclass(frozen=True)
class Context:
    """An immutable context datum.

    Parameters
    ----------
    ctx_id:
        Unique identifier, assigned by the producing source (or by a
        :class:`ContextFactory`).
    ctx_type:
        The context category, e.g. ``"location"``, ``"rfid_read"``,
        ``"badge_sighting"``.  Consistency constraints quantify over
        context types.
    subject:
        The entity the context describes (a person, an RFID tag, ...).
    value:
        The context payload.  For location contexts this is an ``(x,
        y)`` pair (or a mapping with richer fields); for RFID reads a
        mapping with reader/zone information.
    timestamp:
        Simulation time at which the context was produced.
    lifespan:
        Availability period; the context expires at ``timestamp +
        lifespan``.  Defaults to :data:`INFINITE_LIFESPAN`.
    source:
        Name of the producing context source, for diagnostics.
    corrupted:
        Ground-truth flag: ``True`` if the workload generator injected
        an error into this context.  Practical resolution strategies
        MUST NOT read this field; it exists for OPT-R and for metrics.
    attributes:
        Optional extra key/value payload (reader id, RSSI, floor, ...).
    """

    ctx_id: str
    ctx_type: str
    subject: str
    value: Any
    timestamp: float
    lifespan: float = INFINITE_LIFESPAN
    source: str = "unknown"
    corrupted: bool = False
    attributes: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.lifespan < 0:
            raise ValueError(
                f"context {self.ctx_id!r} has negative lifespan {self.lifespan}"
            )
        if isinstance(self.attributes, Mapping):
            # Accept a mapping for convenience; store a hashable tuple.
            object.__setattr__(
                self, "attributes", tuple(sorted(self.attributes.items()))
            )

    def __hash__(self) -> int:
        # Hash by identity (ids are unique within a run) so contexts
        # with unhashable payloads -- e.g. dict values -- still work in
        # the set-heavy inconsistency machinery.  Consistent with
        # field-wise equality: equal contexts share their ctx_id.
        return hash(self.ctx_id)

    # -- derived properties -------------------------------------------------

    @property
    def expiry(self) -> float:
        """Simulation time at which this context expires."""
        return self.timestamp + self.lifespan

    def is_expired(self, now: float) -> bool:
        """Whether the context's availability period has passed."""
        return now >= self.expiry

    def attr(self, key: str, default: Any = None) -> Any:
        """Look up an entry of :attr:`attributes` by key."""
        for k, v in self.attributes:
            if k == key:
                return v
        return default

    # -- convenience for location-valued contexts ---------------------------

    @property
    def position(self) -> Tuple[float, float]:
        """The ``(x, y)`` position for location-valued contexts.

        Raises
        ------
        TypeError
            If the value is not a 2-sequence of numbers.
        """
        value = self.value
        if (
            isinstance(value, (tuple, list))
            and len(value) == 2
            and all(isinstance(c, (int, float)) for c in value)
        ):
            return (float(value[0]), float(value[1]))
        raise TypeError(
            f"context {self.ctx_id!r} of type {self.ctx_type!r} does not "
            f"carry an (x, y) position: {value!r}"
        )

    def distance_to(self, other: "Context") -> float:
        """Euclidean distance between two location-valued contexts."""
        ax, ay = self.position
        bx, by = other.position
        return math.hypot(ax - bx, ay - by)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        flag = "!" if self.corrupted else ""
        return (
            f"Context({self.ctx_id}{flag}, {self.ctx_type}, {self.subject}, "
            f"{self.value!r}, t={self.timestamp:g})"
        )


class ContextFactory:
    """Produces :class:`Context` objects with sequential unique ids.

    The factory is the single place a workload generator needs to touch
    to mint contexts; it guarantees id uniqueness within a run, which
    the context pool relies on.
    """

    def __init__(self, prefix: str = "ctx") -> None:
        self._prefix = prefix
        self._counter = itertools.count(1)

    def make(
        self,
        ctx_type: str,
        subject: str,
        value: Any,
        timestamp: float,
        *,
        lifespan: float = INFINITE_LIFESPAN,
        source: str = "unknown",
        corrupted: bool = False,
        attributes: Optional[Mapping[str, Any]] = None,
        ctx_id: Optional[str] = None,
    ) -> Context:
        """Create a new context with a fresh id (unless one is given)."""
        if ctx_id is None:
            ctx_id = f"{self._prefix}-{next(self._counter)}"
        return Context(
            ctx_id=ctx_id,
            ctx_type=ctx_type,
            subject=subject,
            value=value,
            timestamp=timestamp,
            lifespan=lifespan,
            source=source,
            corrupted=corrupted,
            attributes=tuple(sorted((attributes or {}).items())),
        )
