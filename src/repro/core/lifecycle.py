"""The four-state context life cycle (paper Figure 8).

Each context managed by the resolution service is in exactly one of the
states ``undecided``, ``consistent``, ``bad`` or ``inconsistent``.  The
legal transitions are::

    undecided ──(irrelevant to any constraint, or judged correct
                 when used)──────────────────────────▶ consistent
    undecided ──(largest count value when used)──────▶ inconsistent
    undecided ──(largest count value when some associated
                 inconsistency is resolved early)────▶ bad
    bad ───────(used)────────────────────────────────▶ inconsistent

``consistent`` and ``inconsistent`` are terminal.  Any other transition
is a programming error and raises :class:`LifecycleError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from .context import Context, ContextState

__all__ = ["LifecycleError", "ContextRecord", "LifecycleTracker"]

#: The legal state transitions.  The first four edges are Figure 8
#: (the drop-bad life cycle).  The ``CONSISTENT -> INCONSISTENT`` edge
#: is *not* part of Figure 8 and is never taken by drop-bad (a property
#: test asserts this); it exists because the baseline drop-all strategy
#: revokes contexts that were already admitted as consistent
#: (Section 2.3: discarding d2 after it had been accepted).
_LEGAL_TRANSITIONS: FrozenSet[Tuple[ContextState, ContextState]] = frozenset(
    {
        (ContextState.UNDECIDED, ContextState.CONSISTENT),
        (ContextState.UNDECIDED, ContextState.BAD),
        (ContextState.UNDECIDED, ContextState.INCONSISTENT),
        (ContextState.BAD, ContextState.INCONSISTENT),
        (ContextState.CONSISTENT, ContextState.INCONSISTENT),
    }
)


class LifecycleError(RuntimeError):
    """Raised on an illegal context state transition."""


@dataclass
class ContextRecord:
    """Mutable per-context state kept by the resolution service.

    :class:`~repro.core.context.Context` objects are immutable; the
    record carries the life-cycle state plus bookkeeping about when the
    context entered the buffer and when it was decided.
    """

    context: Context
    state: ContextState = ContextState.UNDECIDED
    buffered_at: Optional[float] = None
    decided_at: Optional[float] = None
    history: List[Tuple[ContextState, Optional[float]]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.history.append((self.state, self.buffered_at))

    def transition(self, new_state: ContextState, at: Optional[float] = None) -> None:
        """Move to ``new_state``, validating against Figure 8.

        Raises
        ------
        LifecycleError
            If the transition is not one of the legal edges.
        """
        if new_state == self.state:
            return
        if (self.state, new_state) not in _LEGAL_TRANSITIONS:
            raise LifecycleError(
                f"illegal transition {self.state.value} -> {new_state.value} "
                f"for context {self.context.ctx_id!r}"
            )
        self.state = new_state
        self.history.append((new_state, at))
        if new_state.is_terminal():
            self.decided_at = at

    @property
    def is_decided(self) -> bool:
        return self.state.is_terminal()

    @property
    def is_available(self) -> bool:
        """Whether applications may read this context."""
        return self.state == ContextState.CONSISTENT

    @property
    def is_discarded(self) -> bool:
        return self.state == ContextState.INCONSISTENT


class LifecycleTracker:
    """Registry of :class:`ContextRecord` objects for a run.

    The tracker is the single source of truth for "what state is this
    context in"; strategies and the resolver manipulate states only
    through it, so every transition is validated and recorded.
    """

    def __init__(self) -> None:
        self._records: Dict[str, ContextRecord] = {}

    def register(self, ctx: Context, at: Optional[float] = None) -> ContextRecord:
        """Create (or return the existing) record for ``ctx``."""
        record = self._records.get(ctx.ctx_id)
        if record is None:
            record = ContextRecord(context=ctx, buffered_at=at)
            self._records[ctx.ctx_id] = record
        return record

    def record_of(self, ctx: Context) -> ContextRecord:
        """The record for ``ctx``; raises ``KeyError`` if unregistered."""
        return self._records[ctx.ctx_id]

    def state_of(self, ctx: Context) -> ContextState:
        """Current life-cycle state of ``ctx``."""
        return self._records[ctx.ctx_id].state

    def known(self, ctx: Context) -> bool:
        return ctx.ctx_id in self._records

    def set_state(
        self, ctx: Context, state: ContextState, at: Optional[float] = None
    ) -> ContextRecord:
        """Transition ``ctx`` to ``state`` (validated)."""
        record = self.record_of(ctx)
        record.transition(state, at)
        return record

    def in_state(self, state: ContextState) -> List[ContextRecord]:
        """All records currently in ``state`` (sorted by context id)."""
        return sorted(
            (r for r in self._records.values() if r.state == state),
            key=lambda r: r.context.ctx_id,
        )

    def all_records(self) -> List[ContextRecord]:
        return sorted(self._records.values(), key=lambda r: r.context.ctx_id)

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, ctx: object) -> bool:
        return isinstance(ctx, Context) and ctx.ctx_id in self._records
