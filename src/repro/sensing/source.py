"""Context sources: turning sensor events into middleware contexts.

A context source is the paper's "client thread": it produces contexts
with a controlled error rate and hands them to the middleware.  Each
source wraps one sensing pipeline (walker -> sensor -> noise) and
emits :class:`~repro.core.context.Context` objects; multiple sources
are merged by timestamp into one stream.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator, List, Sequence

from ..core.context import Context, ContextFactory, INFINITE_LIFESPAN
from .badge import BadgeSighting
from .mobility import TruePosition
from .noise import LocationNoiseModel
from .rfid import RFIDRead

__all__ = [
    "ContextSource",
    "TrackedLocationSource",
    "BadgeContextSource",
    "RFIDContextSource",
    "merge_streams",
]


class ContextSource(ABC):
    """Produces a finite, time-ordered stream of contexts."""

    name: str = "source"

    @abstractmethod
    def contexts(self) -> Iterator[Context]:
        """Yield contexts in non-decreasing timestamp order."""


class TrackedLocationSource(ContextSource):
    """Coordinate location contexts from a walker trace + noise model.

    This is the Figure 1 pipeline: tracked locations "calculated
    chronologically by a location tracking application", deviating from
    the walker's actual path due to tracking inaccuracy, with occasional
    serious deviations (corrupted contexts).
    """

    def __init__(
        self,
        truth: Sequence[TruePosition],
        noise: LocationNoiseModel,
        factory: ContextFactory,
        *,
        name: str = "location-tracker",
        ctx_type: str = "location",
        lifespan: float = INFINITE_LIFESPAN,
    ) -> None:
        self.name = name
        self._truth = list(truth)
        self._noise = noise
        self._factory = factory
        self._ctx_type = ctx_type
        self._lifespan = lifespan

    def contexts(self) -> Iterator[Context]:
        for sample in self._truth:
            reading = self._noise.observe(sample.position)
            yield self._factory.make(
                self._ctx_type,
                sample.subject,
                reading.value,
                sample.timestamp,
                lifespan=self._lifespan,
                source=self.name,
                corrupted=reading.corrupted,
                attributes={"true_room": sample.room},
            )


class BadgeContextSource(ContextSource):
    """Room-level location contexts from badge sightings."""

    def __init__(
        self,
        sightings: Sequence[BadgeSighting],
        factory: ContextFactory,
        *,
        name: str = "badge-network",
        ctx_type: str = "badge",
        lifespan: float = INFINITE_LIFESPAN,
    ) -> None:
        self.name = name
        self._sightings = list(sightings)
        self._factory = factory
        self._ctx_type = ctx_type
        self._lifespan = lifespan

    def contexts(self) -> Iterator[Context]:
        for sighting in self._sightings:
            yield self._factory.make(
                self._ctx_type,
                sighting.subject,
                sighting.room,
                sighting.timestamp,
                lifespan=self._lifespan,
                source=self.name,
                corrupted=sighting.corrupted,
            )


class RFIDContextSource(ContextSource):
    """Zone-read contexts from an RFID read stream."""

    def __init__(
        self,
        reads: Sequence[RFIDRead],
        factory: ContextFactory,
        *,
        name: str = "rfid-readers",
        ctx_type: str = "rfid_read",
        lifespan: float = INFINITE_LIFESPAN,
    ) -> None:
        self.name = name
        self._reads = list(reads)
        self._factory = factory
        self._ctx_type = ctx_type
        self._lifespan = lifespan

    def contexts(self) -> Iterator[Context]:
        for read in self._reads:
            yield self._factory.make(
                self._ctx_type,
                read.tag,
                read.zone,
                read.timestamp,
                lifespan=self._lifespan,
                source=self.name,
                corrupted=read.corrupted,
            )


def merge_streams(*sources: ContextSource) -> List[Context]:
    """Merge several sources into one timestamp-ordered stream.

    Stable across runs: ties are broken by (timestamp, context id).
    """
    merged: List[Context] = []
    for source in sources:
        merged.extend(source.contexts())
    merged.sort(key=lambda c: (c.timestamp, c.ctx_id))
    return merged
