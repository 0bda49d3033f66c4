"""Active Badge sighting simulation (Want et al. [15]).

The Call Forwarding application of the paper is adapted from the
Active Badge Location System: infrared sensors in each room sight the
badges worn by staff, and calls are forwarded to the phone nearest the
wearer's current location.  A sighting is a room-level location
context; corrupted sightings report the wrong room.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence

from .mobility import TruePosition
from .noise import RoomNoiseModel

__all__ = ["BadgeSighting", "BadgeSensorNetwork"]


@dataclass(frozen=True)
class BadgeSighting:
    """A badge seen by a room sensor at a time."""

    subject: str
    room: str
    timestamp: float
    corrupted: bool


class BadgeSensorNetwork:
    """Room infrared sensors converting ground truth into sightings.

    * Samples whose true position is outside any room produce nothing.
    * A sighting is missed with probability ``miss_rate`` (badge
      occluded, a known Active Badge limitation).
    * Surviving sightings pass through the room noise model, which
      misreports the room at the controlled error rate.
    """

    def __init__(
        self,
        noise: RoomNoiseModel,
        rng: random.Random,
        *,
        miss_rate: float = 0.05,
    ) -> None:
        if not 0.0 <= miss_rate <= 1.0:
            raise ValueError(f"miss_rate must be in [0, 1], got {miss_rate}")
        self.noise = noise
        self.rng = rng
        self.miss_rate = miss_rate

    def sightings(self, truth: Sequence[TruePosition]) -> List[BadgeSighting]:
        """Sighting events for a walker's ground-truth trace."""
        out: List[BadgeSighting] = []
        for sample in truth:
            if sample.room is None:
                continue
            if self.rng.random() < self.miss_rate:
                continue
            reading = self.noise.observe(sample.room)
            out.append(
                BadgeSighting(
                    subject=sample.subject,
                    room=str(reading.value),
                    timestamp=sample.timestamp,
                    corrupted=reading.corrupted,
                )
            )
        return out
