"""Error-injection models with a controlled error rate.

The paper produces contexts "by a client thread with a controlled
error rate (err_rate) from 10% to 40%", derived from real-life RFID
error-rate observations [8][14].  These models implement that client
thread's noise: each ground-truth sample either passes through with
benign measurement jitter (an *expected* context) or is corrupted into
an erroneous reading (a *corrupted* context).  The ground-truth flag is
stamped on the produced context for the oracle and the metrics layer.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence, Tuple

from .environment import Point

__all__ = ["NoisyReading", "LocationNoiseModel", "RoomNoiseModel", "ZoneNoiseModel"]


@dataclass(frozen=True)
class NoisyReading:
    """A sensor reading after error injection."""

    value: object
    corrupted: bool


class LocationNoiseModel:
    """Coordinate-level noise for location tracking.

    * Expected readings get zero-mean Gaussian jitter with standard
      deviation ``jitter_sigma`` -- the ordinary inaccuracy of indoor
      location tracking that does NOT breach the velocity constraint.
    * Corrupted readings (probability ``err_rate``) are displaced by a
      large distance (uniform in ``displacement_range``) in a random
      direction -- the kind of deviation Figure 1's d3 exhibits, which
      makes the walker appear to "jump".
    """

    def __init__(
        self,
        err_rate: float,
        rng: random.Random,
        *,
        jitter_sigma: float = 0.25,
        displacement_range: Tuple[float, float] = (6.0, 15.0),
    ) -> None:
        if not 0.0 <= err_rate <= 1.0:
            raise ValueError(f"err_rate must be in [0, 1], got {err_rate}")
        lo, hi = displacement_range
        if lo <= 0 or hi < lo:
            raise ValueError(f"bad displacement_range {displacement_range}")
        self.err_rate = err_rate
        self.rng = rng
        self.jitter_sigma = jitter_sigma
        self.displacement_range = displacement_range

    def observe(self, true_position: Point) -> NoisyReading:
        """Produce a reading of ``true_position``."""
        x, y = true_position
        if self.rng.random() < self.err_rate:
            distance = self.rng.uniform(*self.displacement_range)
            angle = self.rng.uniform(0.0, 2.0 * math.pi)
            return NoisyReading(
                value=(x + distance * math.cos(angle), y + distance * math.sin(angle)),
                corrupted=True,
            )
        return NoisyReading(
            value=(
                x + self.rng.gauss(0.0, self.jitter_sigma),
                y + self.rng.gauss(0.0, self.jitter_sigma),
            ),
            corrupted=False,
        )


class RoomNoiseModel:
    """Room-level noise for badge sightings (Call Forwarding).

    A corrupted sighting reports a uniformly random *other* room --
    e.g. a reflection picked up by the wrong infrared sensor, the
    classic Active Badge failure mode.
    """

    def __init__(
        self, err_rate: float, rooms: Sequence[str], rng: random.Random
    ) -> None:
        if not 0.0 <= err_rate <= 1.0:
            raise ValueError(f"err_rate must be in [0, 1], got {err_rate}")
        if len(rooms) < 2:
            raise ValueError("room-level noise needs at least two rooms")
        self.err_rate = err_rate
        self.rooms = list(rooms)
        self.rng = rng

    def observe(self, true_room: str) -> NoisyReading:
        if self.rng.random() < self.err_rate:
            others = [r for r in self.rooms if r != true_room]
            return NoisyReading(value=self.rng.choice(others), corrupted=True)
        return NoisyReading(value=true_room, corrupted=False)


class ZoneNoiseModel:
    """Zone-level noise for RFID reads (RFID data anomalies).

    Corrupted reads are *cross reads* / *ghost reads*: the tag is
    reported at a random different zone, as happens when a reader's
    field bleeds into a neighbouring zone or multipath produces a
    phantom detection [8][14].
    """

    def __init__(
        self, err_rate: float, zones: Sequence[str], rng: random.Random
    ) -> None:
        if not 0.0 <= err_rate <= 1.0:
            raise ValueError(f"err_rate must be in [0, 1], got {err_rate}")
        if len(zones) < 2:
            raise ValueError("zone-level noise needs at least two zones")
        self.err_rate = err_rate
        self.zones = list(zones)
        self.rng = rng

    def observe(self, true_zone: str) -> NoisyReading:
        if self.rng.random() < self.err_rate:
            others = [z for z in self.zones if z != true_zone]
            return NoisyReading(value=self.rng.choice(others), corrupted=True)
        return NoisyReading(value=true_zone, corrupted=False)
