"""Mobility models: how subjects move through a floor plan.

The location workloads sample a walker's true position at a fixed
period while the walker travels between rooms at a steady average
velocity ``v`` -- the paper's running example assumes "Peter walks
steadily at an average velocity of v over one period", with the
consistency constraint bounding estimated velocity at ``150% of v``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .environment import FloorPlan, Point

__all__ = ["TruePosition", "ScriptedPath", "RandomWaypointWalker", "ZoneFlowWalker"]


@dataclass(frozen=True)
class TruePosition:
    """Ground truth sample of a subject's location."""

    subject: str
    timestamp: float
    position: Point
    room: Optional[str] = None


def _interpolate(a: Point, b: Point, fraction: float) -> Point:
    return (a[0] + (b[0] - a[0]) * fraction, a[1] + (b[1] - a[1]) * fraction)


def _distance(a: Point, b: Point) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


class ScriptedPath:
    """A fixed polyline walked at constant speed; used by the
    Figure 1-5 scenario walkthroughs and by deterministic tests."""

    def __init__(
        self,
        subject: str,
        waypoints: Sequence[Point],
        speed: float,
        floor: Optional[FloorPlan] = None,
        start_time: float = 0.0,
    ) -> None:
        if len(waypoints) < 2:
            raise ValueError("a scripted path needs at least two waypoints")
        if speed <= 0:
            raise ValueError("speed must be positive")
        self.subject = subject
        self.waypoints = [tuple(map(float, p)) for p in waypoints]
        self.speed = speed
        self.floor = floor
        self.start_time = start_time

    def sample(self, period: float, count: Optional[int] = None) -> List[TruePosition]:
        """True positions every ``period`` seconds along the polyline."""
        if period <= 0:
            raise ValueError("period must be positive")
        samples: List[TruePosition] = []
        t = self.start_time
        leg = 0
        pos = self.waypoints[0]
        remaining_budget = math.inf if count is None else count
        while remaining_budget > 0:
            room = self.floor.room_at(pos) if self.floor else None
            samples.append(
                TruePosition(
                    self.subject, t, pos, room.name if room else None
                )
            )
            remaining_budget -= 1
            # Advance along the polyline by speed * period.
            travel = self.speed * period
            while travel > 0 and leg < len(self.waypoints) - 1:
                seg_end = self.waypoints[leg + 1]
                seg_left = _distance(pos, seg_end)
                if travel < seg_left:
                    pos = _interpolate(pos, seg_end, travel / seg_left)
                    travel = 0.0
                else:
                    travel -= seg_left
                    pos = seg_end
                    leg += 1
            t += period
            if leg >= len(self.waypoints) - 1 and pos == self.waypoints[-1]:
                if count is None:
                    room = self.floor.room_at(pos) if self.floor else None
                    samples.append(
                        TruePosition(
                            self.subject, t, pos, room.name if room else None
                        )
                    )
                    break
        return samples


class RandomWaypointWalker:
    """Random-waypoint mobility over a floor plan.

    The walker repeatedly picks a destination room (uniformly among
    ``allowed_rooms``), routes to it along doors, walks there at
    ``speed``, then dwells for a random pause.  Positions are sampled
    every ``period`` seconds.
    """

    def __init__(
        self,
        subject: str,
        floor: FloorPlan,
        rng: random.Random,
        *,
        speed: float = 1.2,
        period: float = 2.0,
        allowed_rooms: Optional[Sequence[str]] = None,
        dwell_range: Tuple[float, float] = (4.0, 16.0),
        start_room: Optional[str] = None,
    ) -> None:
        if speed <= 0 or period <= 0:
            raise ValueError("speed and period must be positive")
        self.subject = subject
        self.floor = floor
        self.rng = rng
        self.speed = speed
        self.period = period
        self.rooms = list(allowed_rooms or floor.room_names())
        self.dwell_range = dwell_range
        self.start_room = start_room or self.rooms[0]

    def walk(self, duration: float, start_time: float = 0.0) -> List[TruePosition]:
        """Ground-truth samples covering ``duration`` seconds."""
        samples: List[TruePosition] = []
        t = start_time
        end = start_time + duration
        current_room = self.start_room
        pos = self.floor.room(current_room).center

        def emit(position: Point, time: float) -> None:
            room = self.floor.room_at(position)
            samples.append(
                TruePosition(
                    self.subject, time, position, room.name if room else None
                )
            )

        while t < end:
            # Dwell in the current room around the current position.
            dwell = self.rng.uniform(*self.dwell_range)
            dwell_end = min(t + dwell, end)
            while t < dwell_end:
                emit(pos, t)
                t += self.period
            if t >= end:
                break
            # Choose a new destination and walk the door graph to it.
            # Each door is crossed through a pair of waypoints, one
            # just inside each room, so every path segment has both
            # endpoints inside a single (convex) room: samples can
            # never appear to hop between unconnected rooms.
            choices = [r for r in self.rooms if r != current_room]
            destination = self.rng.choice(choices) if choices else current_room
            route = self.floor.route(current_room, destination)
            path_points: List[Point] = [pos]
            for here, there in zip(route, route[1:]):
                path_points.append(self.floor.door_point(there, here))
                path_points.append(self.floor.door_point(here, there))
            path_points.append(
                self.floor.room(route[-1]).random_point(self.rng)
            )
            leg = 0
            while leg < len(path_points) - 1 and t < end:
                seg_start, seg_end = path_points[leg], path_points[leg + 1]
                seg_len = _distance(seg_start, seg_end)
                travel = self.speed * self.period
                if seg_len < 1e-9:
                    leg += 1
                    continue
                steps = max(1, int(math.ceil(seg_len / travel)))
                for step in range(1, steps + 1):
                    if t >= end:
                        break
                    pos = _interpolate(seg_start, seg_end, min(1.0, step / steps))
                    emit(pos, t)
                    t += self.period
                leg += 1
            current_room = route[-1]
        return samples


class ZoneFlowWalker:
    """Moves a tagged item through an ordered zone flow (RFID workload).

    The item enters at the first zone, dwells a random number of
    sampling periods in each zone, and progresses to a random next zone
    along the floor's door graph toward the final zone.
    """

    def __init__(
        self,
        subject: str,
        floor: FloorPlan,
        flow: Sequence[str],
        rng: random.Random,
        *,
        period: float = 2.0,
        dwell_samples: Tuple[int, int] = (2, 5),
    ) -> None:
        if len(flow) < 2:
            raise ValueError("a zone flow needs at least two zones")
        self.subject = subject
        self.floor = floor
        self.flow = list(flow)
        self.rng = rng
        self.period = period
        self.dwell_samples = dwell_samples

    def walk(self, start_time: float = 0.0) -> List[TruePosition]:
        """Samples of the item's journey through the flow."""
        samples: List[TruePosition] = []
        t = start_time
        for zone_name in self.flow:
            zone = self.floor.room(zone_name)
            dwell = self.rng.randint(*self.dwell_samples)
            for _ in range(dwell):
                samples.append(
                    TruePosition(
                        self.subject, t, zone.random_point(self.rng), zone_name
                    )
                )
                t += self.period
        return samples
