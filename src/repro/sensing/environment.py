"""Physical environment model: rooms, zones, floor plans.

The paper's workloads move people and tagged items through indoor
environments (offices for Call Forwarding, a tagged-goods facility for
the RFID data anomalies application).  A floor plan is a set of
axis-aligned rectangular rooms plus an adjacency (walkability) graph
used by the mobility model to route walkers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import networkx as nx

__all__ = ["Room", "FloorPlan", "office_floor", "warehouse_floor"]

Point = Tuple[float, float]


@dataclass(frozen=True)
class Room:
    """An axis-aligned rectangular room or zone.

    ``kind`` tags the room's function ("office", "corridor",
    "meeting", "dock", ...) so applications can express feasibility
    constraints ("Peter is only permitted in offices and corridors").
    """

    name: str
    x0: float
    y0: float
    x1: float
    y1: float
    kind: str = "room"

    def __post_init__(self) -> None:
        if self.x1 <= self.x0 or self.y1 <= self.y0:
            raise ValueError(f"room {self.name!r} has non-positive extent")

    @property
    def center(self) -> Point:
        return ((self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0)

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    def contains(self, point: Point) -> bool:
        x, y = point
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1

    def random_point(self, rng: random.Random, margin: float = 0.2) -> Point:
        """A uniform random interior point, keeping ``margin`` from walls."""
        margin = min(margin, self.width / 4.0, self.height / 4.0)
        return (
            rng.uniform(self.x0 + margin, self.x1 - margin),
            rng.uniform(self.y0 + margin, self.y1 - margin),
        )


class FloorPlan:
    """A set of rooms plus a walkability graph between them.

    Parameters
    ----------
    rooms:
        The rooms; names must be unique.
    doors:
        Pairs of room names that are directly connected.  Walkers move
        room to room only along these edges.
    """

    def __init__(
        self, rooms: Iterable[Room], doors: Iterable[Tuple[str, str]] = ()
    ) -> None:
        self._rooms: Dict[str, Room] = {}
        for room in rooms:
            if room.name in self._rooms:
                raise ValueError(f"duplicate room name {room.name!r}")
            self._rooms[room.name] = room
        self.graph = nx.Graph()
        self.graph.add_nodes_from(self._rooms)
        for a, b in doors:
            if a not in self._rooms or b not in self._rooms:
                raise ValueError(f"door ({a!r}, {b!r}) references unknown room")
            self.graph.add_edge(a, b)

    # -- lookup ----------------------------------------------------------

    def room(self, name: str) -> Room:
        return self._rooms[name]

    def rooms(self) -> List[Room]:
        return [self._rooms[name] for name in sorted(self._rooms)]

    def room_names(self) -> List[str]:
        return sorted(self._rooms)

    def rooms_of_kind(self, kind: str) -> List[Room]:
        return [r for r in self.rooms() if r.kind == kind]

    def room_at(self, point: Point) -> Optional[Room]:
        """The room containing ``point``, if any (first match wins)."""
        for room in self.rooms():
            if room.contains(point):
                return room
        return None

    def bounds(self) -> Tuple[float, float, float, float]:
        """Bounding box (x0, y0, x1, y1) over all rooms."""
        rooms = self.rooms()
        return (
            min(r.x0 for r in rooms),
            min(r.y0 for r in rooms),
            max(r.x1 for r in rooms),
            max(r.y1 for r in rooms),
        )

    # -- routing -----------------------------------------------------------

    def route(self, start: str, goal: str) -> List[str]:
        """Room-name path from ``start`` to ``goal`` along doors."""
        return nx.shortest_path(self.graph, start, goal)

    def neighbors(self, name: str) -> List[str]:
        return sorted(self.graph.neighbors(name))

    def door_point(self, a: str, b: str, inset: float = 0.5) -> Point:
        """The midpoint of the shared boundary of two connected rooms,
        pushed ``inset`` into room ``b``.

        Walkers route through door points so that consecutive position
        samples only ever cross between rooms that actually share a
        door -- otherwise a diagonal path could cut through a room the
        walker cannot reach, producing false badge transitions.
        """
        if not self.graph.has_edge(a, b):
            raise ValueError(f"rooms {a!r} and {b!r} are not connected")
        room_a, room_b = self.room(a), self.room(b)
        x0 = max(room_a.x0, room_b.x0)
        x1 = min(room_a.x1, room_b.x1)
        y0 = max(room_a.y0, room_b.y0)
        y1 = min(room_a.y1, room_b.y1)
        x = (x0 + x1) / 2.0
        y = (y0 + y1) / 2.0
        # Push perpendicular to the shared face, into room b.
        if x1 - x0 >= y1 - y0:  # horizontal face: offset in y
            y += inset if room_b.center[1] > y else -inset
        else:  # vertical face: offset in x
            x += inset if room_b.center[0] > x else -inset
        return (x, y)

    def are_connected(self, a: str, b: str) -> bool:
        return nx.has_path(self.graph, a, b)

    def feasible_rooms(self, kinds: Sequence[str]) -> FrozenSet[str]:
        """Names of rooms whose kind is in ``kinds``."""
        return frozenset(r.name for r in self.rooms() if r.kind in kinds)


def office_floor() -> FloorPlan:
    """The office floor used by the Call Forwarding workload.

    A central corridor connecting four offices, a meeting room, a lab
    and a lounge -- the kind of environment the Active Badge system
    [15] was deployed in.  Dimensions are in metres.
    """
    rooms = [
        Room("corridor", 0.0, 8.0, 40.0, 12.0, kind="corridor"),
        Room("office-1", 0.0, 0.0, 10.0, 8.0, kind="office"),
        Room("office-2", 10.0, 0.0, 20.0, 8.0, kind="office"),
        Room("office-3", 20.0, 0.0, 30.0, 8.0, kind="office"),
        Room("office-4", 30.0, 0.0, 40.0, 8.0, kind="office"),
        Room("meeting", 0.0, 12.0, 14.0, 20.0, kind="meeting"),
        Room("lab", 14.0, 12.0, 28.0, 20.0, kind="lab"),
        Room("lounge", 28.0, 12.0, 40.0, 20.0, kind="lounge"),
    ]
    doors = [
        ("office-1", "corridor"),
        ("office-2", "corridor"),
        ("office-3", "corridor"),
        ("office-4", "corridor"),
        ("meeting", "corridor"),
        ("lab", "corridor"),
        ("lounge", "corridor"),
    ]
    return FloorPlan(rooms, doors)


def warehouse_floor() -> FloorPlan:
    """The tagged-goods facility for the RFID data anomalies workload.

    Items flow dock -> staging -> shelf zones -> checkout, which gives
    the flow-order consistency constraints something to bite on.
    """
    rooms = [
        Room("dock", 0.0, 0.0, 10.0, 10.0, kind="dock"),
        Room("staging", 10.0, 0.0, 20.0, 10.0, kind="staging"),
        Room("shelf-A", 20.0, 0.0, 30.0, 5.0, kind="shelf"),
        Room("shelf-B", 20.0, 5.0, 30.0, 10.0, kind="shelf"),
        Room("shelf-C", 30.0, 0.0, 40.0, 5.0, kind="shelf"),
        Room("shelf-D", 30.0, 5.0, 40.0, 10.0, kind="shelf"),
        Room("checkout", 40.0, 0.0, 48.0, 10.0, kind="checkout"),
    ]
    doors = [
        ("dock", "staging"),
        ("staging", "shelf-A"),
        ("staging", "shelf-B"),
        ("shelf-A", "shelf-C"),
        ("shelf-B", "shelf-D"),
        ("shelf-A", "shelf-B"),
        ("shelf-C", "shelf-D"),
        ("shelf-C", "checkout"),
        ("shelf-D", "checkout"),
    ]
    return FloorPlan(rooms, doors)
