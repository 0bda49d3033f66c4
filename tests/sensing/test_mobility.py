"""Unit tests for the mobility models."""

import math
import random

import pytest

from repro.sensing.environment import office_floor, warehouse_floor
from repro.sensing.mobility import RandomWaypointWalker, ScriptedPath, ZoneFlowWalker


class TestScriptedPath:
    def test_constant_speed_sampling(self):
        path = ScriptedPath("p", [(0.0, 0.0), (10.0, 0.0)], speed=1.0)
        samples = path.sample(period=1.0, count=5)
        assert [s.position[0] for s in samples] == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert [s.timestamp for s in samples] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_polyline_corners(self):
        path = ScriptedPath("p", [(0, 0), (2, 0), (2, 2)], speed=2.0)
        samples = path.sample(period=1.0, count=3)
        assert samples[1].position == (2.0, 0.0)
        assert samples[2].position == (2.0, 2.0)

    def test_without_count_stops_at_end(self):
        path = ScriptedPath("p", [(0, 0), (3, 0)], speed=1.0)
        samples = path.sample(period=1.0)
        assert samples[-1].position == (3.0, 0.0)
        assert len(samples) <= 5

    def test_validation(self):
        with pytest.raises(ValueError):
            ScriptedPath("p", [(0, 0)], speed=1.0)
        with pytest.raises(ValueError):
            ScriptedPath("p", [(0, 0), (1, 0)], speed=0.0)
        with pytest.raises(ValueError):
            ScriptedPath("p", [(0, 0), (1, 0)], speed=1.0).sample(period=0)

    def test_room_annotation(self):
        floor = office_floor()
        path = ScriptedPath(
            "p", [(5.0, 4.0), (5.0, 10.0)], speed=1.0, floor=floor
        )
        samples = path.sample(period=2.0, count=4)
        assert samples[0].room == "office-1"
        assert samples[-1].room == "corridor"


class TestRandomWaypointWalker:
    def test_samples_cover_duration(self):
        walker = RandomWaypointWalker(
            "p", office_floor(), random.Random(1), period=2.0
        )
        samples = walker.walk(duration=60.0)
        assert samples[0].timestamp == 0.0
        assert samples[-1].timestamp <= 60.0
        assert len(samples) >= 20

    def test_velocity_bounded_by_speed(self):
        """No ground-truth step exceeds the walking speed (what makes
        the 150% velocity constraint satisfiable by expected data)."""
        walker = RandomWaypointWalker(
            "p", office_floor(), random.Random(3), speed=1.2, period=2.0
        )
        samples = walker.walk(duration=120.0)
        for a, b in zip(samples, samples[1:]):
            dt = b.timestamp - a.timestamp
            dist = math.hypot(
                b.position[0] - a.position[0], b.position[1] - a.position[1]
            )
            assert dist <= 1.2 * dt * 1.25 + 1e-6

    def test_positions_inside_floor(self):
        floor = office_floor()
        walker = RandomWaypointWalker("p", floor, random.Random(7))
        for sample in walker.walk(duration=120.0):
            assert sample.room is not None

    def test_deterministic_given_seed(self):
        def run(seed):
            walker = RandomWaypointWalker(
                "p", office_floor(), random.Random(seed)
            )
            return [s.position for s in walker.walk(duration=30.0)]

        assert run(11) == run(11)
        assert run(11) != run(12)

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomWaypointWalker(
                "p", office_floor(), random.Random(0), speed=0.0
            )

    @pytest.mark.parametrize("seed", [0, 3, 17, 42])
    def test_no_hops_between_unconnected_rooms(self, seed):
        """Consecutive samples only ever cross door-connected rooms --
        the property that keeps the badge-transition constraint free
        of false alarms (regression: diagonal corridor traverses used
        to sag through adjacent offices)."""
        floor = office_floor()
        walker = RandomWaypointWalker(
            "p", floor, random.Random(seed), speed=1.2, period=2.0
        )
        samples = walker.walk(duration=240.0)
        for a, b in zip(samples, samples[1:]):
            if a.room and b.room and a.room != b.room:
                assert floor.graph.has_edge(a.room, b.room), (
                    a.room,
                    b.room,
                    a.position,
                    b.position,
                )


class TestZoneFlowWalker:
    def test_item_visits_flow_in_order(self):
        floor = warehouse_floor()
        walker = ZoneFlowWalker(
            "tag-1",
            floor,
            ["dock", "staging", "shelf-A", "checkout"],
            random.Random(5),
        )
        samples = walker.walk()
        rooms = [s.room for s in samples]
        # Dedup consecutive rooms: must equal the flow.
        dedup = [rooms[0]] + [
            r for prev, r in zip(rooms, rooms[1:]) if r != prev
        ]
        assert dedup == ["dock", "staging", "shelf-A", "checkout"]

    def test_timestamps_monotone(self):
        walker = ZoneFlowWalker(
            "tag-1",
            warehouse_floor(),
            ["dock", "staging"],
            random.Random(5),
            period=2.0,
        )
        samples = walker.walk(start_time=10.0)
        assert samples[0].timestamp == 10.0
        assert all(
            b.timestamp > a.timestamp for a, b in zip(samples, samples[1:])
        )

    def test_needs_two_zones(self):
        with pytest.raises(ValueError):
            ZoneFlowWalker("t", warehouse_floor(), ["dock"], random.Random(0))
