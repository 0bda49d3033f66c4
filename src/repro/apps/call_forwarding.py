"""The Call Forwarding application (paper Section 4.1, after Want et
al.'s Active Badge Location System [15]).

Staff wear badges; rooms have infrared sensors; incoming calls are
forwarded to the phone nearest the callee's current location.  The
application consumes two context types:

* ``badge`` -- room-level sightings of each person, and
* ``location`` -- coordinate estimates of the tracked person ("Peter")
  from a location tracking application (the Figure 1 pipeline).

Five consistency constraints (the "popular" constraints of the
authors' user study [19], Section 4.1 -- coverage 70.8%) and three
situations are provided, together with the workload generator that
plays the paper's "client thread with a controlled error rate".
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..constraints.ast import Constraint
from ..constraints.builtins import FunctionRegistry, standard_registry
from ..constraints.checker import ConstraintChecker
from ..constraints.parser import parse_constraint
from ..core.context import Context, ContextFactory
from ..sensing.badge import BadgeSensorNetwork
from ..sensing.environment import FloorPlan, office_floor
from ..sensing.mobility import RandomWaypointWalker
from ..sensing.noise import LocationNoiseModel, RoomNoiseModel
from ..sensing.source import (
    BadgeContextSource,
    TrackedLocationSource,
    merge_streams,
)
from ..situations.library import co_located, entered, make_situation, value_is
from ..situations.situation import Situation

__all__ = ["CallForwardingApp", "ForwardingController"]

#: Walking speed (m/s) and the paper's 150% error-tolerance bound.
WALK_SPEED = 1.2
VELOCITY_BOUND = 1.5 * WALK_SPEED
#: Location sampling period (s).
SAMPLE_PERIOD = 2.0
#: How far outside a room's walls a coordinate may fall and still be
#: considered "in" that room by the badge-agreement constraint.  Benign
#: measurement jitter can push a reading just across a wall into a room
#: that shares no door; corrupted displacements (>= 3 m) stay detectable.
BOUNDARY_TOLERANCE = 1.0


class CallForwardingApp:
    """Bundles the Call Forwarding constraints, situations and workload.

    Parameters
    ----------
    floor:
        The office floor plan; defaults to
        :func:`~repro.sensing.environment.office_floor`.
    tracked_subject:
        The person whose coordinates are tracked ("peter").
    colleague:
        A second badge wearer for the co-location situation ("alice").
    """

    CTX_LOCATION = "location"
    CTX_BADGE = "badge"

    def __init__(
        self,
        floor: Optional[FloorPlan] = None,
        tracked_subject: str = "peter",
        colleague: str = "alice",
        office: str = "office-2",
    ) -> None:
        self.floor = floor or office_floor()
        self.tracked_subject = tracked_subject
        self.colleague = colleague
        self.office = office

    # -- predicates --------------------------------------------------------

    def build_registry(self) -> FunctionRegistry:
        """The standard registry extended with floor-aware predicates."""
        registry = standard_registry()
        floor = self.floor

        @registry.register("in_feasible_area")
        def in_feasible_area(ctx: Context) -> bool:
            """A coordinate context must fall inside (or within
            BOUNDARY_TOLERANCE of) some room.

            The tolerance keeps the constraint *correct* (Heuristic
            Rule 1): benign measurement jitter can push an expected
            reading just across the building's outer wall, while
            corrupted displacements (>= 3 m) land well outside it.
            """
            try:
                point = ctx.position
            except TypeError:
                return False
            if floor.room_at(point) is not None:
                return True
            x, y = point
            for rect in floor.rooms():
                dx = max(rect.x0 - x, 0.0, x - rect.x1)
                dy = max(rect.y0 - y, 0.0, y - rect.y1)
                if dx * dx + dy * dy <= BOUNDARY_TOLERANCE**2:
                    return True
            return False

        @registry.register("rooms_reachable")
        def rooms_reachable(a: Context, b: Context) -> bool:
            """Two consecutive badge rooms must be equal or share a door."""
            room_a, room_b = str(a.value), str(b.value)
            if room_a == room_b:
                return True
            if room_a not in floor.graph or room_b not in floor.graph:
                return False
            return floor.graph.has_edge(room_a, room_b)

        @registry.register("location_matches_badge")
        def location_matches_badge(location: Context, badge: Context) -> bool:
            """A coordinate must lie in (or next to) the badge's room."""
            try:
                point = location.position
            except TypeError:
                return False
            badge_room = str(badge.value)
            room = floor.room_at(point)
            if room is not None:
                if room.name == badge_room:
                    return True
                if badge_room in floor.graph and floor.graph.has_edge(
                    room.name, badge_room
                ):
                    return True
            # Boundary tolerance: benign jitter can land a reading just
            # across a wall into a room that shares no door with the
            # badge's.  Accept it while the point stays within
            # BOUNDARY_TOLERANCE of the badge room's rectangle.
            if badge_room not in floor.graph:
                return False
            rect = floor.room(badge_room)
            x, y = point
            dx = max(rect.x0 - x, 0.0, x - rect.x1)
            dy = max(rect.y0 - y, 0.0, y - rect.y1)
            return dx * dx + dy * dy <= BOUNDARY_TOLERANCE**2

        return registry

    # -- the five consistency constraints ----------------------------------

    def build_constraints(self) -> List[Constraint]:
        """The application's five consistency constraints.

        C1/C2 are the paper's running velocity constraints over
        adjacent and one-separated location pairs; C3 is the feasible
        area check; C4 and C5 relate badge sightings to each other and
        to tracked coordinates (cross-type inconsistencies, showing
        the strategy's generic reliability beyond location pairs).
        """
        adjacent_gap = SAMPLE_PERIOD * 1.5
        separated_gap = SAMPLE_PERIOD * 2.5
        return [
            parse_constraint(
                "cf-velocity-adjacent",
                f"forall l1 in {self.CTX_LOCATION}, "
                f"forall l2 in {self.CTX_LOCATION} : "
                f"(same_subject(l1, l2) and before(l1, l2) "
                f"and within_time(l1, l2, {adjacent_gap})) "
                f"implies velocity_le(l1, l2, {VELOCITY_BOUND})",
                description=(
                    "Walking velocity estimated from adjacent tracked "
                    "locations stays below 150% of the average velocity."
                ),
            ),
            parse_constraint(
                "cf-velocity-separated",
                f"forall l1 in {self.CTX_LOCATION}, "
                f"forall l2 in {self.CTX_LOCATION} : "
                f"(same_subject(l1, l2) and before(l1, l2) "
                f"and within_time(l1, l2, {separated_gap}) "
                f"and not within_time(l1, l2, {adjacent_gap})) "
                f"implies velocity_le(l1, l2, {VELOCITY_BOUND})",
                description=(
                    "The Section 3.1 refinement: the velocity bound also "
                    "holds for location pairs separated by one "
                    "intermediate location."
                ),
            ),
            parse_constraint(
                "cf-feasible-area",
                f"forall l in {self.CTX_LOCATION} : in_feasible_area(l)",
                description="Tracked locations fall inside the building.",
            ),
            parse_constraint(
                "cf-badge-no-teleport",
                f"forall b1 in {self.CTX_BADGE}, forall b2 in {self.CTX_BADGE} : "
                f"(same_subject(b1, b2) and before(b1, b2) "
                f"and within_time(b1, b2, {adjacent_gap})) "
                f"implies rooms_reachable(b1, b2)",
                description=(
                    "Consecutive badge sightings of one person are in the "
                    "same or directly connected rooms."
                ),
            ),
            parse_constraint(
                "cf-badge-location-agreement",
                f"forall b in {self.CTX_BADGE}, forall l in {self.CTX_LOCATION} : "
                f"(same_subject(b, l) and within_time(b, l, 1.0)) "
                f"implies location_matches_badge(l, b)",
                description=(
                    "A badge sighting and a synchronous tracked coordinate "
                    "of the same person agree on the room."
                ),
            ),
        ]

    def build_checker(
        self, incremental: bool = True, kernels: bool = True
    ) -> ConstraintChecker:
        """A constraint checker loaded with this app's constraints."""
        return ConstraintChecker(
            self.build_constraints(),
            registry=self.build_registry(),
            incremental=incremental,
            kernels=kernels,
        )

    # -- the three situations ------------------------------------------------

    def build_situations(self) -> List[Situation]:
        """The application's three situations (study coverage 70.8%)."""
        return [
            make_situation(
                "cf-at-desk",
                value_is(self.CTX_BADGE, self.office, subject=self.tracked_subject),
                description=(
                    f"{self.tracked_subject} is at the desk: forward calls "
                    f"to the {self.office} phone."
                ),
            ),
            make_situation(
                "cf-in-meeting",
                entered(self.CTX_BADGE, "meeting", subject=self.tracked_subject),
                description=(
                    f"{self.tracked_subject} entered the meeting room: "
                    f"forward calls to voicemail."
                ),
            ),
            make_situation(
                "cf-with-colleague",
                co_located(
                    self.CTX_BADGE,
                    self.tracked_subject,
                    self.colleague,
                    max_age=3.0 * SAMPLE_PERIOD,
                ),
                description=(
                    f"{self.tracked_subject} and {self.colleague} are in "
                    f"the same room: forward to the shared line."
                ),
            ),
        ]

    # -- workload ----------------------------------------------------------------

    def generate_workload(
        self,
        err_rate: float,
        seed: int,
        *,
        duration: float = 600.0,
        lifespan: float = 60.0,
    ) -> List[Context]:
        """One experiment group's context stream.

        Two walkers (the tracked person and the colleague) move around
        the floor; the tracked person additionally has a coordinate
        tracker.  All three sensing pipelines inject errors at
        ``err_rate``.
        """
        rng = random.Random(seed)
        factory = ContextFactory(prefix=f"cf{seed}")
        rooms = self.floor.room_names()

        peter_truth = RandomWaypointWalker(
            self.tracked_subject,
            self.floor,
            random.Random(rng.randrange(2**31)),
            speed=WALK_SPEED,
            period=SAMPLE_PERIOD,
            start_room=self.office,
        ).walk(duration)
        alice_truth = RandomWaypointWalker(
            self.colleague,
            self.floor,
            random.Random(rng.randrange(2**31)),
            speed=WALK_SPEED,
            period=SAMPLE_PERIOD,
            start_room="office-3",
        ).walk(duration, start_time=SAMPLE_PERIOD / 2.0)

        location_source = TrackedLocationSource(
            peter_truth,
            LocationNoiseModel(
                err_rate,
                random.Random(rng.randrange(2**31)),
                jitter_sigma=0.15,
                displacement_range=(3.0, 9.0),
            ),
            factory,
            lifespan=lifespan,
        )
        peter_badges = BadgeSensorNetwork(
            RoomNoiseModel(err_rate, rooms, random.Random(rng.randrange(2**31))),
            random.Random(rng.randrange(2**31)),
        ).sightings(peter_truth)
        alice_badges = BadgeSensorNetwork(
            RoomNoiseModel(err_rate, rooms, random.Random(rng.randrange(2**31))),
            random.Random(rng.randrange(2**31)),
        ).sightings(alice_truth)

        return merge_streams(
            location_source,
            BadgeContextSource(
                peter_badges, factory, name="badge-peter", lifespan=lifespan
            ),
            BadgeContextSource(
                alice_badges, factory, name="badge-alice", lifespan=lifespan
            ),
        )

    def as_pack(self):
        """This application as a scenario pack (same constraints,
        registry, situations and workload; adds the pack surface --
        full-roster sweeps, inconsistency measures, ``repro packs``)."""
        from ..scenarios.packs.legacy import call_forwarding_pack

        return call_forwarding_pack()


@dataclass
class ForwardingController:
    """The adaptive behaviour: where calls are forwarded right now.

    Subscribed to delivered badge contexts, it keeps the forwarding
    target up to date -- the "adaptive behavior based on contexts" the
    metrics quantify.  Examples use it to show end-to-end behaviour.
    """

    subject: str
    office: str = "office-2"
    target: str = "reception"
    decisions: List[Tuple[float, str]] = field(default_factory=list)

    #: room kind/name -> forwarding target.
    ROUTING: Dict[str, str] = field(
        default_factory=lambda: {
            "meeting": "voicemail",
            "lab": "lab-phone",
            "lounge": "lounge-phone",
        }
    )

    def on_context(self, ctx: Context) -> None:
        if ctx.ctx_type != CallForwardingApp.CTX_BADGE or ctx.subject != self.subject:
            return
        room = str(ctx.value)
        if room == self.office:
            new_target = "desk-phone"
        else:
            new_target = self.ROUTING.get(room, "reception")
        if new_target != self.target:
            self.target = new_target
            self.decisions.append((ctx.timestamp, new_target))
