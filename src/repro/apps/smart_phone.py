"""The adaptive smart phone (the paper's Section 1 motivation).

"A smart phone would vibrate rather than beep in a concert hall to
avoid disturbing an ongoing performance, but would roar loudly in a
football match to draw its user's attention."  This application makes
that motivating example concrete: the phone consumes

* ``venue`` contexts -- which place its owner is in (from
  coarse-grained localization),
* ``noise`` contexts -- ambient sound-pressure samples (dB) from the
  microphone, and
* ``calendar`` contexts -- scheduled events with start/end times,

and adapts its ringer profile.  Five consistency constraints relate
the three context types (venue continuity, venue/noise plausibility,
noise continuity, calendar/venue agreement, single-venue), and three
situations drive the profile adaptation.

The module mirrors the structure of the two evaluated applications so
it plugs straight into the comparison harness, giving a third,
heterogeneous-context workload beyond the paper's two.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import networkx as nx

from ..constraints.ast import Constraint
from ..constraints.builtins import FunctionRegistry, standard_registry
from ..constraints.checker import ConstraintChecker
from ..constraints.parser import parse_constraint
from ..core.context import Context, ContextFactory
from ..situations.library import entered, make_situation
from ..situations.situation import Situation, SituationView

__all__ = ["SmartPhoneApp", "RingerController", "VENUES", "NOISE_BANDS"]

#: Sampling period for venue and noise contexts (s).
SAMPLE_PERIOD = 2.0

#: The venues of the phone owner's world; "street" connects everything
#: (you always transit through the street).
VENUES: Tuple[str, ...] = (
    "home",
    "street",
    "office",
    "cafe",
    "concert-hall",
    "stadium",
)

#: Plausible ambient noise band (dB) per venue.
NOISE_BANDS: Dict[str, Tuple[float, float]] = {
    "home": (20.0, 55.0),
    "street": (55.0, 85.0),
    "office": (30.0, 65.0),
    "cafe": (50.0, 80.0),
    "concert-hall": (60.0, 105.0),
    "stadium": (65.0, 110.0),
}

#: Which venues are compatible with which calendar event kinds
#: ("street" is always allowed: the owner may be in transit).
EVENT_VENUES: Dict[str, Tuple[str, ...]] = {
    "concert": ("concert-hall", "street"),
    "match": ("stadium", "street"),
    "meeting": ("office", "street"),
    "free": VENUES,
}


def _venue_graph() -> "nx.Graph":
    graph = nx.Graph()
    graph.add_nodes_from(VENUES)
    for venue in VENUES:
        if venue != "street":
            graph.add_edge(venue, "street")
    return graph


class SmartPhoneApp:
    """Bundles the smart-phone constraints, situations and workload."""

    CTX_VENUE = "venue"
    CTX_NOISE = "noise"
    CTX_CALENDAR = "calendar"

    def __init__(self, owner: str = "peter") -> None:
        self.owner = owner
        self.graph = _venue_graph()

    # -- predicates ----------------------------------------------------------

    def build_registry(self) -> FunctionRegistry:
        registry = standard_registry()
        graph = self.graph

        @registry.register("venues_reachable")
        def venues_reachable(a: Context, b: Context) -> bool:
            """Consecutive venues are identical or share an edge."""
            venue_a, venue_b = str(a.value), str(b.value)
            if venue_a == venue_b:
                return True
            if venue_a not in graph or venue_b not in graph:
                return False
            return graph.has_edge(venue_a, venue_b)

        @registry.register("noise_plausible")
        def noise_plausible(noise: Context, venue: Context) -> bool:
            """The sampled dB level fits the venue's ambient band."""
            band = NOISE_BANDS.get(str(venue.value))
            if band is None:
                return False
            low, high = band
            try:
                level = float(noise.value)
            except (TypeError, ValueError):
                return False
            return low <= level <= high

        @registry.register("noise_step_le")
        def noise_step_le(a: Context, b: Context, max_step: float) -> bool:
            """Ambient level cannot jump arbitrarily between samples."""
            try:
                return abs(float(a.value) - float(b.value)) <= max_step
            except (TypeError, ValueError):
                return False

        @registry.register("event_active")
        def event_active(event: Context, other: Context) -> bool:
            start = event.attr("start", event.timestamp)
            end = event.attr("end", event.expiry)
            return start <= other.timestamp <= end

        @registry.register("venue_matches_event")
        def venue_matches_event(event: Context, venue: Context) -> bool:
            allowed = EVENT_VENUES.get(str(event.value), VENUES)
            return str(venue.value) in allowed

        return registry

    # -- the five consistency constraints --------------------------------------

    def build_constraints(self) -> List[Constraint]:
        adjacent_gap = SAMPLE_PERIOD * 1.5
        eps = 0.5
        v, n, c = self.CTX_VENUE, self.CTX_NOISE, self.CTX_CALENDAR
        return [
            parse_constraint(
                "sp-venue-no-teleport",
                f"forall v1 in {v}, forall v2 in {v} : "
                f"(same_subject(v1, v2) and before(v1, v2) "
                f"and within_time(v1, v2, {adjacent_gap})) "
                f"implies venues_reachable(v1, v2)",
                description="The owner cannot jump between venues.",
            ),
            parse_constraint(
                "sp-noise-venue-agreement",
                f"forall s in {n}, forall v1 in {v} : "
                f"(same_subject(s, v1) and within_time(s, v1, {eps})) "
                f"implies noise_plausible(s, v1)",
                description=(
                    "A synchronous microphone sample fits the venue's "
                    "ambient noise band."
                ),
            ),
            parse_constraint(
                "sp-noise-continuity",
                f"forall s1 in {n}, forall s2 in {n} : "
                f"(same_subject(s1, s2) and before(s1, s2) "
                f"and within_time(s1, s2, {adjacent_gap})) "
                f"implies noise_step_le(s1, s2, 60.0)",
                description="Ambient level changes are bounded per step.",
            ),
            parse_constraint(
                "sp-calendar-venue-agreement",
                f"forall e in {c}, forall v1 in {v} : "
                f"(same_subject(e, v1) and event_active(e, v1)) "
                f"implies venue_matches_event(e, v1)",
                description=(
                    "During a scheduled event the owner is at the "
                    "event's venue (or in transit)."
                ),
            ),
            parse_constraint(
                "sp-single-venue",
                f"forall v1 in {v}, forall v2 in {v} : "
                f"(same_subject(v1, v2) and distinct(v1, v2) "
                f"and within_time(v1, v2, {eps})) "
                f"implies venues_reachable(v1, v2)",
                description="One owner is in one venue at a time.",
            ),
        ]

    def build_checker(
        self, incremental: bool = True, kernels: bool = True
    ) -> ConstraintChecker:
        return ConstraintChecker(
            self.build_constraints(),
            registry=self.build_registry(),
            incremental=incremental,
            kernels=kernels,
        )

    # -- the three situations -----------------------------------------------------

    def build_situations(self) -> List[Situation]:
        return [
            make_situation(
                "sp-silent-mode",
                entered(self.CTX_VENUE, "concert-hall", subject=self.owner),
                description="Entered the concert hall: vibrate only.",
            ),
            make_situation(
                "sp-loud-mode",
                entered(self.CTX_VENUE, "stadium", subject=self.owner),
                description="Entered the stadium: ring at full volume.",
            ),
            make_situation(
                "sp-quiet-surroundings",
                self._quiet_trigger,
                description=(
                    "Ambient level is low at home/office: soften the "
                    "ringer."
                ),
            ),
        ]

    def _quiet_trigger(self, ctx: Context, view: SituationView) -> bool:
        if ctx.ctx_type != self.CTX_NOISE or ctx.subject != self.owner:
            return False
        try:
            level = float(ctx.value)
        except (TypeError, ValueError):
            return False
        if level >= 40.0:
            return False
        recent = view.recent(ctx_type=self.CTX_VENUE, subject=self.owner, limit=1)
        return bool(recent) and recent[-1].value in ("home", "office")

    # -- workload -----------------------------------------------------------------

    def daily_schedule(self, rng: random.Random) -> List[Tuple[str, int, str]]:
        """Legs of the owner's day: (venue, samples, calendar kind)."""
        outing = rng.choice(
            [("concert-hall", "concert"), ("stadium", "match")]
        )
        legs = [
            ("home", rng.randint(4, 8), "free"),
            ("street", rng.randint(2, 4), "free"),
            ("office", rng.randint(6, 12), "meeting"),
            ("street", rng.randint(2, 4), "free"),
            ("cafe", rng.randint(3, 6), "free"),
            ("street", rng.randint(2, 4), "free"),
            (outing[0], rng.randint(6, 12), outing[1]),
            ("street", rng.randint(2, 4), "free"),
            ("home", rng.randint(3, 6), "free"),
        ]
        return legs

    def generate_workload(
        self,
        err_rate: float,
        seed: int,
        *,
        days: int = 1,
        lifespan: float = 60.0,
    ) -> List[Context]:
        """Venue + noise + calendar contexts for the owner's day(s).

        Corruption model: a venue context misreports a uniformly random
        other venue; a noise context reports a uniformly random level
        in [0, 115] dB.  Calendar contexts come from the owner's own
        schedule and are always correct (the paper's constraints are
        correct, and so are the user's appointments).
        """
        rng = random.Random(seed)
        factory = ContextFactory(prefix=f"sp{seed}")
        contexts: List[Context] = []
        t = 0.0
        for _ in range(days):
            for venue, samples, event_kind in self.daily_schedule(rng):
                leg_start, leg_end = t, t + samples * SAMPLE_PERIOD
                if event_kind != "free":
                    contexts.append(
                        factory.make(
                            self.CTX_CALENDAR,
                            self.owner,
                            event_kind,
                            leg_start,
                            lifespan=max(lifespan, leg_end - leg_start + 10),
                            source="calendar",
                            attributes={"start": leg_start, "end": leg_end},
                        )
                    )
                for _ in range(samples):
                    if rng.random() < err_rate:
                        wrong = rng.choice([x for x in VENUES if x != venue])
                        contexts.append(
                            factory.make(
                                self.CTX_VENUE,
                                self.owner,
                                wrong,
                                t,
                                lifespan=lifespan,
                                source="localizer",
                                corrupted=True,
                            )
                        )
                    else:
                        contexts.append(
                            factory.make(
                                self.CTX_VENUE,
                                self.owner,
                                venue,
                                t,
                                lifespan=lifespan,
                                source="localizer",
                            )
                        )
                    low, high = NOISE_BANDS[venue]
                    if rng.random() < err_rate:
                        contexts.append(
                            factory.make(
                                self.CTX_NOISE,
                                self.owner,
                                round(rng.uniform(0.0, 115.0), 1),
                                t + 0.1,
                                lifespan=lifespan,
                                source="microphone",
                                corrupted=True,
                            )
                        )
                    else:
                        margin = (high - low) * 0.15
                        contexts.append(
                            factory.make(
                                self.CTX_NOISE,
                                self.owner,
                                round(rng.uniform(low + margin, high - margin), 1),
                                t + 0.1,
                                lifespan=lifespan,
                                source="microphone",
                            )
                        )
                    t += SAMPLE_PERIOD
        contexts.sort(key=lambda ctx: (ctx.timestamp, ctx.ctx_id))
        return contexts

    def as_pack(self):
        """This application as a scenario pack (same constraints,
        registry, situations and workload; adds the pack surface --
        full-roster sweeps, inconsistency measures, ``repro packs``)."""
        from ..scenarios.packs.legacy import smart_phone_pack

        return smart_phone_pack()


@dataclass
class RingerController:
    """The adaptive behaviour: which ringer profile is active.

    Subscribed to delivered venue contexts, it keeps the profile in
    sync -- the paper's vibrate-in-concert / roar-in-stadium example.
    """

    owner: str
    profile: str = "normal"
    changes: List[Tuple[float, str]] = field(default_factory=list)

    PROFILES: Dict[str, str] = field(
        default_factory=lambda: {
            "concert-hall": "vibrate",
            "stadium": "loud",
            "office": "quiet",
            "home": "normal",
            "cafe": "normal",
            "street": "normal",
        }
    )

    def on_context(self, ctx: Context) -> None:
        if ctx.ctx_type != SmartPhoneApp.CTX_VENUE or ctx.subject != self.owner:
            return
        new_profile = self.PROFILES.get(str(ctx.value), "normal")
        if new_profile != self.profile:
            self.profile = new_profile
            self.changes.append((ctx.timestamp, new_profile))
