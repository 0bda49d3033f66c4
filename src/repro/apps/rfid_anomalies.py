"""The RFID data anomalies application (paper Section 4.1, after Rao
et al.'s deferred RFID cleansing [14] and Jeffery et al.'s adaptive
RFID cleaning [8]).

Tagged items flow through a facility (dock -> staging -> shelves ->
checkout) and zone readers report their positions.  Raw RFID streams
are notoriously dirty -- cross reads, ghost reads, duplicates -- which
is exactly the anomaly workload the consistency constraints target.

Five consistency constraints (study coverage 81.5%) and three
situations are provided, plus the workload generator.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from ..constraints.ast import Constraint
from ..constraints.builtins import FunctionRegistry, standard_registry
from ..constraints.checker import ConstraintChecker
from ..constraints.parser import parse_constraint
from ..core.context import Context, ContextFactory
from ..sensing.environment import FloorPlan, warehouse_floor
from ..sensing.mobility import ZoneFlowWalker
from ..sensing.noise import ZoneNoiseModel
from ..sensing.rfid import ZoneReaderArray
from ..sensing.source import RFIDContextSource, merge_streams
from ..situations.library import entered, make_situation, value_in
from ..situations.situation import Situation

__all__ = ["RFIDAnomaliesApp"]

#: Read sampling period (s).
READ_PERIOD = 2.0

#: Monotone rank of each zone along the intended item flow.
FLOW_RANK: Dict[str, int] = {
    "dock": 0,
    "staging": 1,
    "shelf-A": 2,
    "shelf-B": 2,
    "shelf-C": 3,
    "shelf-D": 3,
    "checkout": 4,
}


class RFIDAnomaliesApp:
    """Bundles the RFID anomalies constraints, situations and workload."""

    CTX_READ = "rfid_read"

    def __init__(self, floor: Optional[FloorPlan] = None) -> None:
        self.floor = floor or warehouse_floor()

    # -- predicates --------------------------------------------------------

    def build_registry(self) -> FunctionRegistry:
        registry = standard_registry()
        floor = self.floor

        @registry.register("zones_compatible")
        def zones_compatible(a: Context, b: Context) -> bool:
            """Simultaneous reads of one tag must be in one physical
            place: same zone, or zones whose fields overlap (adjacent)."""
            zone_a, zone_b = str(a.value), str(b.value)
            if zone_a == zone_b:
                return True
            if zone_a not in floor.graph or zone_b not in floor.graph:
                return False
            return floor.graph.has_edge(zone_a, zone_b)

        @registry.register("zone_reachable")
        def zone_reachable(a: Context, b: Context) -> bool:
            """Consecutive reads must be in the same or adjacent zones
            (an item cannot teleport across the facility in one
            period)."""
            return zones_compatible(a, b)

        @registry.register("flow_order_ok")
        def flow_order_ok(earlier: Context, later: Context) -> bool:
            """Items never move backwards along the intended flow."""
            rank_earlier = FLOW_RANK.get(str(earlier.value))
            rank_later = FLOW_RANK.get(str(later.value))
            if rank_earlier is None or rank_later is None:
                return False
            return rank_later >= rank_earlier

        @registry.register("is_checkout")
        def is_checkout(ctx: Context) -> bool:
            return str(ctx.value) == "checkout"

        @registry.register("is_shelf_or_later")
        def is_shelf_or_later(ctx: Context) -> bool:
            rank = FLOW_RANK.get(str(ctx.value))
            return rank is not None and rank >= 2

        @registry.register("known_zone")
        def known_zone(ctx: Context) -> bool:
            return str(ctx.value) in FLOW_RANK

        return registry

    # -- the five consistency constraints ----------------------------------------

    def build_constraints(self) -> List[Constraint]:
        """The application's five consistency constraints.

        C1 forbids one tag in two distant places at once; C2 forbids
        teleporting between non-adjacent zones in one period; C3
        enforces monotone flow order; C4 forbids reads after checkout
        anywhere but checkout; C5 requires a checkout read to be
        preceded by a shelf-stage read (an existential constraint,
        exercising the checker beyond the prefix-universal fragment).
        """
        eps = 0.5
        adjacent_gap = READ_PERIOD * 1.5
        horizon = READ_PERIOD * 6
        t = self.CTX_READ
        return [
            parse_constraint(
                "rf-single-location",
                f"forall r1 in {t}, forall r2 in {t} : "
                f"(same_subject(r1, r2) and distinct(r1, r2) "
                f"and within_time(r1, r2, {eps})) "
                f"implies zones_compatible(r1, r2)",
                description="One tag is in one physical place at a time.",
            ),
            parse_constraint(
                "rf-no-teleport",
                f"forall r1 in {t}, forall r2 in {t} : "
                f"(same_subject(r1, r2) and before(r1, r2) "
                f"and within_time(r1, r2, {adjacent_gap})) "
                f"implies zone_reachable(r1, r2)",
                description=(
                    "Consecutive reads of a tag are in the same or "
                    "adjacent zones."
                ),
            ),
            parse_constraint(
                "rf-flow-order",
                f"forall r1 in {t}, forall r2 in {t} : "
                f"(same_subject(r1, r2) and before(r1, r2) "
                f"and within_time(r1, r2, {horizon})) "
                f"implies flow_order_ok(r1, r2)",
                description="Items never move backwards along the flow.",
            ),
            parse_constraint(
                "rf-no-reappear",
                f"forall r1 in {t}, forall r2 in {t} : "
                f"(same_subject(r1, r2) and before(r1, r2) "
                f"and is_checkout(r1)) "
                f"implies is_checkout(r2)",
                description="A checked-out item is never read elsewhere.",
            ),
            parse_constraint(
                "rf-checkout-provenance",
                f"forall r1 in {t} : is_checkout(r1) implies "
                f"(exists r2 in {t} : same_subject(r1, r2) "
                f"and before(r2, r1) and is_shelf_or_later(r2))",
                description=(
                    "A checkout read is preceded by a shelf-stage read of "
                    "the same item."
                ),
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

    # -- the three situations ------------------------------------------------------

    def build_situations(self) -> List[Situation]:
        """The application's three situations (study coverage 81.5%)."""
        return [
            make_situation(
                "rf-arrived",
                entered(self.CTX_READ, "staging"),
                description="An item moved from the dock into staging.",
            ),
            make_situation(
                "rf-shelved",
                value_in(
                    self.CTX_READ, ["shelf-A", "shelf-B", "shelf-C", "shelf-D"]
                ),
                description="An item is on the sales floor (restock view).",
            ),
            make_situation(
                "rf-checked-out",
                entered(self.CTX_READ, "checkout"),
                description="An item reached checkout (billing event).",
            ),
        ]

    # -- workload ----------------------------------------------------------------

    def item_flow(self, rng: random.Random) -> List[str]:
        """A random intended flow for one item through the facility."""
        shelf_first = rng.choice(["shelf-A", "shelf-B"])
        shelf_second = {"shelf-A": "shelf-C", "shelf-B": "shelf-D"}[shelf_first]
        return ["dock", "staging", shelf_first, shelf_second, "checkout"]

    def generate_workload(
        self,
        err_rate: float,
        seed: int,
        *,
        items: int = 12,
        lifespan: float = 60.0,
    ) -> List[Context]:
        """One experiment group's RFID context stream.

        ``items`` tagged items each flow through the facility with
        staggered start times; their reads are noisy at ``err_rate``.
        """
        rng = random.Random(seed)
        factory = ContextFactory(prefix=f"rf{seed}")
        zones = list(FLOW_RANK)
        sources = []
        for index in range(items):
            tag = f"tag-{index:03d}"
            walker = ZoneFlowWalker(
                tag,
                self.floor,
                self.item_flow(rng),
                random.Random(rng.randrange(2**31)),
                period=READ_PERIOD,
                dwell_samples=(2, 5),
            )
            truth = walker.walk(start_time=index * READ_PERIOD * 1.5)
            readers = ZoneReaderArray(
                ZoneNoiseModel(
                    err_rate, zones, random.Random(rng.randrange(2**31))
                ),
                random.Random(rng.randrange(2**31)),
                miss_rate=0.04,
                duplicate_rate=0.04,
            )
            sources.append(
                RFIDContextSource(
                    readers.read_stream(truth),
                    factory,
                    name=f"readers-{tag}",
                    lifespan=lifespan,
                )
            )
        return merge_streams(*sources)

    def as_pack(self):
        """This application as a scenario pack (same constraints,
        registry, situations and workload; adds the pack surface --
        full-roster sweeps, inconsistency measures, ``repro packs``)."""
        from ..scenarios.packs.legacy import rfid_pack

        return rfid_pack()
