"""Unit tests for the smart-phone application bundle."""

import random

import pytest

from repro.apps.smart_phone import RingerController, SmartPhoneApp
from repro.core.context import Context


@pytest.fixture(scope="module")
def app():
    return SmartPhoneApp()


def venue(ctx_id, name, t, subject="peter"):
    return Context(
        ctx_id=ctx_id,
        ctx_type="venue",
        subject=subject,
        value=name,
        timestamp=float(t),
    )


def noise(ctx_id, level, t, subject="peter"):
    return Context(
        ctx_id=ctx_id,
        ctx_type="noise",
        subject=subject,
        value=level,
        timestamp=float(t),
    )


def calendar(ctx_id, kind, start, end, subject="peter"):
    return Context(
        ctx_id=ctx_id,
        ctx_type="calendar",
        subject=subject,
        value=kind,
        timestamp=float(start),
        attributes=(("end", float(end)), ("start", float(start))),
    )


class TestConstraints:
    def test_five_constraints_three_types(self, app):
        constraints = app.build_constraints()
        assert len(constraints) == 5
        types = set()
        for constraint in constraints:
            types |= constraint.relevant_types()
        assert types == {"venue", "noise", "calendar"}

    def test_venue_teleport_violation(self, app):
        checker = app.build_checker()
        a = venue("a", "home", 0.0)
        b = venue("b", "stadium", 2.0)  # home -> stadium not adjacent
        incs = checker.detect(b, [a], now=2.0)
        assert any(i.constraint == "sp-venue-no-teleport" for i in incs)

    def test_street_transitions_fine(self, app):
        checker = app.build_checker()
        a = venue("a", "home", 0.0)
        b = venue("b", "street", 2.0)
        assert checker.detect(b, [a], now=2.0) == []

    def test_noise_venue_agreement(self, app):
        checker = app.build_checker()
        place = venue("v", "home", 10.0)
        quiet = noise("q", 30.0, 10.1)
        roaring = noise("r", 100.0, 10.2)
        assert checker.detect(quiet, [place], now=10.1) == []
        incs = checker.detect(roaring, [place], now=10.2)
        assert any(
            i.constraint == "sp-noise-venue-agreement" for i in incs
        )

    def test_noise_continuity(self, app):
        checker = app.build_checker()
        a = noise("a", 30.0, 0.0)
        b = noise("b", 105.0, 2.0)
        incs = checker.detect(b, [a], now=2.0)
        assert any(i.constraint == "sp-noise-continuity" for i in incs)

    def test_calendar_venue_agreement(self, app):
        checker = app.build_checker()
        event = calendar("e", "concert", 100.0, 140.0)
        at_hall = venue("v1", "concert-hall", 120.0)
        at_home = venue("v2", "home", 125.0)
        assert checker.detect(at_hall, [event], now=120.0) == []
        incs = checker.detect(at_home, [event, at_hall], now=125.0)
        assert any(
            i.constraint == "sp-calendar-venue-agreement" for i in incs
        )

    def test_event_window_respected(self, app):
        checker = app.build_checker()
        event = calendar("e", "concert", 100.0, 140.0)
        before_event = venue("v", "home", 50.0)
        assert checker.detect(before_event, [event], now=50.0) == []


class TestWorkload:
    def test_clean_stream_has_no_inconsistencies(self, app):
        """Rule 1 holds structurally for the smart-phone constraints."""
        contexts = app.generate_workload(0.0, seed=11, days=2)
        checker = app.build_checker()
        assert checker.check_all(contexts, now=contexts[-1].timestamp) == []

    def test_all_three_context_types_present(self, app):
        contexts = app.generate_workload(0.2, seed=11)
        assert {c.ctx_type for c in contexts} == {
            "venue",
            "noise",
            "calendar",
        }

    def test_calendar_contexts_never_corrupted(self, app):
        contexts = app.generate_workload(0.4, seed=11)
        assert all(
            not c.corrupted for c in contexts if c.ctx_type == "calendar"
        )

    def test_error_rate_reflected(self, app):
        contexts = app.generate_workload(0.3, seed=11, days=3)
        sensed = [c for c in contexts if c.ctx_type != "calendar"]
        rate = sum(c.corrupted for c in sensed) / len(sensed)
        assert 0.2 < rate < 0.4

    def test_deterministic(self, app):
        a = app.generate_workload(0.2, seed=5)
        b = app.generate_workload(0.2, seed=5)
        assert a == b

    def test_schedule_starts_and_ends_at_home(self, app):
        legs = app.daily_schedule(random.Random(1))
        assert legs[0][0] == "home"
        assert legs[-1][0] == "home"
        venues = [leg[0] for leg in legs]
        # every change of venue passes through the street
        for a, b in zip(venues, venues[1:]):
            assert a == "street" or b == "street" or a == b


class TestSituations:
    def test_three_situations(self, app):
        assert len(app.build_situations()) == 3

    def test_harness_compatible(self, app):
        """The smart-phone app runs as a pack in the experiment driver."""
        from repro.scenarios.runner import PackRunner

        contexts = app.generate_workload(0.3, seed=13, days=2)
        metrics = PackRunner("smart-phone").run(
            "drop-bad",
            err_rate=0.3,
            seed=13,
            use_window=8,
            stream=contexts,
            measures=False,
        ).metrics
        assert metrics.contexts_total == len(contexts)
        assert metrics.removal_precision > 0.5


class TestRingerController:
    def test_profile_changes(self):
        controller = RingerController(owner="peter")
        controller.on_context(venue("a", "concert-hall", 1.0))
        assert controller.profile == "vibrate"
        controller.on_context(venue("b", "stadium", 2.0))
        assert controller.profile == "loud"
        controller.on_context(venue("c", "street", 3.0))
        assert controller.profile == "normal"
        assert len(controller.changes) == 3

    def test_ignores_other_subjects_and_types(self):
        controller = RingerController(owner="peter")
        controller.on_context(venue("a", "stadium", 1.0, subject="alice"))
        controller.on_context(noise("n", 50.0, 1.0))
        assert controller.changes == []
