"""Unit tests for the context model."""

import pytest

from repro.core.context import (
    INFINITE_LIFESPAN,
    Context,
    ContextFactory,
    ContextState,
)


class TestContext:
    def test_basic_fields(self, mk):
        ctx = mk(ctx_id="c1", ctx_type="rfid", subject="tag-1", value="dock")
        assert ctx.ctx_id == "c1"
        assert ctx.ctx_type == "rfid"
        assert ctx.subject == "tag-1"
        assert ctx.value == "dock"
        assert not ctx.corrupted

    def test_contexts_are_immutable(self, mk):
        ctx = mk()
        with pytest.raises(AttributeError):
            ctx.value = (1.0, 1.0)

    def test_negative_lifespan_rejected(self, mk):
        with pytest.raises(ValueError):
            mk(lifespan=-1.0)

    def test_expiry_is_timestamp_plus_lifespan(self, mk):
        ctx = mk(timestamp=10.0, lifespan=5.0)
        assert ctx.expiry == 15.0
        assert not ctx.is_expired(14.999)
        assert ctx.is_expired(15.0)

    def test_infinite_lifespan_never_expires(self, mk):
        ctx = mk(timestamp=0.0, lifespan=INFINITE_LIFESPAN)
        assert not ctx.is_expired(1e18)

    def test_position_of_location_value(self, mk):
        ctx = mk(value=(3, 4))
        assert ctx.position == (3.0, 4.0)

    def test_position_of_non_location_raises(self, mk):
        ctx = mk(value="dock")
        with pytest.raises(TypeError):
            ctx.position

    def test_distance(self, mk):
        a = mk(value=(0.0, 0.0))
        b = mk(value=(3.0, 4.0))
        assert a.distance_to(b) == pytest.approx(5.0)

    def test_attributes_lookup(self, mk):
        ctx = mk(attributes=(("floor", 2), ("reader", "r1")))
        assert ctx.attr("floor") == 2
        assert ctx.attr("reader") == "r1"
        assert ctx.attr("missing") is None
        assert ctx.attr("missing", "dflt") == "dflt"

    def test_attributes_accept_mapping(self):
        ctx = Context(
            ctx_id="x",
            ctx_type="t",
            subject="s",
            value=1,
            timestamp=0.0,
            attributes={"b": 2, "a": 1},
        )
        assert ctx.attr("a") == 1
        assert ctx.attr("b") == 2
        # Stored canonically sorted, so equal contexts hash equal.
        assert ctx.attributes == (("a", 1), ("b", 2))

    def test_contexts_hashable_and_equal_by_value(self, mk):
        a = mk(ctx_id="same", timestamp=1.0)
        b = mk(ctx_id="same", timestamp=1.0)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


class TestContextState:
    def test_terminal_states(self):
        assert ContextState.CONSISTENT.is_terminal()
        assert ContextState.INCONSISTENT.is_terminal()
        assert not ContextState.UNDECIDED.is_terminal()
        assert not ContextState.BAD.is_terminal()


class TestContextFactory:
    def test_ids_are_unique_and_prefixed(self):
        factory = ContextFactory(prefix="run1")
        a = factory.make("location", "p", (0, 0), 0.0)
        b = factory.make("location", "p", (1, 1), 1.0)
        assert a.ctx_id != b.ctx_id
        assert a.ctx_id.startswith("run1-")

    def test_explicit_id_respected(self):
        factory = ContextFactory()
        ctx = factory.make("location", "p", (0, 0), 0.0, ctx_id="d3")
        assert ctx.ctx_id == "d3"

    def test_kwargs_passed_through(self):
        factory = ContextFactory()
        ctx = factory.make(
            "badge",
            "alice",
            "office-1",
            5.0,
            lifespan=60.0,
            source="sensor-7",
            corrupted=True,
            attributes={"rssi": -50},
        )
        assert ctx.lifespan == 60.0
        assert ctx.source == "sensor-7"
        assert ctx.corrupted
        assert ctx.attr("rssi") == -50
