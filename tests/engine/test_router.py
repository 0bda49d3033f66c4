"""Unit tests for the context router."""

import zlib

from repro.constraints.parser import parse_constraint
from repro.engine.router import ContextRouter
from repro.engine.scope import partition_constraints
from tests.conftest import make_context


def partition(shards=2):
    constraints = [
        parse_constraint(
            "pair",
            "forall a in loc, forall b in badge : "
            "same_subject(a, b) implies within_time(a, b, 5.0)",
        )
    ]
    return partition_constraints(constraints, shards)


class TestContextRouter:
    def test_constrained_type_goes_to_owning_shard(self):
        part = partition()
        router = ContextRouter(part)
        owner = part.shard_of_type("loc")
        for subject in ("s1", "s2", "s3"):
            ctx = make_context(ctx_type="loc", subject=subject)
            assert router.route(ctx) == owner
            ctx = make_context(ctx_type="badge", subject=subject)
            assert router.route(ctx) == owner

    def test_unconstrained_type_spreads_by_subject_crc32(self):
        router = ContextRouter(partition(shards=4))
        for subject in ("alice", "bob", "carol"):
            expected = zlib.crc32(subject.encode("utf-8")) % 4
            ctx = make_context(ctx_type="free", subject=subject)
            assert router.route(ctx) == expected

    def test_subjectless_contexts_keyed_by_type(self):
        router = ContextRouter(partition(shards=4))
        ctx = make_context(ctx_type="heartbeat", subject="")
        expected = zlib.crc32(b"heartbeat") % 4
        assert router.route(ctx) == expected

    def test_routing_is_stable_across_routers(self):
        first = ContextRouter(partition(shards=3))
        second = ContextRouter(partition(shards=3))
        contexts = [
            make_context(ctx_type=t, subject=s)
            for t in ("loc", "free", "other")
            for s in ("s1", "s2")
        ]
        assert [first.route(c) for c in contexts] == [
            second.route(c) for c in contexts
        ]
