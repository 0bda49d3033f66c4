"""Hash primitives and ruleset identity.

The chain and the ruleset hash are the ledger's integrity foundation:
canonical JSON must be byte-stable under dict ordering, and the
ruleset hash must track exactly the decision-relevant configuration --
change a constraint and it changes; flip kernels and it must NOT.
"""

import pytest

from repro.engine import EngineConfig, ShardedEngine
from repro.ledger import (
    GENESIS,
    canonical_json,
    chain_hash,
    ruleset_document,
    ruleset_hash,
)

from tests.runtime import _streams


class TestCanonicalJson:
    def test_key_order_insensitive(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json(
            {"a": 2, "b": 1}
        )

    def test_compact_separators(self):
        assert canonical_json({"a": [1, 2]}) == '{"a":[1,2]}'

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})


class TestChainHash:
    def test_deterministic(self):
        entry = {"kind": "arrival", "seq": 1}
        assert chain_hash(GENESIS, entry) == chain_hash(GENESIS, dict(entry))

    def test_sensitive_to_prev(self):
        entry = {"kind": "arrival", "seq": 1}
        other = chain_hash(GENESIS, {"kind": "ruleset", "seq": 0})
        assert chain_hash(GENESIS, entry) != chain_hash(other, entry)

    def test_sensitive_to_entry(self):
        assert chain_hash(GENESIS, {"seq": 1}) != chain_hash(GENESIS, {"seq": 2})


def app_engine(app_key="rfid", *, constraints=None, strategy=None, **config):
    base_constraints, registry_factory, _, base_strategy, use_window = (
        _streams.app_inputs(app_key)
    )
    config.setdefault("use_window", use_window)
    config.setdefault("shards", 2)
    return ShardedEngine(
        constraints if constraints is not None else base_constraints,
        strategy=strategy or base_strategy,
        registry_factory=registry_factory,
        config=EngineConfig(**config),
    )


class TestRulesetHash:
    def test_stable_across_engine_constructions(self):
        assert app_engine().ruleset_hash == app_engine().ruleset_hash

    def test_changes_when_a_constraint_is_added(self):
        constraints, _, _, _, _ = _streams.app_inputs("rfid")
        rng = __import__("random").Random(3)
        extra = _streams.make_constraints(rng)[0]
        grown = app_engine(constraints=list(constraints) + [extra])
        assert grown.ruleset_hash != app_engine().ruleset_hash

    def test_changes_with_strategy(self):
        assert (
            app_engine(strategy="drop-latest").ruleset_hash
            != app_engine(strategy="drop-bad").ruleset_hash
        )

    def test_changes_with_window(self):
        a = app_engine()
        b = app_engine(use_window=a.config.use_window + 1)
        assert a.ruleset_hash != b.ruleset_hash

    def test_kernels_and_mode_and_shards_are_hash_neutral(self):
        # Execution knobs never change decisions, so two runs that
        # differ only in them must share an identity -- that is what
        # makes their ledgers diffable.
        base = app_engine()
        assert app_engine(kernels=False).ruleset_hash == base.ruleset_hash
        assert app_engine(mode="inline").ruleset_hash == base.ruleset_hash
        assert app_engine(shards=5).ruleset_hash == base.ruleset_hash

    def test_constraint_order_insensitive(self):
        constraints, _, _, _, _ = _streams.app_inputs("rfid")
        doc_a = ruleset_document(list(constraints), strategy="drop-bad")
        doc_b = ruleset_document(
            list(reversed(list(constraints))), strategy="drop-bad"
        )
        assert ruleset_hash(doc_a) == ruleset_hash(doc_b)
