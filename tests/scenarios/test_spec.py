"""Unit tests for the scenario-pack spec layer.

Predicate compilation, param freezing, situation building, the
builder surface of :class:`ScenarioPack`, and the
``validate_pack`` linter.
"""

from __future__ import annotations

import pytest

from repro.core.context import Context
from repro.scenarios import (
    ChannelSpec,
    PhaseSpec,
    PredicateSpec,
    SituationSpec,
    WorkloadSpec,
    validate_pack,
)
from repro.scenarios.predicates import freeze_params, thaw_params

from ._packs import tiny_pack, tiny_workload


def ctx(value, ctx_type="t", subject="s", ts=0.0) -> Context:
    return Context(
        ctx_id=f"x-{value}",
        ctx_type=ctx_type,
        subject=subject,
        value=value,
        timestamp=ts,
    )


class TestParamFreezing:
    def test_round_trip(self):
        params = {"edges": [["a", "b"], ["b", "c"]], "self_ok": True}
        assert thaw_params(freeze_params(params)) == params

    def test_key_sorted_and_hashable(self):
        frozen = freeze_params({"b": 2, "a": [1, 2]})
        assert frozen == (("a", (1, 2)), ("b", 2))
        hash(frozen)

    def test_nested_mappings_rejected(self):
        with pytest.raises(ValueError):
            freeze_params({"bad": {"nested": 1}})


class TestPredicateSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PredicateSpec(name="p", kind="no-such-kind")

    def test_graph_reachable(self):
        fn = PredicateSpec(
            name="adj",
            kind="graph_reachable",
            params={"edges": [["a", "b"]], "self_ok": True},
        ).build()
        assert fn(ctx("a"), ctx("b"))
        assert fn(ctx("b"), ctx("a"))  # edges are symmetric
        assert fn(ctx("a"), ctx("a"))
        assert not fn(ctx("a"), ctx("c"))

    def test_graph_reachable_self_not_ok(self):
        fn = PredicateSpec(
            name="adj",
            kind="graph_reachable",
            params={"edges": [["a", "b"]], "self_ok": False},
        ).build()
        assert not fn(ctx("a"), ctx("a"))

    def test_step_le(self):
        fn = PredicateSpec(
            name="step", kind="step_le", params={"limit": 2.0}
        ).build()
        assert fn(ctx(1.0), ctx(3.0))
        assert not fn(ctx(1.0), ctx(3.5))
        # Non-numeric values fail the predicate rather than crash.
        assert not fn(ctx("oops"), ctx(1.0))

    def test_rank_le(self):
        fn = PredicateSpec(
            name="ramp",
            kind="rank_le",
            params={"order": ["rest", "light", "exercise"], "limit": 1},
        ).build()
        assert fn(ctx("rest"), ctx("light"))
        assert not fn(ctx("rest"), ctx("exercise"))
        assert not fn(ctx("rest"), ctx("unknown"))

    def test_compatible(self):
        fn = PredicateSpec(
            name="pairs",
            kind="compatible",
            params={"pairs": [["asleep", "bedroom"]]},
        ).build()
        assert fn(ctx("asleep"), ctx("bedroom"))
        assert not fn(ctx("bedroom"), ctx("asleep"))  # not symmetric

    def test_compatible_symmetric(self):
        fn = PredicateSpec(
            name="pairs",
            kind="compatible",
            params={"pairs": [["a", "b"]], "symmetric": True},
        ).build()
        assert fn(ctx("b"), ctx("a"))

    def test_value_known(self):
        fn = PredicateSpec(
            name="known", kind="value_known", params={"values": ["x", "y"]}
        ).build()
        assert fn(ctx("x"))
        assert not fn(ctx("z"))

    def test_numeric_range(self):
        fn = PredicateSpec(
            name="band",
            kind="numeric_range",
            params={"low": 5.0, "high": 40.0},
        ).build()
        assert fn(ctx(5.0)) and fn(ctx(40.0))
        assert not fn(ctx(4.9)) and not fn(ctx("n/a"))

    def test_build_names_the_callable(self):
        fn = PredicateSpec(name="band", kind="numeric_range").build()
        assert fn.__name__ == "band"


class TestSituationSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SituationSpec(name="s", kind="no-such-kind")

    def test_build_value_is(self):
        situation = SituationSpec(
            name="door-open",
            kind="value_is",
            params={"ctx_type": "door", "value": "open"},
        ).build()
        assert situation.name == "door-open"


class TestWorkloadSpec:
    def test_deterministic_per_seed(self):
        workload = tiny_workload()
        a = workload.generate(0.3, 7)
        b = workload.generate(0.3, 7)
        assert [c.ctx_id for c in a] == [c.ctx_id for c in b]
        assert [c.value for c in a] == [c.value for c in b]
        c = workload.generate(0.3, 8)
        assert [x.ctx_id for x in a] != [x.ctx_id for x in c]

    def test_sorted_unique_and_ground_truth(self):
        stream = tiny_workload().generate(0.3, 7)
        stamps = [c.timestamp for c in stream]
        assert stamps == sorted(stamps)
        ids = [c.ctx_id for c in stream]
        assert len(set(ids)) == len(ids)
        assert any(c.corrupted for c in stream)
        assert any(not c.corrupted for c in stream)

    def test_zero_err_rate_is_clean(self):
        stream = tiny_workload().generate(0.0, 7)
        assert stream and not any(c.corrupted for c in stream)

    def test_phase_values_must_reference_channels(self):
        with pytest.raises(ValueError):
            WorkloadSpec(
                subjects=("a",),
                channels=(
                    ChannelSpec(name="door", states=("open", "closed")),
                ),
                phases=(
                    PhaseSpec(
                        name="p",
                        min_duration=5.0,
                        max_duration=5.0,
                        values=(("ghost", "x"),),
                    ),
                ),
            )

    def test_corruptible_state_channel_needs_states(self):
        with pytest.raises(ValueError):
            ChannelSpec(name="door", states=("only-one",))


class TestScenarioPack:
    def test_portable(self):
        assert tiny_pack().portable
        assert not tiny_pack(workload=None, workload_factory=lambda e, s: []).portable

    def test_build_registry_includes_spec_predicates(self):
        registry = tiny_pack().build_registry()
        assert "meter_in_band" in registry
        assert "same_subject" in registry  # standard registry base

    def test_build_constraints_and_situations(self):
        pack = tiny_pack()
        constraints = pack.build_constraints()
        assert [c.name for c in constraints] == [
            "tiny-meter-band",
            "tiny-meter-step",
        ]
        assert [s.name for s in pack.build_situations()] == ["tiny-door-open"]

    def test_generate_workload_merges_kwargs(self):
        pack = tiny_pack(workload_kwargs={"duration_scale": 0.5})
        short = pack.generate_workload(0.2, 3)
        full = pack.generate_workload(0.2, 3, duration_scale=1.0)
        assert 0 < len(short) < len(full)

    def test_workload_required(self):
        pack = tiny_pack(workload=None)
        with pytest.raises(ValueError):
            pack.generate_workload(0.2, 3)


class TestValidatePack:
    def test_tiny_pack_is_clean(self):
        assert validate_pack(tiny_pack()) == []

    def test_bad_name(self):
        errors = validate_pack(tiny_pack(name="Bad Name"), check_workload=False)
        assert any("kebab-case" in e for e in errors)

    def test_unknown_strategy(self):
        errors = validate_pack(
            tiny_pack(strategies=("drop-bad", "no-such")),
            check_workload=False,
        )
        assert any("unknown strategies" in e for e in errors)

    def test_err_rate_out_of_range(self):
        errors = validate_pack(
            tiny_pack(err_rates=(0.2, 1.5)), check_workload=False
        )
        assert any("outside (0, 1)" in e for e in errors)

    def test_unknown_predicate_in_formula(self):
        from repro.scenarios import ConstraintSpec

        errors = validate_pack(
            tiny_pack(
                constraint_specs=(
                    ConstraintSpec(
                        name="bad",
                        formula="forall m in meter : no_such_pred(m)",
                    ),
                )
            ),
            check_workload=False,
        )
        assert any("unknown predicates" in e for e in errors)

    def test_orphan_constraint_type(self):
        from repro.scenarios import ConstraintSpec

        errors = validate_pack(
            tiny_pack(
                constraint_specs=(
                    ConstraintSpec(
                        name="orphan",
                        formula="forall g in ghost : meter_in_band(g)",
                    ),
                )
            ),
            check_workload=False,
        )
        assert any("no channel produces" in e for e in errors)

    def test_envelope_violation_caught(self):
        from repro.scenarios import MetricsEnvelope

        errors = validate_pack(
            tiny_pack(
                envelope=MetricsEnvelope(
                    min_contexts=10_000, reference_err_rate=0.3
                )
            )
        )
        assert any("envelope requires" in e for e in errors)

    def test_no_constraints_flagged(self):
        errors = validate_pack(
            tiny_pack(constraint_specs=()), check_workload=False
        )
        assert any("no constraints" in e for e in errors)
