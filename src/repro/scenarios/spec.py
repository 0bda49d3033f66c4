"""The :class:`ScenarioPack` spec and its validator.

A pack is the declarative replacement for a bespoke application module:
predicates, constraints (DSL text), situations, a phased workload, a
strategy roster and an expected-metrics envelope, all plain data.  Its
builders (``build_checker`` / ``build_situations`` /
``generate_workload``) are what :class:`~repro.scenarios.runner.PackRunner`
drives, and every experiment -- the Figure 9/10 comparison, the
ablations, the asynchrony and rule sweeps, the report pipeline -- runs
on a pack through it.

Python-registered packs may override any layer with an *escape hatch*
factory (the legacy applications keep their hand-written floor-plan
closures this way, preserving byte-identical golden decisions); a pack
with no escape hatches is *portable* and can round-trip through the
TOML/JSON document form (:mod:`repro.scenarios.serialize`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..constraints.ast import Constraint, Predicate
from ..constraints.builtins import FunctionRegistry, standard_registry
from ..constraints.checker import ConstraintChecker
from ..constraints.parser import parse_constraint
from ..core.context import Context
from ..core.strategy import strategy_names
from ..situations.library import (
    co_located,
    entered,
    left,
    make_situation,
    position_within,
    value_in,
    value_is,
)
from ..situations.situation import Situation
from .predicates import PredicateSpec, freeze_params
from .workload import WorkloadSpec

__all__ = [
    "FULL_ROSTER",
    "SITUATION_KINDS",
    "ConstraintSpec",
    "SituationSpec",
    "MetricsEnvelope",
    "ScenarioPack",
    "validate_pack",
]

#: Every implemented strategy, in report order: the paper's four plus
#: the two extended ones the pack harness folds into each sweep.
FULL_ROSTER: Tuple[str, ...] = (
    "opt-r",
    "drop-bad",
    "drop-latest",
    "drop-all",
    "drop-random",
    "user-specified",
)

#: The paper's controlled error rates (Section 4.1).
DEFAULT_ERR_RATES: Tuple[float, ...] = (0.10, 0.20, 0.30, 0.40)

_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9-]*$")


@dataclass(frozen=True)
class ConstraintSpec:
    """One consistency constraint as DSL text (see ``docs/dsl.md``)."""

    name: str
    formula: str
    description: str = ""

    def build(self) -> Constraint:
        return parse_constraint(
            self.name, self.formula, description=self.description
        )


#: Situation kinds -> the library combinator and its parameter names.
SITUATION_KINDS: Tuple[str, ...] = (
    "value_is",
    "value_in",
    "entered",
    "left",
    "co_located",
    "position_within",
)


@dataclass(frozen=True)
class SituationSpec:
    """One situation as a library-combinator kind plus parameters."""

    name: str
    kind: str
    params: Tuple[Tuple[str, Any], ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in SITUATION_KINDS:
            raise ValueError(
                f"situation {self.name!r} has unknown kind {self.kind!r}; "
                f"known: {', '.join(SITUATION_KINDS)}"
            )
        object.__setattr__(self, "params", freeze_params(self.params))

    def build(self) -> Situation:
        p = {k: v for k, v in self.params}
        subject = p.get("subject")
        if self.kind == "value_is":
            trigger = value_is(p["ctx_type"], p["value"], subject=subject)
        elif self.kind == "value_in":
            trigger = value_in(
                p["ctx_type"], list(p["values"]), subject=subject
            )
        elif self.kind == "entered":
            trigger = entered(p["ctx_type"], p["value"], subject=subject)
        elif self.kind == "left":
            trigger = left(p["ctx_type"], p["value"], subject=subject)
        elif self.kind == "co_located":
            trigger = co_located(
                p["ctx_type"],
                p["subject_a"],
                p["subject_b"],
                max_age=float(p.get("max_age", 30.0)),
            )
        else:  # position_within
            box = tuple(float(v) for v in p["box"])
            trigger = position_within(p["ctx_type"], box, subject=subject)
        return make_situation(self.name, trigger, self.description)


@dataclass(frozen=True)
class MetricsEnvelope:
    """Expected-shape bounds for the pack's reference workload.

    The envelope is what ``repro packs validate`` and the pack test
    suite check a shipped pack against: the reference stream must be
    non-trivial (``min_contexts``), bounded (``max_contexts``), and
    actually inconsistent (``min_raw_mi`` distinct minimal inconsistent
    subsets at ``reference_err_rate``); ``max_residual_ratio`` bounds
    the delivered-stream problematic ratio the *best* strategy may
    leave behind.
    """

    min_contexts: int = 1
    max_contexts: Optional[int] = None
    min_raw_mi: int = 0
    max_residual_ratio: float = 1.0
    reference_err_rate: float = 0.2


@dataclass(frozen=True)
class ScenarioPack:
    """A declarative scenario: everything one workload needs, as data.

    The four ``*_factory`` fields are Python escape hatches for packs
    whose predicates or generators cannot be expressed declaratively
    (the legacy applications); a pack using none of them is
    ``portable`` and serializable.  ``workload_kwargs`` are the default
    keyword arguments of :meth:`generate_workload` (e.g. the small
    stream sizes the golden suite pinned for the legacy apps).
    """

    name: str
    title: str = ""
    description: str = ""
    predicates: Tuple[PredicateSpec, ...] = ()
    constraint_specs: Tuple[ConstraintSpec, ...] = ()
    situation_specs: Tuple[SituationSpec, ...] = ()
    workload: Optional[WorkloadSpec] = None
    strategies: Tuple[str, ...] = FULL_ROSTER
    err_rates: Tuple[float, ...] = DEFAULT_ERR_RATES
    use_window: int = 10
    default_seed: int = 7
    envelope: MetricsEnvelope = field(default_factory=MetricsEnvelope)
    workload_kwargs: Tuple[Tuple[str, Any], ...] = ()
    # -- escape hatches (Python-registered packs only) ----------------------
    registry_factory: Optional[Callable[[], FunctionRegistry]] = None
    constraints_factory: Optional[Callable[[], List[Constraint]]] = None
    situations_factory: Optional[Callable[[], List[Situation]]] = None
    workload_factory: Optional[Callable[..., List[Context]]] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "workload_kwargs", freeze_params(self.workload_kwargs)
        )
        object.__setattr__(self, "predicates", tuple(self.predicates))
        object.__setattr__(
            self, "constraint_specs", tuple(self.constraint_specs)
        )
        object.__setattr__(
            self, "situation_specs", tuple(self.situation_specs)
        )
        object.__setattr__(self, "strategies", tuple(self.strategies))
        object.__setattr__(
            self, "err_rates", tuple(float(e) for e in self.err_rates)
        )

    @property
    def portable(self) -> bool:
        """Whether the pack is pure data (TOML/JSON serializable)."""
        return (
            self.registry_factory is None
            and self.constraints_factory is None
            and self.situations_factory is None
            and self.workload_factory is None
            and self.workload is not None
        )

    # -- the builders PackRunner drives -------------------------------------

    def build_registry(self) -> FunctionRegistry:
        if self.registry_factory is not None:
            return self.registry_factory()
        registry = standard_registry()
        for spec in self.predicates:
            registry.register(spec.name, spec.build())
        return registry

    def build_constraints(self) -> List[Constraint]:
        if self.constraints_factory is not None:
            return self.constraints_factory()
        return [spec.build() for spec in self.constraint_specs]

    def build_checker(
        self, incremental: bool = True, kernels: bool = True
    ) -> ConstraintChecker:
        return ConstraintChecker(
            self.build_constraints(),
            registry=self.build_registry(),
            incremental=incremental,
            kernels=kernels,
        )

    def build_situations(self) -> List[Situation]:
        if self.situations_factory is not None:
            return self.situations_factory()
        return [spec.build() for spec in self.situation_specs]

    def generate_workload(
        self, err_rate: float, seed: int, **kwargs: Any
    ) -> List[Context]:
        merged = {k: v for k, v in self.workload_kwargs}
        merged.update(kwargs)
        if self.workload_factory is not None:
            return self.workload_factory(err_rate, seed, **merged)
        if self.workload is None:
            raise ValueError(
                f"pack {self.name!r} has neither a declarative workload "
                f"nor a workload_factory"
            )
        return self.workload.generate(err_rate, seed, **merged)


def validate_pack(
    pack: ScenarioPack, *, check_workload: bool = True
) -> List[str]:
    """Schema-lint one pack; returns human-readable problems (empty = ok).

    Structural checks are always run; ``check_workload`` additionally
    generates the reference stream and checks it against the envelope
    (skippable because legacy workloads take a moment to simulate).
    """
    errors: List[str] = []
    if not _NAME_RE.match(pack.name or ""):
        errors.append(
            f"pack name {pack.name!r} must be kebab-case ([a-z0-9-])"
        )
    unknown = sorted(set(pack.strategies) - set(strategy_names()))
    if unknown:
        errors.append(f"unknown strategies: {', '.join(unknown)}")
    if not pack.strategies:
        errors.append("strategy roster is empty")
    for rate in pack.err_rates:
        if not 0.0 < rate < 1.0:
            errors.append(f"err_rate {rate} outside (0, 1)")
    if pack.use_window < 0:
        errors.append(f"use_window must be >= 0, got {pack.use_window}")
    env = pack.envelope
    if env.min_contexts < 0:
        errors.append("envelope.min_contexts must be >= 0")
    if env.max_contexts is not None and env.max_contexts < env.min_contexts:
        errors.append("envelope.max_contexts < envelope.min_contexts")
    if not 0.0 < env.reference_err_rate < 1.0:
        errors.append(
            f"envelope.reference_err_rate {env.reference_err_rate} "
            f"outside (0, 1)"
        )

    registry: Optional[FunctionRegistry] = None
    try:
        registry = pack.build_registry()
    except Exception as exc:  # noqa: BLE001 - collecting lint errors
        errors.append(f"registry failed to build: {exc}")
    constraints: List[Constraint] = []
    try:
        constraints = pack.build_constraints()
    except Exception as exc:  # noqa: BLE001
        errors.append(f"constraints failed to build: {exc}")
    if registry is not None:
        for constraint in constraints:
            missing = sorted(
                {
                    node.func
                    for node in constraint.formula.walk()
                    if isinstance(node, Predicate)
                    and node.func not in registry
                }
            )
            if missing:
                errors.append(
                    f"constraint {constraint.name!r} uses unknown "
                    f"predicates: {', '.join(missing)}"
                )
    if not constraints and not errors:
        errors.append("pack defines no constraints")
    try:
        pack.build_situations()
    except Exception as exc:  # noqa: BLE001
        errors.append(f"situations failed to build: {exc}")

    if pack.workload is not None:
        channel_names = {c.name for c in pack.workload.channels}
        for constraint in constraints:
            orphan = sorted(constraint.relevant_types() - channel_names)
            if orphan:
                errors.append(
                    f"constraint {constraint.name!r} quantifies over "
                    f"types no channel produces: {', '.join(orphan)}"
                )

    if check_workload and not errors:
        errors.extend(_check_reference_stream(pack))
    return errors


def _check_reference_stream(pack: ScenarioPack) -> List[str]:
    errors: List[str] = []
    env = pack.envelope
    try:
        stream: Sequence[Context] = pack.generate_workload(
            env.reference_err_rate, pack.default_seed
        )
    except Exception as exc:  # noqa: BLE001
        return [f"reference workload failed to generate: {exc}"]
    if len(stream) < max(env.min_contexts, 1):
        errors.append(
            f"reference stream has {len(stream)} contexts, envelope "
            f"requires >= {max(env.min_contexts, 1)}"
        )
    if env.max_contexts is not None and len(stream) > env.max_contexts:
        errors.append(
            f"reference stream has {len(stream)} contexts, envelope "
            f"allows <= {env.max_contexts}"
        )
    if any(
        a.timestamp > b.timestamp for a, b in zip(stream, stream[1:])
    ):
        errors.append("reference stream is not timestamp-sorted")
    ids = [c.ctx_id for c in stream]
    if len(set(ids)) != len(ids):
        errors.append("reference stream has duplicate ctx_ids")
    if stream and not any(c.corrupted for c in stream):
        errors.append(
            "reference stream has no corrupted contexts at "
            f"err_rate={env.reference_err_rate} (no ground truth to detect)"
        )
    return errors
