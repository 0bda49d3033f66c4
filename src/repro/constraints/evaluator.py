"""Full (non-incremental) evaluation of constraint formulas with links.

The evaluator computes, for each formula, a truth value plus the
*satisfaction links* and *violation links* that explain it, following
the link-generation semantics of [16]/[17] (after xlinkit [11]):

* a true predicate yields one satisfaction link over its bound
  contexts; a false one yields one violation link;
* ``not`` swaps the two link sets;
* ``and``: violation links are the union of the conjuncts' violation
  links; satisfaction links are the cross-join (every way of
  satisfying both);
* ``or`` is dual; ``implies`` desugars to ``(not left) or right``;
* ``forall v in T``: each element of the domain that falsifies the
  body contributes violation links extended with ``v``'s binding; a
  satisfied universal yields one empty satisfaction link (per-element
  satisfaction products would explode combinatorially and are never
  needed to *explain a violation*, which is what inconsistency
  detection consumes);
* ``exists v in T``: each witness contributes satisfaction links; a
  violated existential yields one *empty* violation link -- the
  violation is attributable to the enclosing bindings (nothing in the
  domain supports them), not to every domain element.  E.g. a checkout
  read with no earlier shelf read yields the inconsistency {read}, not
  one inconsistency per unrelated read in the pool.

The top-level violation links of a constraint are the paper's context
inconsistencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..core.context import Context
from .ast import (
    And,
    Constraint,
    Existential,
    Formula,
    Implies,
    Not,
    Or,
    Predicate,
    Universal,
    Var,
)
from .builtins import FunctionRegistry
from .compile import CompiledKernel, compile_kernel
from .links import EMPTY_LINK, Link, LinkSet, cross_join

__all__ = ["EvalResult", "Evaluator", "Domain"]

#: A domain provider: maps a context type to its current extent.
Domain = Callable[[str], Sequence[Context]]


@dataclass(frozen=True)
class EvalResult:
    """Truth value plus explanatory links."""

    value: bool
    sat_links: LinkSet
    vio_links: LinkSet

    def negate(self) -> "EvalResult":
        return EvalResult(not self.value, self.vio_links, self.sat_links)


_TRUE = EvalResult(True, frozenset({EMPTY_LINK}), frozenset())
_FALSE = EvalResult(False, frozenset(), frozenset({EMPTY_LINK}))


class Evaluator:
    """Evaluates formulas over a context domain with link generation.

    Parameters
    ----------
    registry:
        Predicate function registry.
    max_links:
        Safety cap on the size of any link set produced by a cross
        join; prevents pathological formulas from exploding.  The cap
        is generous (default 4096) and never binds in the paper's
        workloads.
    use_kernels:
        When true (the default), :meth:`truth` dispatches to compiled
        kernels (:mod:`repro.constraints.compile`) for in-fragment
        formulas; out-of-fragment formulas -- and all link generation
        -- use the interpreter below regardless.
    """

    def __init__(
        self,
        registry: FunctionRegistry,
        max_links: int = 4096,
        use_kernels: bool = True,
    ) -> None:
        self._registry = registry
        self._max_links = max_links
        self._use_kernels = use_kernels
        self._kernel_cache: Dict[Formula, Optional[CompiledKernel]] = {}
        self._kernel_version = -1

    # -- public API -----------------------------------------------------------

    def evaluate(
        self,
        formula: Formula,
        domain: Domain,
        env: Optional[Mapping[str, Context]] = None,
    ) -> EvalResult:
        """Evaluate ``formula`` with variables bound per ``env``."""
        return self._eval(formula, domain, dict(env) if env else {})

    def truth(
        self,
        formula: Formula,
        domain: Domain,
        env: Optional[Mapping[str, Context]] = None,
    ) -> bool:
        """Truth value only, skipping all link generation.

        Much cheaper than :meth:`evaluate`; detection hot paths check
        truth first and generate links only for actual violations.
        """
        if self._use_kernels:
            kernel = self.kernel_for(formula)
            if kernel is not None:
                bound = env or {}
                return kernel.fn(
                    *[bound[name] for name in kernel.var_names], domain
                )
        return self._truth(formula, domain, dict(env) if env else {})

    def kernel_for(self, formula: Formula) -> Optional[CompiledKernel]:
        """The cached compiled kernel for ``formula``, if compilable.

        Kernel parameters follow ``sorted(formula.free_variables())``.
        Returns ``None`` for out-of-fragment formulas, for unhashable
        ones (a :class:`Literal` holding e.g. a list defeats the
        cache), and always when kernels are disabled.  The cache is
        flushed whenever the registry version moves, so replaced
        predicates -- and late registrations that bring a formula into
        the fragment -- take effect.
        """
        if not self._use_kernels or not isinstance(formula, Formula):
            # Non-Formula garbage falls through to the interpreter,
            # which raises the canonical "cannot evaluate" TypeError.
            return None
        if self._kernel_version != self._registry.version:
            self._kernel_cache.clear()
            self._kernel_version = self._registry.version
        try:
            return self._kernel_cache[formula]
        except KeyError:
            pass
        except TypeError:
            return None
        names = tuple(sorted(formula.free_variables()))
        kernel = compile_kernel(formula, names, self._registry)
        self._kernel_cache[formula] = kernel
        return kernel

    def _truth(
        self, formula: Formula, domain: Domain, env: Dict[str, Context]
    ) -> bool:
        if isinstance(formula, Predicate):
            fn = self._registry.resolve(formula.func)
            args = [
                env[a.name] if isinstance(a, Var) else a.value
                for a in formula.args
            ]
            return bool(fn(*args))
        if isinstance(formula, Not):
            return not self._truth(formula.operand, domain, env)
        if isinstance(formula, And):
            return self._truth(formula.left, domain, env) and self._truth(
                formula.right, domain, env
            )
        if isinstance(formula, Or):
            return self._truth(formula.left, domain, env) or self._truth(
                formula.right, domain, env
            )
        if isinstance(formula, Implies):
            return not self._truth(formula.left, domain, env) or self._truth(
                formula.right, domain, env
            )
        if isinstance(formula, Universal):
            for element in domain(formula.ctx_type):
                env[formula.var] = element
                if not self._truth(formula.body, domain, env):
                    env.pop(formula.var, None)
                    return False
            env.pop(formula.var, None)
            return True
        if isinstance(formula, Existential):
            for element in domain(formula.ctx_type):
                env[formula.var] = element
                if self._truth(formula.body, domain, env):
                    env.pop(formula.var, None)
                    return True
            env.pop(formula.var, None)
            return False
        raise TypeError(f"cannot evaluate formula node {formula!r}")

    def check(self, constraint: Constraint, domain: Domain) -> EvalResult:
        """Evaluate a closed constraint over the domain."""
        return self._eval(constraint.formula, domain, {})

    def violations(
        self, constraint: Constraint, domain: Domain
    ) -> List[FrozenSet[Context]]:
        """The distinct context sets violating the constraint now.

        Empty links (violations not attributable to specific contexts,
        e.g. a failed ``exists`` over an empty domain) are skipped: an
        inconsistency must involve at least one context.
        """
        if self.truth(constraint.formula, domain):
            return []
        result = self.check(constraint, domain)
        if result.value:
            return []
        seen = set()
        out: List[FrozenSet[Context]] = []
        for link in result.vio_links:
            contexts = link.contexts()
            if contexts and contexts not in seen:
                seen.add(contexts)
                out.append(contexts)
        return out

    # -- recursive evaluation --------------------------------------------------

    def _eval(
        self, formula: Formula, domain: Domain, env: Dict[str, Context]
    ) -> EvalResult:
        if isinstance(formula, Predicate):
            return self._eval_predicate(formula, env)
        if isinstance(formula, Not):
            return self._eval(formula.operand, domain, env).negate()
        if isinstance(formula, And):
            return self._eval_and(formula, domain, env)
        if isinstance(formula, Or):
            return self._eval_or(formula, domain, env)
        if isinstance(formula, Implies):
            desugared = Or(Not(formula.left), formula.right)
            return self._eval(desugared, domain, env)
        if isinstance(formula, Universal):
            return self._eval_universal(formula, domain, env)
        if isinstance(formula, Existential):
            return self._eval_existential(formula, domain, env)
        raise TypeError(f"cannot evaluate formula node {formula!r}")

    def _eval_predicate(
        self, formula: Predicate, env: Mapping[str, Context]
    ) -> EvalResult:
        fn = self._registry.resolve(formula.func)
        args = []
        bindings: List[Tuple[str, Context]] = []
        for term in formula.args:
            if isinstance(term, Var):
                try:
                    ctx = env[term.name]
                except KeyError:
                    raise NameError(
                        f"unbound variable {term.name!r} in predicate "
                        f"{formula.func!r}"
                    ) from None
                args.append(ctx)
                bindings.append((term.name, ctx))
            else:
                args.append(term.value)
        value = bool(fn(*args))
        link = Link(frozenset(bindings))
        if value:
            return EvalResult(True, frozenset({link}), frozenset())
        return EvalResult(False, frozenset(), frozenset({link}))

    def _eval_and(
        self, formula: And, domain: Domain, env: Dict[str, Context]
    ) -> EvalResult:
        left = self._eval(formula.left, domain, env)
        right = self._eval(formula.right, domain, env)
        value = left.value and right.value
        if value:
            sat = self._capped(cross_join(left.sat_links, right.sat_links))
            return EvalResult(True, sat, frozenset())
        # Violation explained by whichever conjunct(s) failed.
        vio = frozenset()
        if not left.value:
            vio |= left.vio_links
        if not right.value:
            vio |= right.vio_links
        return EvalResult(False, frozenset(), self._capped(vio))

    def _eval_or(
        self, formula: Or, domain: Domain, env: Dict[str, Context]
    ) -> EvalResult:
        left = self._eval(formula.left, domain, env)
        right = self._eval(formula.right, domain, env)
        value = left.value or right.value
        if not value:
            vio = self._capped(cross_join(left.vio_links, right.vio_links))
            return EvalResult(False, frozenset(), vio)
        sat = frozenset()
        if left.value:
            sat |= left.sat_links
        if right.value:
            sat |= right.sat_links
        return EvalResult(True, self._capped(sat), frozenset())

    def _eval_universal(
        self, formula: Universal, domain: Domain, env: Dict[str, Context]
    ) -> EvalResult:
        extent = domain(formula.ctx_type)
        vio: set = set()
        all_true = True
        for element in extent:
            env[formula.var] = element
            sub = self._eval(formula.body, domain, env)
            if not sub.value:
                all_true = False
                for link in sub.vio_links:
                    vio.add(link.extend(formula.var, element))
        env.pop(formula.var, None)
        if all_true:
            return _TRUE
        return EvalResult(False, frozenset(), self._capped(frozenset(vio)))

    def _eval_existential(
        self, formula: Existential, domain: Domain, env: Dict[str, Context]
    ) -> EvalResult:
        extent = domain(formula.ctx_type)
        sat: set = set()
        any_true = False
        for element in extent:
            env[formula.var] = element
            sub = self._eval(formula.body, domain, env)
            if sub.value:
                any_true = True
                for link in sub.sat_links:
                    sat.add(link.extend(formula.var, element))
        env.pop(formula.var, None)
        if any_true:
            return EvalResult(True, self._capped(frozenset(sat)), frozenset())
        # Violated: no element supports the enclosing bindings; the
        # explanation is the (empty) link -- outer connectives supply
        # the culpable bindings.
        return _FALSE

    def _capped(self, links: LinkSet) -> LinkSet:
        if len(links) <= self._max_links:
            return links
        # Deterministic truncation: keep the smallest links (they make
        # the most precise inconsistencies).
        kept = sorted(links, key=lambda l: (len(l), repr(l)))[: self._max_links]
        return frozenset(kept)
