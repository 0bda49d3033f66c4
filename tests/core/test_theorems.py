"""Property-based tests of the paper's reliability theorems (Sec 3.4).

Theorem 1: with Heuristic Rules 1 and 2 holding, every context the
drop-bad strategy discards is corrupted.
Theorem 2: the same with the relaxed Rule 2'.

The rules constrain count values, which evolve as inconsistencies are
resolved; we therefore check them *at each resolution instant* on the
inconsistencies being resolved (exactly the information the strategy's
decision uses) and assert the implication: as long as the rules have
held at every instant so far, no discarded context is expected.

Hypothesis generates adversarial worlds -- arbitrary inconsistency
hypergraphs over corrupted/expected contexts and arbitrary use orders
-- so both the theorem and its preconditions are machine-checked.
"""

from typing import List, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.rules import rule1_holds, rule2_holds, rule2_relaxed_holds
from repro.core.context import Context, ContextState
from repro.core.drop_bad import DropBadStrategy
from repro.core.inconsistency import Inconsistency


def _ctx(index: int, corrupted: bool) -> Context:
    return Context(
        ctx_id=f"x{index:03d}",
        ctx_type="location",
        subject="s",
        value=index,
        timestamp=float(index),
        corrupted=corrupted,
    )


@st.composite
def worlds(draw) -> Tuple[List[Context], List[Set[int]], List[int]]:
    """A random world: contexts, inconsistency member-index sets, and a
    use order.  Biased toward corrupted-heavy inconsistencies so the
    rule preconditions hold often enough to exercise the theorem."""
    n_corrupted = draw(st.integers(min_value=1, max_value=3))
    contexts: List[Context] = [_ctx(i, True) for i in range(n_corrupted)]
    inconsistencies: List[Set[int]] = []
    for corrupted_index in range(n_corrupted):
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            members = {corrupted_index}
            if draw(st.booleans()) and n_corrupted > 1:
                members.add(draw(st.integers(0, n_corrupted - 1)))
            for _ in range(draw(st.integers(min_value=1, max_value=2))):
                contexts.append(_ctx(len(contexts), False))
                members.add(len(contexts) - 1)
            inconsistencies.append(members)
    # A couple of bystander expected contexts.
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        contexts.append(_ctx(len(contexts), False))
    use_order = draw(st.permutations(list(range(len(contexts)))))
    return contexts, inconsistencies, use_order


def _drive(
    contexts: List[Context],
    member_sets: List[Set[int]],
    use_order: List[int],
    discard_on_tie: bool,
) -> None:
    strategy = DropBadStrategy(discard_on_tie=discard_on_tie)

    # Feed contexts in timestamp order; each inconsistency is reported
    # when its last member arrives (as incremental detection would).
    incs = [
        Inconsistency(
            frozenset(contexts[i] for i in members), constraint=f"ic{n}"
        )
        for n, members in enumerate(member_sets)
    ]
    for index, ctx in enumerate(contexts):
        arriving = [
            inc
            for inc, members in zip(incs, member_sets)
            if max(members) == index
        ]
        strategy.on_context_added(ctx, arriving)

    rule2_ok = True
    rule2_relaxed_ok = True
    for index in use_order:
        ctx = contexts[index]
        if strategy.state_of(ctx).is_terminal():
            continue
        for inconsistency in strategy.delta.involving(ctx):
            if not rule1_holds(inconsistency):
                rule2_ok = rule2_relaxed_ok = False
            if not rule2_holds(inconsistency, strategy.delta):
                rule2_ok = False
            if not rule2_relaxed_holds(inconsistency, strategy.delta):
                rule2_relaxed_ok = False
        outcome = strategy.on_context_used(ctx)
        for discarded in outcome.discarded:
            if rule2_relaxed_ok:
                assert discarded.corrupted, (
                    f"drop-bad discarded expected context "
                    f"{discarded.ctx_id} although Rules 1+2' held at "
                    f"every resolution instant (Theorem 2 violated)"
                )
            if rule2_ok:
                assert discarded.corrupted, "Theorem 1 violated"
        # Culprits marked bad under intact rules must be corrupted too:
        # they will be discarded when used, so the theorem covers them.
        for bad in outcome.newly_bad:
            if rule2_relaxed_ok:
                assert bad.corrupted, (
                    f"drop-bad marked expected context {bad.ctx_id} bad "
                    f"although Rules 1+2' held (Theorem 2 violated)"
                )


@settings(max_examples=300, deadline=None)
@given(worlds())
def test_theorems_1_and_2_hold(world):
    contexts, member_sets, use_order = world
    _drive(contexts, member_sets, use_order, discard_on_tie=True)


@settings(max_examples=200, deadline=None)
@given(worlds())
def test_theorems_hold_for_conservative_tie_variant(world):
    contexts, member_sets, use_order = world
    _drive(contexts, member_sets, use_order, discard_on_tie=False)


@settings(max_examples=200, deadline=None)
@given(worlds())
def test_drop_bad_structural_invariants(world):
    """Strategy invariants that hold on EVERY world, rules or not."""
    contexts, member_sets, use_order = world
    strategy = DropBadStrategy()
    incs = [
        Inconsistency(
            frozenset(contexts[i] for i in members), constraint=f"ic{n}"
        )
        for n, members in enumerate(member_sets)
    ]
    involved_ids = {c.ctx_id for members in member_sets for i in members for c in [contexts[i]]}
    for index, ctx in enumerate(contexts):
        arriving = [
            inc
            for inc, members in zip(incs, member_sets)
            if max(members) == index
        ]
        strategy.on_context_added(ctx, arriving)
    for index in use_order:
        ctx = contexts[index]
        if strategy.state_of(ctx).is_terminal():
            continue
        outcome = strategy.on_context_used(ctx)
        # Only contexts that participated in some inconsistency can
        # ever be discarded.
        for discarded in outcome.discarded:
            assert discarded.ctx_id in involved_ids

    # After every context has been used, nothing is tracked or bad.
    assert len(strategy.delta) == 0
    assert strategy.lifecycle.in_state(ContextState.BAD) == []
    assert strategy.lifecycle.in_state(ContextState.UNDECIDED) == []

    # Figure 8: drop-bad never revokes a consistent context.
    for record in strategy.lifecycle.all_records():
        states = [s for s, _ in record.history]
        for earlier, later in zip(states, states[1:]):
            assert not (
                earlier == ContextState.CONSISTENT
                and later == ContextState.INCONSISTENT
            )
