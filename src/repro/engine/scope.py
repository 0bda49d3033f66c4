"""Scope analysis: partition constraints into independent shards.

A consistency constraint can only relate contexts of the types it
quantifies over (:meth:`Constraint.relevant_types`).  Two constraints
therefore interact only when their quantified type sets overlap --
discarding a context of a type neither quantifies cannot change either
constraint's violations.  Union-find over the "shares a type" relation
yields *scope groups*: sets of constraints (with their types) that are
mutually independent of every other group.

Each group must live on one shard, but distinct groups can be resolved
on distinct shards without changing any resolution outcome.  Groups
are packed onto the requested number of shards with a deterministic
longest-processing-time heuristic, weighting a group by its constraint
and type counts (a proxy for its checking cost).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from ..constraints.ast import Constraint

__all__ = ["UnionFind", "ScopeGroup", "ScopePartition", "partition_constraints"]


class UnionFind:
    """Disjoint-set forest over hashable items (path halving + rank)."""

    def __init__(self) -> None:
        self._parent: Dict[object, object] = {}
        self._rank: Dict[object, int] = {}

    def add(self, item: object) -> None:
        if item not in self._parent:
            self._parent[item] = item
            self._rank[item] = 0

    def find(self, item: object) -> object:
        self.add(item)
        parent = self._parent
        while parent[item] is not item:
            parent[item] = parent[parent[item]]
            item = parent[item]
        return item

    def union(self, a: object, b: object) -> object:
        """Merge the sets of ``a`` and ``b``; returns the new root."""
        ra, rb = self.find(a), self.find(b)
        if ra is rb:
            return ra
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1
        return ra

    def groups(self) -> List[List[object]]:
        """All disjoint sets, each sorted, sorted by their first item."""
        by_root: Dict[object, List[object]] = {}
        for item in self._parent:
            by_root.setdefault(self.find(item), []).append(item)
        out = [sorted(members, key=repr) for members in by_root.values()]
        out.sort(key=lambda members: repr(members[0]))
        return out


@dataclass(frozen=True)
class ScopeGroup:
    """One independent scope: constraints coupled through shared types."""

    constraints: Tuple[Constraint, ...]
    ctx_types: FrozenSet[str]

    @property
    def weight(self) -> int:
        """Estimated relative checking cost of the group."""
        return len(self.constraints) + len(self.ctx_types)


@dataclass(frozen=True)
class ScopePartition:
    """Assignment of scope groups (hence types) to shards.

    ``shard_constraints[i]`` is the constraint set of shard ``i``;
    ``type_to_shard`` maps every quantified context type to its owning
    shard.  Types no constraint quantifies are absent -- the router
    spreads those by stable hashing.
    """

    shards: int
    groups: Tuple[ScopeGroup, ...]
    shard_constraints: Tuple[Tuple[Constraint, ...], ...]
    type_to_shard: Dict[str, int] = field(default_factory=dict)

    @property
    def independent_scopes(self) -> int:
        return len(self.groups)

    def shard_of_type(self, ctx_type: str) -> int:
        """Owning shard of ``ctx_type``, or -1 when unconstrained."""
        return self.type_to_shard.get(ctx_type, -1)


def _scope_groups(constraints: Sequence[Constraint]) -> List[ScopeGroup]:
    """Union-find the constraints into independent scope groups."""
    uf = UnionFind()
    for constraint in constraints:
        uf.add(constraint.name)
        for ctx_type in constraint.relevant_types():
            # Types are first-class union-find members so that two
            # constraints never mentioned together but sharing a type
            # still coalesce.  Prefix type keys to avoid colliding with
            # constraint names.
            uf.union(constraint.name, ("type", ctx_type))

    by_name = {c.name: c for c in constraints}
    groups: List[ScopeGroup] = []
    for members in uf.groups():
        names = sorted(m for m in members if isinstance(m, str))
        types = frozenset(
            m[1] for m in members if isinstance(m, tuple) and m[0] == "type"
        )
        if not names:
            continue
        groups.append(
            ScopeGroup(
                constraints=tuple(by_name[n] for n in names),
                ctx_types=types,
            )
        )
    # Deterministic order: heaviest first, ties by first constraint name.
    groups.sort(key=lambda g: (-g.weight, g.constraints[0].name))
    return groups


def partition_constraints(
    constraints: Iterable[Constraint], shards: int
) -> ScopePartition:
    """Partition ``constraints`` into at most ``shards`` shards.

    Deterministic: the same constraint set and shard count always
    produce the same assignment (required so a ledger replay in another
    process attributes every context to the shard that recorded it).
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    constraint_list = list(constraints)
    names = [c.name for c in constraint_list]
    if len(set(names)) != len(names):
        raise ValueError("constraint names must be unique for sharding")
    groups = _scope_groups(constraint_list)

    # LPT packing: heaviest group onto the currently lightest shard.
    loads = [0] * shards
    shard_lists: List[List[Constraint]] = [[] for _ in range(shards)]
    type_to_shard: Dict[str, int] = {}
    for group in groups:
        target = min(range(shards), key=lambda i: (loads[i], i))
        loads[target] += group.weight
        shard_lists[target].extend(group.constraints)
        for ctx_type in group.ctx_types:
            type_to_shard[ctx_type] = target

    return ScopePartition(
        shards=shards,
        groups=tuple(groups),
        shard_constraints=tuple(tuple(lst) for lst in shard_lists),
        type_to_shard=type_to_shard,
    )
