"""Equivalences on a solution, congruences, quotient solutions, retraction
towers, multipermutation level, and the three permutation groups."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .groups import PermGroup, _row_kernel, _sorted_blocks, perm_group_closure
from .solution import FiniteSolution


@dataclass(frozen=True)
class SolutionPartition:
    """A partition of a solution's carrier, canonically sorted.

    kind "sim" groups by equal sigma rows, "cosim" by equal tau rows,
    "approx" by both; "custom" is user-supplied.
    """

    n: int
    blocks: tuple[tuple[int, ...], ...]
    kind: str

    @property
    def block_of(self) -> tuple[int, ...]:
        out = [0] * self.n
        for i, block in enumerate(self.blocks):
            for x in block:
                out[x] = i
        return tuple(out)

    def is_trivial(self) -> bool:
        """All singletons."""
        return len(self.blocks) == self.n

    def as_lists(self) -> list[list[int]]:
        """Serialization form: sorted block lists like [[0, 2], [1]]."""
        return [list(b) for b in self.blocks]


def relation(s: FiniteSolution, kind: str) -> SolutionPartition:
    """The partition induced by ~ (sim), the mirrored relation (cosim), or both."""
    keys = {"sim": s.sigma, "cosim": s.tau, "approx": zip(s.sigma, s.tau)}
    if kind not in keys:
        raise ValueError(f"unknown relation kind {kind!r}")
    groups: dict[tuple, list[int]] = {}
    for x, key in enumerate(keys[kind]):
        groups.setdefault(key, []).append(x)
    return SolutionPartition(n=s.n, blocks=_sorted_blocks(groups.values()), kind=kind)


def partition_from_blocks(
    s: FiniteSolution, blocks: Sequence[Sequence[int]], kind: str = "custom"
) -> SolutionPartition:
    seen: set[int] = set()
    for block in blocks:
        for x in block:
            if not 0 <= x < s.n or x in seen:
                raise ValueError(f"blocks are not a partition of 0..{s.n - 1}")
            seen.add(x)
    if len(seen) != s.n:
        raise ValueError("blocks do not cover the carrier")
    return SolutionPartition(n=s.n, blocks=_sorted_blocks(blocks), kind=kind)


def is_congruence(s: FiniteSolution, p: SolutionPartition) -> bool:
    """Compatibility of the partition with sigma, tau and their inverses.

    Each row is mapped through the block map once, as a whole: the mapped
    rows of a block's points must equal its first point's, and each mapped
    row must not change when its argument moves to its block's first point,
    that is, it must be constant on every block.
    """
    n = s.n
    blk = p.block_of
    first = [p.blocks[b][0] for b in blk]
    tables = (s.sigma, s.sigma_inv, s.tau, s.tau_inv)
    rows, maps, then, *_ = _row_kernel([blk, first, *itertools.chain(*tables)])
    to_block, to_first = maps[0], rows[1]
    for t in range(len(tables)):
        at = 2 + t * n
        mapped = [then(rows[at + x], to_block) for x in range(n)]
        for x in range(n):
            if mapped[x] != mapped[first[x]]:
                return False
            if then(then(to_first, maps[at + x]), to_block) != mapped[x]:
                return False
    return True


@dataclass(frozen=True)
class QuotientSolution:
    solution: FiniteSolution
    projection: tuple[int, ...]  # carrier point -> block index


def quotient_solution(s: FiniteSolution, p: SolutionPartition) -> QuotientSolution:
    """Solution induced on the blocks, re-indexed by their minima; raises
    ValueError for a partition that is not a congruence."""
    if not is_congruence(s, p):
        raise ValueError(f"partition {p.blocks} is not a congruence")
    return _quotient(s, p)


def _quotient(s: FiniteSolution, p: SolutionPartition) -> QuotientSolution:
    """quotient_solution for a partition known to be a congruence; not
    verified again, as a quotient by a congruence is a solution (a test
    checks it)."""
    blk = p.block_of
    reps = [block[0] for block in p.blocks]
    sig = tuple(tuple(blk[s.sigma[a][b]] for b in reps) for a in reps)
    ta = tuple(tuple(blk[s.tau[a][b]] for b in reps) for a in reps)
    quotient = FiniteSolution(n=len(reps), sigma=sig, tau=ta)
    return QuotientSolution(solution=quotient, projection=blk)


def retraction(s: FiniteSolution) -> QuotientSolution:
    """Quotient by the approx relation, built without the congruence check:
    it is always a congruence (a test checks it)."""
    return _quotient(s, relation(s, "approx"))


@dataclass(frozen=True)
class MultipermutationResult:
    """Outcome of iterating the retraction.

    level is the number of retractions needed to reach a one-element
    solution, or None when the tower stabilizes at a larger size.
    """

    level: Optional[int]
    tower_sizes: tuple[int, ...]

    @property
    def stabilized_size(self) -> Optional[int]:
        return self.tower_sizes[-1] if self.level is None else None

    def describe(self) -> str:
        if self.level is not None:
            return str(self.level)
        return (
            f"irretractable at level {len(self.tower_sizes) - 1} "
            f"(tower stabilizes at size {self.tower_sizes[-1]})"
        )


def multipermutation_level(s: FiniteSolution) -> MultipermutationResult:
    """Retract until one point is left or the approx relation is trivial;
    each step is retraction(), without a congruence check."""
    sizes = [s.n]
    current = s
    for _ in range(s.n + 1):
        if current.n == 1:
            return MultipermutationResult(level=len(sizes) - 1, tower_sizes=tuple(sizes))
        p = relation(current, "approx")
        if p.is_trivial():
            return MultipermutationResult(level=None, tower_sizes=tuple(sizes))
        current = _quotient(current, p).solution
        sizes.append(current.n)
    raise AssertionError("retraction tower failed to shrink or stabilize")


@dataclass(frozen=True)
class PermutationGroups:
    left: PermGroup    # generated by the sigma rows
    right: PermGroup   # generated by the tau rows
    full: PermGroup    # generated by both


def permutation_groups(s: FiniteSolution) -> PermutationGroups:
    return PermutationGroups(
        left=perm_group_closure(s.sigma, s.n),
        right=perm_group_closure(s.tau, s.n),
        full=perm_group_closure(s.sigma + s.tau, s.n),
    )
