"""Equivalences on a solution, congruences, quotient solutions, retraction
towers, multipermutation level, and the three permutation groups."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .groups import PermGroup, perm_group_closure
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


def _sorted_blocks(groups: dict) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted((tuple(sorted(v)) for v in groups.values()), key=lambda b: b[0]))


def relation(s: FiniteSolution, kind: str) -> SolutionPartition:
    """The partition induced by ~ (sim), the mirrored relation (cosim), or both."""
    if kind not in ("sim", "cosim", "approx"):
        raise ValueError(f"unknown relation kind {kind!r}")
    groups: dict[tuple, list[int]] = {}
    for x in range(s.n):
        if kind == "sim":
            key = s.sigma[x]
        elif kind == "cosim":
            key = s.tau[x]
        else:
            key = (s.sigma[x], s.tau[x])
        groups.setdefault(key, []).append(x)
    return SolutionPartition(n=s.n, blocks=_sorted_blocks(groups), kind=kind)


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
    canon = tuple(sorted((tuple(sorted(b)) for b in blocks if b), key=lambda b: b[0]))
    return SolutionPartition(n=s.n, blocks=canon, kind=kind)


def is_congruence(s: FiniteSolution, p: SolutionPartition) -> bool:
    """Compatibility of the partition with sigma, tau and their inverses."""
    blk = p.block_of
    maps = (s.sigma, s.sigma_inv, s.tau, s.tau_inv)
    for block in p.blocks:
        x0 = block[0]
        for x in block[1:]:
            for m in maps:
                r0, r1 = m[x0], m[x]
                if any(blk[r0[y]] != blk[r1[y]] for y in range(s.n)):
                    return False
    for x in range(s.n):
        for m in maps:
            row = m[x]
            for block in p.blocks:
                b0 = blk[row[block[0]]]
                if any(blk[row[y]] != b0 for y in block[1:]):
                    return False
    return True


@dataclass(frozen=True)
class QuotientSolution:
    solution: FiniteSolution
    projection: tuple[int, ...]  # carrier point -> block index


def quotient_solution(s: FiniteSolution, p: SolutionPartition) -> QuotientSolution:
    """Solution induced on the blocks, re-indexed by their minima; not verified
    again, as a quotient by a congruence is a solution (a test checks it)."""
    if not is_congruence(s, p):
        raise ValueError(f"partition {p.blocks} is not a congruence")
    blk = p.block_of
    reps = [block[0] for block in p.blocks]
    sig = tuple(tuple(blk[s.sigma[a][b]] for b in reps) for a in reps)
    ta = tuple(tuple(blk[s.tau[a][b]] for b in reps) for a in reps)
    quotient = FiniteSolution(n=len(reps), sigma=sig, tau=ta)
    return QuotientSolution(solution=quotient, projection=blk)


def retraction(s: FiniteSolution) -> QuotientSolution:
    """Quotient by the approx relation (always a congruence)."""
    return quotient_solution(s, relation(s, "approx"))


@dataclass(frozen=True)
class MultipermutationResult:
    """Outcome of iterating the retraction.

    level is the number of retractions needed to reach a one-element
    solution, or None when the tower stabilizes at a larger size.
    """

    level: Optional[int]
    tower_sizes: tuple[int, ...]

    @property
    def irretractable_tower(self) -> bool:
        return self.level is None

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
    sizes = [s.n]
    current = s
    for _ in range(s.n + 1):
        if current.n == 1:
            return MultipermutationResult(level=len(sizes) - 1, tower_sizes=tuple(sizes))
        p = relation(current, "approx")
        if p.is_trivial():
            return MultipermutationResult(level=None, tower_sizes=tuple(sizes))
        current = quotient_solution(current, p).solution
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
