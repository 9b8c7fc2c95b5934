"""Equivalences on a solution, congruences, quotient solutions, retraction
towers, multipermutation level, and the three permutation groups."""

from __future__ import annotations

import itertools
from collections import namedtuple
from typing import Optional, Sequence

from .groups import PermGroup, _row_kernel, _sorted_blocks, perm_group_closure
from .solution import FiniteSolution


class SolutionPartition(namedtuple("SolutionPartition", "n blocks")):
    """A partition of a solution's carrier, canonically sorted."""

    n: int
    blocks: tuple[tuple[int, ...], ...]

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


def relation(s: FiniteSolution, kind: str) -> SolutionPartition:
    """The partition by equal sigma rows (kind "sim"), equal tau rows
    ("cosim"), or both ("approx"), read off the rows' classes."""
    sid, tid = s.sigma_classes[1], s.tau_classes[1]
    keys = {"sim": sid, "cosim": tid, "approx": zip(sid, tid)}
    if kind not in keys:
        raise ValueError(f"unknown relation kind {kind!r}")
    groups: dict[object, list[int]] = {}
    for x, key in enumerate(keys[kind]):
        groups.setdefault(key, []).append(x)
    return SolutionPartition(n=s.n, blocks=_sorted_blocks(groups.values()))


def partition_from_blocks(s: FiniteSolution, blocks: Sequence[Sequence[int]]) -> SolutionPartition:
    seen: set[int] = set()
    for block in blocks:
        for x in block:
            if not 0 <= x < s.n or x in seen:
                raise ValueError(f"blocks are not a partition of 0..{s.n - 1}")
            seen.add(x)
    if len(seen) != s.n:
        raise ValueError("blocks do not cover the carrier")
    return SolutionPartition(n=s.n, blocks=_sorted_blocks(blocks))


def is_congruence(s: FiniteSolution, p: SolutionPartition) -> bool:
    """Compatibility of the partition with sigma, tau and their inverses.

    Each row is mapped through the block map once, as a whole: the mapped
    rows of a block's points must equal its first point's, and each mapped
    row must not change when its argument moves to its block's first point,
    that is, it must be constant on every block.  The inverses need no
    check: a bijection of a finite carrier mapping blocks into blocks
    permutes them, so its inverse maps blocks by the inverse block map.
    A partition of another carrier is not a congruence.
    """
    n = s.n
    if p.n != n:
        return False
    blk = p.block_of
    first = [p.blocks[b][0] for b in blk]
    tables = (s.sigma, s.tau)
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


class QuotientSolution(namedtuple("QuotientSolution", "solution projection")):
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
    checks it).  Each class of sigma- and tau-rows among the blocks' first
    points is read at those points and mapped to blocks once."""
    blk = p.block_of
    reps = [block[0] for block in p.blocks]

    def mapped(table, classes):
        firsts, ids = classes[0], [classes[1][a] for a in reps]
        image = {c: tuple([blk[table[firsts[c]][b]] for b in reps]) for c in set(ids)}
        return tuple(map(image.__getitem__, ids))

    sigma, tau = mapped(s.sigma, s.sigma_classes), mapped(s.tau, s.tau_classes)
    return QuotientSolution(solution=FiniteSolution(len(reps), sigma, tau), projection=blk)


def retraction(s: FiniteSolution) -> QuotientSolution:
    """Quotient by the approx relation, built without the congruence check:
    it is always a congruence (a test checks it)."""
    return _quotient(s, relation(s, "approx"))


class MultipermutationResult(namedtuple("MultipermutationResult", "level tower_sizes")):
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
    each step is retraction(), without a congruence check.  The loop ends,
    as each step quotients by a relation with a block of two or more
    points and so strictly shrinks the carrier."""
    sizes, current = [s.n], s
    while current.n > 1 and not (p := relation(current, "approx")).is_trivial():
        current = _quotient(current, p).solution
        sizes.append(current.n)
    level = len(sizes) - 1 if current.n == 1 else None
    return MultipermutationResult(level=level, tower_sizes=tuple(sizes))


def _reductive_level(s: FiniteSolution) -> MultipermutationResult:
    """multipermutation_level of a solution, in closed form with red1-red4,
    using no braid: red1, red4 give sigma_x(y) ~ y and red3, red2
    tau_x(y) ~ y, so the retraction is the projection solution on the r
    approx classes, and r < n for n > 1 (a row moves y into its class, or
    all rows are the identity)."""
    if not s.reductivity.holds:
        return multipermutation_level(s)
    sizes = tuple(dict.fromkeys((s.n, len(set(zip(s.sigma_classes[1], s.tau_classes[1]))), 1)))
    return MultipermutationResult(level=len(sizes) - 1, tower_sizes=sizes)


class PermutationGroups(namedtuple("PermutationGroups", "left right full")):
    left: PermGroup    # generated by the sigma rows
    right: PermGroup   # generated by the tau rows
    full: PermGroup    # generated by both


def permutation_groups(s: FiniteSolution) -> PermutationGroups:
    return PermutationGroups(
        left=perm_group_closure(s.sigma, s.n),
        right=perm_group_closure(s.tau, s.n),
        full=perm_group_closure(s.sigma + s.tau, s.n),
    )
