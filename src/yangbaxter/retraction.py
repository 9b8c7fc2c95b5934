"""Retraction towers, multipermutation level, and the three permutation
groups of a solution."""

from __future__ import annotations

from collections import namedtuple
from typing import Optional

from .groups import PermGroup, _row_classes, perm_group_closure
from .solution import FiniteSolution


class QuotientSolution(namedtuple("QuotientSolution", "solution projection")):
    solution: FiniteSolution
    projection: tuple[int, ...]  # carrier point -> class index


def _approx_classes(s: FiniteSolution) -> tuple[list[int], list[int]]:
    """(reps, cls) of the approx relation, x ~ y iff sigma_x = sigma_y and
    tau_x = tau_y: the least point of each class in increasing order, and
    each point's class, its position in reps."""
    return _row_classes(list(zip(s.sigma_classes[1], s.tau_classes[1])))


def _quotient(s: FiniteSolution, classes: tuple[list[int], list[int]]) -> QuotientSolution:
    """The solution induced on the (reps, cls) classes of a congruence, each
    class indexed by its position in reps; not verified again, as a
    quotient by a congruence is a solution (a test checks it).  Each class
    of sigma- and tau-rows among the reps is read at those points and
    mapped to classes once."""
    reps, blk = classes

    def mapped(table, row_classes):
        firsts, ids = row_classes[0], [row_classes[1][a] for a in reps]
        image = {c: tuple([blk[table[firsts[c]][b]] for b in reps]) for c in set(ids)}
        return tuple(map(image.__getitem__, ids))

    sigma, tau = mapped(s.sigma, s.sigma_classes), mapped(s.tau, s.tau_classes)
    return QuotientSolution(solution=FiniteSolution(len(reps), sigma, tau), projection=tuple(blk))


def retraction(s: FiniteSolution) -> QuotientSolution:
    """Quotient by the approx relation, classes indexed by their least
    points; it is always a congruence (a test checks it)."""
    return _quotient(s, _approx_classes(s))


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
    """Retract until one point is left or the approx relation is trivial,
    for a solution s.  With red1-red4 that is closed form, using no braid:
    red1, red4 give sigma_x(y) ~ y and red3, red2 tau_x(y) ~ y, so the
    retraction is the projection solution on the r approx classes, and
    r < n for n > 1 (a row moves y into its class, or all rows are the
    identity).  Otherwise each step is retraction(); the loop ends, as each
    step quotients by a relation with a class of two or more points and so
    strictly shrinks the carrier."""
    if s.reductivity.holds:
        sizes = tuple(dict.fromkeys((s.n, len(_approx_classes(s)[0]), 1)))
        return MultipermutationResult(level=len(sizes) - 1, tower_sizes=sizes)
    sizes, current = [s.n], s
    while current.n > 1 and len((classes := _approx_classes(current))[0]) < current.n:
        current = _quotient(current, classes).solution
        sizes.append(current.n)
    level = len(sizes) - 1 if current.n == 1 else None
    return MultipermutationResult(level=level, tower_sizes=tuple(sizes))


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
