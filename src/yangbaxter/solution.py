"""Finite set-theoretic solutions of the braid relation.

A solution is stored as two n x n tables with the row convention fixed so
that ``sigma[x]`` is the permutation acting on the second argument of r and
``tau[y]`` the permutation acting on the first: r(x, y) = (sigma[x][y],
tau[y][x]).
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import cached_property
from itertools import repeat
from typing import Optional, Sequence

from .groups import (
    RowKernel,
    _non_permutation,
    _row_classes,
    _row_kernel,
    _table_pair,
    compose,
    identity_perm,
    invert_perm,
)


class Violation(namedtuple("Violation", "check witness")):
    """Why a pair of tables fails to be a solution, or a skew brace
    (brace.BraceViolation, with checks such as "brace-law")."""

    check: str          # "sigma-row" | "tau-row" | "bijectivity" | "birack:1/2/3"
    witness: tuple      # row index, colliding pairs, or the failing triple

    def __str__(self) -> str:
        return f"{self.check} fails at {self.witness}"


class VerificationError(ValueError):
    def __init__(self, violation: Violation):
        super().__init__(str(violation))
        self.violation = violation


class FiniteSolution(namedtuple("FiniteSolution", "n sigma tau")):
    n: int
    sigma: tuple[tuple[int, ...], ...]
    tau: tuple[tuple[int, ...], ...]

    def r(self, x: int, y: int) -> tuple[int, int]:
        return self.sigma[x][y], self.tau[y][x]

    # which rows are equal (groups._row_classes), for every check that asks
    sigma_classes = cached_property(lambda self: _row_classes(self.sigma))
    tau_classes = cached_property(lambda self: _row_classes(self.tau))

    @cached_property
    def distinct_rows(self) -> tuple[Optional[int], tuple]:
        """(i, rows): the first distinct sigma- then tau-row that is not a permutation
        of 0..n-1, or None, and those rows as the class kernel encodes them (_non_permutation)."""
        (sig_reps, _), (tau_reps, _) = self.sigma_classes, self.tau_classes
        return _non_permutation([*map(self.sigma.__getitem__, sig_reps),
                                 *map(self.tau.__getitem__, tau_reps)], self.n)

    @cached_property
    def class_kernel(self) -> RowKernel:
        """The row kernel of [the sigma- and tau-rows' classes, the distinct
        sigma-rows, the distinct tau-rows], for is_2reductive and commuting_rows."""
        return _row_kernel([self.sigma_classes[1], self.tau_classes[1], *self.distinct_rows[1]])

    @cached_property
    def reductivity(self) -> TwoReductivity:
        """is_2reductive of the tables, computed once per solution: verify,
        the report and solution_to_union share it."""
        return is_2reductive(self)

    @cached_property
    def commuting_rows(self) -> bool:
        """Whether the distinct sigma- and tau-rows are permutations that
        commute pairwise, in O(d) kernel calls for d rows; with red1-red4,
        whether the tables are a solution (validate_tables).

        With the rows' columns joined, so that entry k * d + j is g_j(k),
        composing g_i after them reads g_i g_j(k) there, and joining the
        columns in the order g_i(0), g_i(1), ... reads g_j g_i(k).
        """
        if self.distinct_rows[0] is not None:
            return False
        n = self.n
        (_, _, *rows), (_, _, *maps), then, join, _ = self.class_kernel
        every = join(rows)
        cols = [every[k::n] for k in range(n)]
        by_cols = join(cols)
        return all(then(by_cols, m) == join(map(cols.__getitem__, row))
                   for row, m in zip(rows, maps))

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "sigma": [list(row) for row in self.sigma],
            "tau": [list(row) for row in self.tau],
        }


def _braid_mismatch(sigma, tau, n: int) -> Optional[tuple[int, tuple[int, int, int]]]:
    """First triple (lex order) where the two braid composites differ.

    Returns (coordinate, triple); the mismatched coordinate identifies which
    of the three birack identities is broken.
    """
    for x in range(n):
        for y in range(n):
            for z in range(n):
                # (id x r)(r x id)(id x r)
                b, c = sigma[y][z], tau[z][y]
                a, b = sigma[x][b], tau[b][x]
                b, c = sigma[b][c], tau[c][b]
                # (r x id)(id x r)(r x id)
                p, q = sigma[x][y], tau[y][x]
                q, s = sigma[q][z], tau[z][q]
                p, q = sigma[p][q], tau[q][p]
                if a != p:
                    return 1, (x, y, z)
                if b != q:
                    return 2, (x, y, z)
                if c != s:
                    return 3, (x, y, z)
    return None


def _pair_collision(sigma, tau, n: int) -> Optional[Violation]:
    """The first two pairs (lex order) with the same image under r, as a
    bijectivity violation; None if r is injective."""
    images = {}
    for x in range(n):
        for y in range(n):
            img = (sigma[x][y], tau[y][x])
            if img in images:
                return Violation("bijectivity", (images[img], (x, y)))
            images[img] = (x, y)
    return None


def _distributes(kernel) -> bool:
    """Whether the rows p_x of a table, given its RowKernel, satisfy
    p_x p_y = p_{p_x(y)} p_x.  The identity depends on x only through p_x,
    so x runs over one point per distinct row: p_x composed with every row
    at once against the d compositions p_w p_x, w over the d distinct rows,
    laid out over the n points y by one join (when d = n, a point is its own
    class).  That is d comparisons of n^2-entry rows, by d(d + 1) compositions."""
    rows, maps, then, join, _ = kernel
    reps, cls = _row_classes(rows)
    rep_maps, every = [maps[w] for w in reps], join(rows)
    for x in reps:
        after = list(map(then, repeat(rows[x]), rep_maps))
        ids = rows[x] if len(reps) == len(rows) else map(cls.__getitem__, rows[x])
        if then(every, maps[x]) != join(map(after.__getitem__, ids)):
            return False
    return True


def _derived_rows(s_kernel, tau_cols) -> list:
    """The derived rows R_u(x) = sigma_u(tau_{sigma_x^-1(u)}(x)) of tables with
    permutation sigma-rows, encoded by the row kernel, in 3n kernel calls;
    s_kernel is the row kernel of sigma and tau_cols the columns of tau.

    With the column c_x(y) = tau_y(x), M_x = c_x o sigma_x^-1 has
    M_x(u) = tau_{sigma_x^-1(u)}(x); its transpose is T_u(x) = M_x(u), read
    as a stride of the joined M's, and R_u = sigma_u o T_u.  As
    r(x, sigma_x^-1(u)) = (u, T_u(x)), r is bijective iff every T_u, so
    every R_u, is a permutation.
    """
    s_rows, s_maps, then, join, invert = s_kernel
    n = len(s_rows)
    c_maps = _row_kernel(tau_cols)[1]
    m = join(map(then, map(invert, s_rows), c_maps))
    return [then(m[u::n], s_maps[u]) for u in range(n)]


def _braids(s_kernel, tau_cols, r_kernel) -> bool:
    """Whether tables with permutation rows satisfy the braid relation, by
    the derived-rack criterion for left non-degenerate maps (Lebed and
    Vendramin, Adv. Math. 304, 2017).  s_kernel and r_kernel are the row
    kernels of sigma and of the derived rows (_derived_rows)
    R_y(x) = sigma_y(tau_{sigma_x^-1(y)}(x)), and tau_cols the columns of
    tau; r is a solution iff
      (i)   sigma_x sigma_y = sigma_{sigma_x(y)} sigma_{tau_y(x)},
      (ii)  R_z R_y = R_{R_z(y)} R_z,
      (iii) sigma_x R_z = R_{sigma_x(z)} sigma_x.
    Each is a comparison of two n^2-entry rows per x (or z), one per
    distinct R_z for (ii) (_distributes): the left side composes one map
    with every row joined, the right side joins n compositions.  The test
    suite checks that it agrees with _braid_mismatch.
    """
    s_rows, s_maps, then, join, _ = s_kernel
    r_rows, r_maps, *_ = r_kernel
    s_every, r_every = join(s_rows), join(r_rows)
    s_row, s_map, r_map = s_rows.__getitem__, s_maps.__getitem__, r_maps.__getitem__
    return (
        all(then(s_every, s_maps[x]) == join(map(then, map(s_row, col), map(s_map, sig_x)))
            for x, (sig_x, col) in enumerate(zip(s_rows, tau_cols)))
        and _distributes(r_kernel)
        and all(then(r_every, s_maps[x]) == join(map(then, repeat(sig_x), map(r_map, sig_x)))
                for x, sig_x in enumerate(s_rows))
    )


def _violation(s: FiniteSolution) -> Optional[Violation]:
    """validate_tables of tables held as a FiniteSolution of tuple rows;
    each distinct row is checked once (FiniteSolution.distinct_rows), and
    its first index is the witness."""
    n, sig, ta = s
    if len(ta) != n:
        return Violation("tau-row", ("row count", len(ta), n))
    if (i := s.distinct_rows[0]) is not None:
        sig_reps = s.sigma_classes[0]
        if i < len(sig_reps):
            return Violation("sigma-row", (sig_reps[i],))
        return Violation("tau-row", (s.tau_classes[0][i - len(sig_reps)],))
    if s.reductivity.holds and s.commuting_rows:
        return None
    s_kernel, tau_cols = _row_kernel(sig), list(zip(*ta))
    derived = _derived_rows(s_kernel, tau_cols)
    if not all(len(set(row)) == n for row in derived):
        return _pair_collision(sig, ta, n)
    if not _braids(s_kernel, tau_cols, _row_kernel(derived)):
        coord, triple = _braid_mismatch(sig, ta, n)
        return Violation(f"birack:{coord}", triple)
    return None


def validate_tables(
    sigma: Sequence[Sequence[int]],
    tau: Sequence[Sequence[int]],
) -> Optional[Violation]:
    """Full solution check; returns None when the tables pass.

    Non-degeneracy (every row a permutation), bijectivity of r on pairs, and
    the braid relation.  Tables that satisfy red1-red4 (is_2reductive) are
    a solution iff their distinct rows commute pairwise
    (FiniteSolution.commuting_rows): the identities turn the braid relation
    into sigma_x sigma_y = sigma_y sigma_x, tau_y tau_z = tau_z tau_y and
    sigma_x tau_z = tau_z sigma_x, and red4 makes r injective, as
    (u, v) = r(x, y) gives tau_u = tau_y, so x = tau_u^-1(v) and
    y = sigma_x^-1(u).  Other tables, and 2-reductive ones whose rows do
    not commute, take O(n) calls of the row kernel: the verdicts come from
    the derived rows (_derived_rows), r being bijective iff each is a
    permutation, and from the derived-rack criterion (_braids).  Only a
    failed verdict runs a witness scan over pairs or triples:
    "bijectivity" names the first two pairs, in lex order, with the same
    image (_pair_collision), and "birack:k" the first triple, in lex order,
    where composing r directly mismatches, with k the first mismatched
    coordinate (_braid_mismatch).  That the fast verdicts and the scans agree
    are theorems the test suite checks.
    """
    return _violation(_tables(sigma, tau))


def _tables(sigma: Sequence[Sequence[int]], tau: Sequence[Sequence[int]]) -> FiniteSolution:
    """The tables as a FiniteSolution of tuple rows, not yet verified."""
    return FiniteSolution(len(sigma), tuple(map(tuple, sigma)), tuple(map(tuple, tau)))


def verify(
    sigma: Sequence[Sequence[int]],
    tau: Sequence[Sequence[int]],
) -> FiniteSolution:
    s = _tables(sigma, tau)
    violation = _violation(s)
    if violation is not None:
        raise VerificationError(violation)
    return s


def projection_solution(n: int) -> FiniteSolution:
    ident = identity_perm(n)
    return FiniteSolution(n=n, sigma=(ident,) * n, tau=(ident,) * n)


def permutational_solution(f: Sequence[int], g: Sequence[int]) -> FiniteSolution:
    """Lyubashenko solution sigma_x = f, tau_y = g; requires fg = gf."""
    n = len(f)
    return verify((tuple(f),) * n, (tuple(g),) * n)


def inverse_solution(s: FiniteSolution) -> FiniteSolution:
    """Invert r as a bijection of X^2 and repackage as a solution; not
    verified again, as the inverse of a solution is one (a test checks it)."""
    n = s.n
    sig = [[0] * n for _ in range(n)]
    ta = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            u, v = s.r(x, y)
            sig[u][v] = x
            ta[v][u] = y
    return FiniteSolution(n=n, sigma=tuple(map(tuple, sig)), tau=tuple(map(tuple, ta)))


# ---------------------------------------------------------------------------
# Predicates


def is_involutive(s: FiniteSolution) -> bool:
    """r^2 = id iff sigma_{sigma_x(y)}(tau_y(x)) = x for all x, y.

    That is the first coordinate of r(r(x, y)) being x; the second then
    follows: with r^2(x, y) = (x, w), r(x, w) = r^2(r(x, y)) has first
    coordinate sigma_x(y), so w = y.  One list per x, along sigma_x and
    column x of tau, stopping at the first x that fails.
    """
    sigma, n = s.sigma, s.n
    return all(
        [sigma[u][v] for u, v in zip(sigma[x], col)] == [x] * n
        for x, col in enumerate(zip(*s.tau))
    )


def is_square_free(s: FiniteSolution) -> bool:
    """r(x, x) = (x, x) for every x; n x n tables of any entries."""
    return all(sig[x] == x == ta[x] for x, sig, ta in zip(range(s.n), s.sigma, s.tau))


def is_permutational(s: FiniteSolution) -> bool:
    return len(s.sigma_classes[0]) <= 1 and len(s.tau_classes[0]) <= 1


def is_projection(s: FiniteSolution) -> bool:
    """Every row is the identity; n x n tables of tuple rows of any entries."""
    ident = identity_perm(s.n)
    return all(row == ident for row in s.sigma) and all(row == ident for row in s.tau)


def has_lri(s: FiniteSolution) -> bool:
    """tau_x = sigma_x^-1 for every x; n x n tables with entries in 0..n-1.
    Tables with LRI have permutation rows, so a row that is not one
    (distinct_rows) fails with no kernel.  Otherwise it holds iff it holds
    at the first point of each sigma-class and tau's class is a function of
    sigma's there: one inverse per sigma-class on the class kernel, then one
    list of class ids."""
    if s.distinct_rows[0] is not None:
        return False
    (_, _, *rows), _, _, _, invert = s.class_kernel
    (reps, sid), tid = s.sigma_classes, s.tau_classes[1]
    return (all(invert(rows[c]) == rows[len(reps) + tid[x]] for c, x in enumerate(reps))
            and [tid[reps[c]] for c in sid] == tid)


class TwoReductivity(namedtuple("TwoReductivity", "red1 red2 red3 red4")):
    """Per-identity breakdown of the four 2-reductivity identities."""

    red1: bool  # sigma_{sigma_x(y)} = sigma_y
    red2: bool  # tau_{tau_x(y)} = tau_y
    red3: bool  # sigma_{tau_x(y)} = sigma_y
    red4: bool  # tau_{sigma_x(y)} = tau_y

    @property
    def holds(self) -> bool:
        return self.red1 and self.red2 and self.red3 and self.red4


def is_2reductive(s: FiniteSolution) -> TwoReductivity:
    """The four identities, each as one comparison of composed rows per
    distinct sigma- or tau-row.

    With sid[y] the class of sigma_y and tid[y] that of tau_y
    (FiniteSolution.sigma_classes, tau_classes), sigma_{sigma_x(y)} = sigma_y
    for every y says sid o sigma_x = sid, and the other three alike: each
    identity composes sid or tid with every distinct sigma- or tau-row
    (FiniteSolution.class_kernel).  It takes n x n tables with entries in 0..n-1,
    permutations or not; an entry outside 0..255 raises the bytes encoding's ValueError.
    """
    (sid, tid, *rows), (sid_map, tid_map, *_), then, *_ = s.class_kernel
    sigma_rows, tau_rows = rows[:len(s.sigma_classes[0])], rows[len(s.sigma_classes[0]):]
    return TwoReductivity(
        red1=all(then(row, sid_map) == sid for row in sigma_rows),
        red2=all(then(row, tid_map) == tid for row in tau_rows),
        red3=all(then(row, sid_map) == sid for row in tau_rows),
        red4=all(then(row, tid_map) == tid for row in sigma_rows),
    )


def is_left_distributive(s: FiniteSolution) -> bool:
    """sigma_x sigma_y = sigma_{sigma_x(y)} sigma_x for a solution s: braid
    identity (i) of _braids makes that sigma_{tau_y(x)} = sigma_x, which is
    red3 (is_2reductive).  The test suite checks both against the definition."""
    return s.reductivity.red3


def is_right_distributive(s: FiniteSolution) -> bool:
    """tau_y tau_x = tau_{tau_y(x)} tau_y for a solution s: the braid
    relation's identity tau_y tau_x = tau_{tau_y(x)} tau_{sigma_x(y)} makes
    that tau_{sigma_x(y)} = tau_y, which is red4."""
    return s.reductivity.red4


def satisfies_condition_star(s: FiniteSolution) -> bool:
    """Both fixed-point conditions: every x is fixed by some sigma_y and some
    tau_y, that is, x is in column x of the distinct sigma- and tau-rows
    (FiniteSolution.sigma_classes, tau_classes), as equal rows fix the same points."""
    tables = ((s.sigma, s.sigma_classes), (s.tau, s.tau_classes))
    return all(x in col for table, (reps, _) in tables
               for x, col in enumerate(zip(*map(table.__getitem__, reps))))


# ---------------------------------------------------------------------------
# Isomorphism


def relabel(s: FiniteSolution, phi: Sequence[int]) -> FiniteSolution:
    """Transport the solution along a bijection of the carrier: the row of
    phi(x) is phi o row_x o phi^-1.  phi's entries must be ints."""
    if not set(map(type, phi)) <= {int} or sorted(phi) != list(range(s.n)):
        raise ValueError(f"phi is not a permutation of 0..{s.n - 1}")
    inv = invert_perm(phi)

    def moved(table):
        return tuple(compose(phi, compose(table[x], inv)) for x in inv)

    return FiniteSolution(n=s.n, sigma=moved(s.sigma), tau=moved(s.tau))


def solutions_isomorphic(
    s1: FiniteSolution, s2: FiniteSolution
) -> Optional[tuple[int, ...]]:
    """Find a bijection phi with phi sigma_x = sigma'_{phi(x)} phi (and tau alike).

    Backtracking with forced-assignment propagation; returns phi or None.
    """
    if s1.n != s2.n:
        return None
    n = s1.n
    phi: list[int] = [-1] * n
    used = [False] * n

    def propagate(stack: list[int]) -> Optional[list[int]]:
        """Close assigned pairs under sigma/tau images; returns new fixes or None."""
        added: list[int] = []
        queue = list(stack)
        while queue:
            x = queue.pop()
            for a in range(n):
                if phi[a] < 0:
                    continue
                for (src, dst) in (
                    (s1.sigma[x][a], s2.sigma[phi[x]][phi[a]]),
                    (s1.sigma[a][x], s2.sigma[phi[a]][phi[x]]),
                    (s1.tau[x][a], s2.tau[phi[x]][phi[a]]),
                    (s1.tau[a][x], s2.tau[phi[a]][phi[x]]),
                ):
                    cur = phi[src]
                    if cur < 0:
                        if used[dst]:
                            _undo(added)
                            return None
                        phi[src] = dst
                        used[dst] = True
                        added.append(src)
                        queue.append(src)
                    elif cur != dst:
                        _undo(added)
                        return None
        return added

    def _undo(added: list[int]) -> None:
        for x in added:
            used[phi[x]] = False
            phi[x] = -1

    def search() -> bool:
        try:
            x = phi.index(-1)
        except ValueError:
            return True
        for u in range(n):
            if used[u]:
                continue
            phi[x] = u
            used[u] = True
            added = propagate([x])
            if added is not None:
                if search():
                    return True
                _undo(added)
            used[u] = False
            phi[x] = -1
        return False

    if search():
        return tuple(phi)
    return None


# ---------------------------------------------------------------------------
# Serialization


def solution_from_dict(data: dict) -> FiniteSolution:
    return verify(*_table_pair(data, "sigma", "tau", "solution"))


def parse_solution_text(text: str) -> FiniteSolution:
    """Two whitespace-separated n x n integer blocks separated by a blank line
    (a line holding only spaces or tabs counts as blank)."""
    blocks = [b for b in re.split(r"\n[ \t]*\n", text.replace("\r\n", "\n")) if b.strip()]
    if len(blocks) != 2:
        raise ValueError(f"expected 2 blocks separated by a blank line, got {len(blocks)}")
    tables = {}
    for field, block in zip(("sigma", "tau"), blocks):
        lines = [line for line in block.strip().splitlines() if line.strip()]
        try:
            tables[field] = [[int(tok) for tok in line.split()] for line in lines]
        except ValueError:
            raise ValueError(f"{field}: entries must be integers") from None
    return verify(*_table_pair(tables, "sigma", "tau", "solution"))


def solution_to_text(s: FiniteSolution) -> str:
    def fmt(table):
        return "\n".join(" ".join(str(v) for v in row) for row in table)

    return fmt(s.sigma) + "\n\n" + fmt(s.tau) + "\n"
