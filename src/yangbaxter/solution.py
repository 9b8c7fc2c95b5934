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
    Perm,
    _int_table,
    _row_kernel,
    compose,
    identity_perm,
    invert_perm,
)


class Violation(namedtuple("Violation", "check witness")):
    """Why a pair of tables fails to be a solution."""

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

    @cached_property
    def sigma_inv(self) -> tuple[Perm, ...]:
        return tuple(invert_perm(row) for row in self.sigma)

    @cached_property
    def tau_inv(self) -> tuple[Perm, ...]:
        return tuple(invert_perm(row) for row in self.tau)

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
        n, perm = self.n, list(range(self.n))
        rows = list(dict.fromkeys(self.sigma + self.tau))
        if not all(sorted(row) == perm for row in rows):
            return False
        enc, maps, then, join, _ = _row_kernel(rows)
        every = join(enc)
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


def _self_distributive(table: Sequence[Sequence[int]]) -> bool:
    """Whether the rows p_x = table[x] satisfy p_x p_y = p_{p_x(y)} p_x: for
    each x, p_x composed with every row at once against the rows p_x
    composed with each p_{p_x(y)}, n comparisons of n^2-entry rows."""
    return _distributes(_row_kernel(table))


def _distributes(kernel) -> bool:
    """_self_distributive of a table, given its row kernel."""
    rows, maps, then, join, _ = kernel
    every = join(rows)
    return all(
        then(every, maps[x]) == join(map(then, repeat(row), map(maps.__getitem__, row)))
        for x, row in enumerate(rows)
    )


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
    Each is n comparisons of two n^2-entry rows, one per x (or z): the left
    side composes one map with every row joined, the right side joins n
    compositions.  The test suite checks that it agrees with _braid_mismatch.
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
    """validate_tables of tables held as a FiniteSolution of tuple rows."""
    n, sig, ta = s
    if len(ta) != n:
        return Violation("tau-row", ("row count", len(ta), n))
    perm = list(range(n))
    for i, row in enumerate(sig):
        if sorted(row) != perm:
            return Violation("sigma-row", (i,))
    for i, row in enumerate(ta):
        if sorted(row) != perm:
            return Violation("tau-row", (i,))
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
    return all(s.r(x, x) == (x, x) for x in range(s.n))


def is_permutational(s: FiniteSolution) -> bool:
    return (
        all(row == s.sigma[0] for row in s.sigma)
        and all(row == s.tau[0] for row in s.tau)
    )


def is_projection(s: FiniteSolution) -> bool:
    ident = identity_perm(s.n)
    return all(row == ident for row in s.sigma) and all(row == ident for row in s.tau)


def has_lri(s: FiniteSolution) -> bool:
    ident = identity_perm(s.n)
    return all(compose(s.sigma[x], s.tau[x]) == ident for x in range(s.n))


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
    """The four identities, each as n comparisons of composed rows.

    Give each distinct sigma-row the first index that has it, sid[y], and
    each tau-row likewise, tid[y].  Then sigma_{sigma_x(y)} = sigma_y for
    every y says sid o sigma_x = sid, and the other three alike: each
    identity composes sid or tid with every sigma_x or tau_x.
    """
    n = s.n
    ids = [_first_index(s.sigma), _first_index(s.tau)]
    rows, maps, then, *_ = _row_kernel([*ids, *s.sigma, *s.tau])
    sid, tid, sigma_rows, tau_rows = rows[0], rows[1], rows[2:n + 2], rows[n + 2:]
    sid_map, tid_map = maps[0], maps[1]
    return TwoReductivity(
        red1=all(then(row, sid_map) == sid for row in sigma_rows),
        red2=all(then(row, tid_map) == tid for row in tau_rows),
        red3=all(then(row, sid_map) == sid for row in tau_rows),
        red4=all(then(row, tid_map) == tid for row in sigma_rows),
    )


def _first_index(table: Sequence[Sequence[int]]) -> list[int]:
    """For each row of a table, the first index whose row equals it."""
    first: dict = {}
    return [first.setdefault(tuple(row), x) for x, row in enumerate(table)]


def is_left_distributive(s: FiniteSolution) -> bool:
    return _self_distributive(s.sigma)


def is_right_distributive(s: FiniteSolution) -> bool:
    return _self_distributive(s.tau)


def satisfies_condition_star(s: FiniteSolution) -> bool:
    """Both fixed-point conditions: every x is fixed by some sigma_y and some
    tau_y, that is, x is in column x of sigma and of tau."""
    return all(x in col for table in (s.sigma, s.tau) for x, col in enumerate(zip(*table)))


# ---------------------------------------------------------------------------
# Isomorphism


def relabel(s: FiniteSolution, phi: Sequence[int]) -> FiniteSolution:
    """Transport the solution along a bijection of the carrier: the row of
    phi(x) is phi o row_x o phi^-1."""
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


def _sigma_table(value) -> tuple[tuple[int, ...], ...]:
    """The sigma table of outside input; it fixes the carrier size n >= 1."""
    sig = _int_table(value, "sigma")
    if not sig:
        raise ValueError("sigma: empty table, a solution needs at least one element")
    return sig


def solution_from_dict(data: dict) -> FiniteSolution:
    try:
        sigma = data["sigma"]
        tau = data["tau"]
    except KeyError as exc:
        raise ValueError(f"missing key {exc} in solution data") from exc
    sig = _sigma_table(sigma)
    n = data.get("n", len(sig))
    if type(n) is not int or n != len(sig):
        raise ValueError(f"n: declared {n!r} but sigma has {len(sig)} rows")
    return verify(sig, _int_table(tau, "tau", n))


def parse_solution_text(text: str) -> FiniteSolution:
    """Two whitespace-separated n x n integer blocks separated by a blank line
    (a line holding only spaces or tabs counts as blank)."""
    blocks = [b for b in re.split(r"\n[ \t]*\n", text.replace("\r\n", "\n")) if b.strip()]
    if len(blocks) != 2:
        raise ValueError(f"expected 2 blocks separated by a blank line, got {len(blocks)}")
    tables = []
    for field, block in zip(("sigma", "tau"), blocks):
        lines = [line for line in block.strip().splitlines() if line.strip()]
        try:
            tables.append([[int(tok) for tok in line.split()] for line in lines])
        except ValueError:
            raise ValueError(f"{field}: entries must be integers") from None
    sigma = _sigma_table(tables[0])
    return verify(sigma, _int_table(tables[1], "tau", len(sigma)))


def solution_to_text(s: FiniteSolution) -> str:
    def fmt(table):
        return "\n".join(" ".join(str(v) for v in row) for row in table)

    return fmt(s.sigma) + "\n\n" + fmt(s.tau) + "\n"
