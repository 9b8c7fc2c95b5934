"""Finite set-theoretic solutions of the braid relation.

A solution is stored as two n x n tables with the row convention fixed so
that ``sigma[x]`` is the permutation acting on the second argument of r and
``tau[y]`` the permutation acting on the first: r(x, y) = (sigma[x][y],
tau[y][x]).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .groups import Perm, _int_table, compose, identity_perm, invert_perm, is_perm


@dataclass(frozen=True)
class Violation:
    """Why a pair of tables fails to be a solution."""

    check: str          # "sigma-row" | "tau-row" | "bijectivity" | "birack:1/2/3"
    witness: tuple      # row index, colliding pairs, or the failing triple

    def __str__(self) -> str:
        return f"{self.check} fails at {self.witness}"


class VerificationError(ValueError):
    def __init__(self, violation: Violation):
        super().__init__(str(violation))
        self.violation = violation


@dataclass(frozen=True)
class FiniteSolution:
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


def validate_tables(
    sigma: Sequence[Sequence[int]],
    tau: Sequence[Sequence[int]],
) -> Optional[Violation]:
    """Full solution check; returns None when the tables pass.

    Non-degeneracy, bijectivity of r on pairs, and the braid relation on all
    triples, checked once by composing r directly; a failure is reported as
    "birack:k" with k the first mismatched coordinate.  That the three birack
    identities give the same verdict is a theorem the test suite checks.
    """
    n = len(sigma)
    if len(tau) != n:
        return Violation("tau-row", ("row count", len(tau), n))
    sig = tuple(tuple(row) for row in sigma)
    ta = tuple(tuple(row) for row in tau)
    for i, row in enumerate(sig):
        if not is_perm(row, n):
            return Violation("sigma-row", (i,))
    for i, row in enumerate(ta):
        if not is_perm(row, n):
            return Violation("tau-row", (i,))
    images = {}
    for x in range(n):
        for y in range(n):
            img = (sig[x][y], ta[y][x])
            if img in images:
                return Violation("bijectivity", (images[img], (x, y)))
            images[img] = (x, y)
    braid = _braid_mismatch(sig, ta, n)
    if braid is not None:
        coord, triple = braid
        return Violation(f"birack:{coord}", triple)
    return None


def verify(
    sigma: Sequence[Sequence[int]],
    tau: Sequence[Sequence[int]],
) -> FiniteSolution:
    violation = validate_tables(sigma, tau)
    if violation is not None:
        raise VerificationError(violation)
    return FiniteSolution(
        n=len(sigma),
        sigma=tuple(tuple(row) for row in sigma),
        tau=tuple(tuple(row) for row in tau),
    )


def projection_solution(n: int) -> FiniteSolution:
    ident = identity_perm(n)
    return FiniteSolution(n=n, sigma=(ident,) * n, tau=(ident,) * n)


def permutational_solution(f: Sequence[int], g: Sequence[int]) -> FiniteSolution:
    """Lyubashenko solution sigma_x = f, tau_y = g; requires fg = gf."""
    n = len(f)
    return verify((tuple(f),) * n, (tuple(g),) * n)


def inverse_solution(s: FiniteSolution) -> FiniteSolution:
    """Invert r as a bijection of X^2 and repackage as a solution."""
    n = s.n
    sig = [[0] * n for _ in range(n)]
    ta = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            u, v = s.r(x, y)
            sig[u][v] = x
            ta[v][u] = y
    return verify(sig, ta)


# ---------------------------------------------------------------------------
# Predicates


def is_involutive(s: FiniteSolution) -> bool:
    return all(
        s.r(*s.r(x, y)) == (x, y) for x in range(s.n) for y in range(s.n)
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


@dataclass(frozen=True)
class TwoReductivity:
    """Per-identity breakdown of the four 2-reductivity identities."""

    red1: bool  # sigma_{sigma_x(y)} = sigma_y
    red2: bool  # tau_{tau_x(y)} = tau_y
    red3: bool  # sigma_{tau_x(y)} = sigma_y
    red4: bool  # tau_{sigma_x(y)} = tau_y

    @property
    def holds(self) -> bool:
        return self.red1 and self.red2 and self.red3 and self.red4


def is_2reductive(s: FiniteSolution) -> TwoReductivity:
    n, sig, ta = s.n, s.sigma, s.tau
    red = [True] * 4
    for x in range(n):
        for y in range(n):
            if red[0] and sig[sig[x][y]] != sig[y]:
                red[0] = False
            if red[1] and ta[ta[x][y]] != ta[y]:
                red[1] = False
            if red[2] and sig[ta[x][y]] != sig[y]:
                red[2] = False
            if red[3] and ta[sig[x][y]] != ta[y]:
                red[3] = False
    return TwoReductivity(*red)


def is_left_distributive(s: FiniteSolution) -> bool:
    return all(
        compose(s.sigma[x], s.sigma[y]) == compose(s.sigma[s.sigma[x][y]], s.sigma[x])
        for x in range(s.n)
        for y in range(s.n)
    )


def is_right_distributive(s: FiniteSolution) -> bool:
    return all(
        compose(s.tau[x], s.tau[y]) == compose(s.tau[s.tau[x][y]], s.tau[x])
        for x in range(s.n)
        for y in range(s.n)
    )


def satisfies_condition_star(s: FiniteSolution) -> bool:
    """Both fixed-point conditions: every x is fixed by some sigma_y and some tau_y."""
    for x in range(s.n):
        if not any(s.sigma[y][x] == x for y in range(s.n)):
            return False
        if not any(s.tau[y][x] == x for y in range(s.n)):
            return False
    return True


@dataclass(frozen=True)
class InjectivityReport:
    """The two necessary conditions for injectivity of a 2-reductive solution.

    Failing either proves the solution is not injective; passing both proves
    nothing (they are necessary conditions only).
    """

    diagonal_ok: bool
    order_ok: bool

    @property
    def possibly_injective(self) -> bool:
        return self.diagonal_ok and self.order_ok


def injectivity_necessary_checks(s: FiniteSolution) -> InjectivityReport:
    from .unions import injectivity_checks, solution_to_union

    return injectivity_checks(solution_to_union(s).union)


# ---------------------------------------------------------------------------
# Isomorphism


def relabel(s: FiniteSolution, phi: Sequence[int]) -> FiniteSolution:
    """Transport the solution along a bijection of the carrier."""
    n = s.n
    sig = [[0] * n for _ in range(n)]
    ta = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            sig[phi[x]][phi[y]] = phi[s.sigma[x][y]]
            ta[phi[x]][phi[y]] = phi[s.tau[x][y]]
    return FiniteSolution(
        n=n,
        sigma=tuple(map(tuple, sig)),
        tau=tuple(map(tuple, ta)),
    )


def canonical_key(s: FiniteSolution) -> tuple:
    """Minimum of (sigma, tau) over all relabelings; equal iff isomorphic.

    Brute force over all n! bijections; intended for small n only.
    """
    best = None
    for phi in itertools.permutations(range(s.n)):
        t = relabel(s, phi)
        key = (t.sigma, t.tau)
        if best is None or key < best:
            best = key
    return best


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
    try:
        sigma = data["sigma"]
        tau = data["tau"]
    except KeyError as exc:
        raise ValueError(f"missing key {exc} in solution data") from exc
    sig = _int_table(sigma, "sigma")
    n = data.get("n", len(sig))
    if type(n) is not int or n != len(sig):
        raise ValueError(f"n: declared {n!r} but sigma has {len(sig)} rows")
    return verify(sig, _int_table(tau, "tau", n))


def parse_solution_text(text: str) -> FiniteSolution:
    """Two whitespace-separated n x n integer blocks separated by a blank line."""
    blocks = [b for b in text.replace("\r\n", "\n").split("\n\n") if b.strip()]
    if len(blocks) != 2:
        raise ValueError(f"expected 2 blocks separated by a blank line, got {len(blocks)}")
    tables = []
    for field, block in zip(("sigma", "tau"), blocks):
        lines = [line for line in block.strip().splitlines() if line.strip()]
        try:
            tables.append([[int(tok) for tok in line.split()] for line in lines])
        except ValueError:
            raise ValueError(f"{field}: entries must be integers") from None
    sigma = _int_table(tables[0], "sigma")
    return verify(sigma, _int_table(tables[1], "tau", len(sigma)))


def solution_to_text(s: FiniteSolution) -> str:
    def fmt(table):
        return "\n".join(" ".join(str(v) for v in row) for row in table)

    return fmt(s.sigma) + "\n\n" + fmt(s.tau) + "\n"
