"""Finite skew left braces: two group structures on one carrier linked by
the brace law a o (b . c) = (a o b) . a^-1 . (a o c).

The lambda and rho translation families, the associated solution, opposite
and bi-skew braces, ideals, socle series, and the reductivity profile that
brace reports are read from.
"""

from __future__ import annotations

import json
from collections import namedtuple
from functools import cached_property
from itertools import repeat
from typing import Optional, Sequence

from .groups import (
    FiniteGroup,
    Perm,
    _coset_quotient,
    _first_difference,
    _generators,
    _int_table,
    _row_kernel,
    center,
    compose,
    cyclic_group,
    direct_product_group,
    finite_group,
    identity_perm,
    is_normal,
)
from .retraction import MultipermutationResult, multipermutation_level
from .solution import FiniteSolution, TwoReductivity


class BraceViolation(namedtuple("BraceViolation", "check witness")):
    check: str
    witness: tuple

    def __str__(self) -> str:
        return f"{self.check} fails at {self.witness}"


class BraceError(ValueError):
    def __init__(self, violation: BraceViolation):
        super().__init__(str(violation))
        self.violation = violation


class SkewBrace(namedtuple("SkewBrace", "dot circle")):
    dot: FiniteGroup
    circle: FiniteGroup

    @property
    def n(self) -> int:
        return self.dot.n

    @property
    def id(self) -> int:
        return self.dot.id

    @cached_property
    def lambdas(self) -> tuple[Perm, ...]:
        """lambda_a(b) = a^-1 . (a o b); each an automorphism of (B, .)."""
        dot_rows, circ_rows = self.dot.table, self.circle.table
        return tuple(compose(dot_rows[ai], circ_rows[a]) for a, ai in enumerate(self.dot.inv))

    @cached_property
    def rhos(self) -> tuple[Perm, ...]:
        """rho_y(x) = circle-inverse of lambda_x(y), composed with x o y."""
        ct, cinv, n = self.circle.table, self.circle.inv, self.n
        lams = self.lambdas
        return tuple(
            tuple([ct[ct[cinv[lams[x][y]]][x]][y] for x in range(n)])
            for y in range(n)
        )

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "dot": [list(row) for row in self.dot.table],
            "circle": [list(row) for row in self.circle.table],
        }


def _brace_law_holds(dot: FiniteGroup, circ: FiniteGroup) -> bool:
    """Whether a o (b . c) = (a o b) . a^-1 . (a o c) for all a, b, c.

    With lambda_a(b) = a^-1 . (a o b), the two sides are a . lambda_a(b . c)
    and a . lambda_a(b) . lambda_a(c), so the law at (a, b, c) says
    lambda_a(b . c) = lambda_a(b) . lambda_a(c).  A map of a group to itself
    satisfies that for all b, c once it does for all c and each b in a
    generating set (groups._generators), by induction on words; so per
    generator g, the rows of lambda_a o dot_g joined over a against those
    of dot_{lambda_a(g)} o lambda_a.
    """
    dot_rows, dot_maps, then, join, _ = _row_kernel(dot.table)
    circ_rows = _row_kernel(circ.table)[0]
    lams = map(then, circ_rows, [dot_maps[ai] for ai in dot.inv])
    lam_rows, lam_maps, *_ = _row_kernel(list(lams))
    return all(
        join(map(then, repeat(dot_rows[g]), lam_maps))
        == join(map(then, lam_rows, [dot_maps[lam[g]] for lam in lam_rows]))
        for g in _generators(dot.table, dot.id)
    )


def _brace_law_failure(dot: FiniteGroup, circ: FiniteGroup) -> Optional[tuple[int, int, int]]:
    """First triple (a, b, c), in lex order, where a o (b . c) differs from
    (a o b) . a^-1 . (a o c); None when the brace law holds, and only a
    failed _brace_law_holds scans the pairs."""
    if _brace_law_holds(dot, circ):
        return None
    # per pair, the maps c -> a o (b . c) and c -> (a o b) . a^-1 . (a o c)
    # are circ_a o dot_b and dot_{(a o b) . a^-1} o circ_a, on table rows
    dt, ct = dot.table, circ.table
    dot_rows, dot_maps, then, *_ = _row_kernel(dt)
    circ_rows, circ_maps, *_ = _row_kernel(ct)
    for a, ai in enumerate(dot.inv):
        row_a, circ_a, map_a = ct[a], circ_rows[a], circ_maps[a]
        for b in range(dot.n):
            lhs = then(dot_rows[b], map_a)
            rhs = then(circ_a, dot_maps[dt[row_a[b]][ai]])
            if lhs != rhs:
                return a, b, _first_difference(lhs, rhs)
    return None


def verify_brace(
    dot_table: Sequence[Sequence[int]],
    circle_table: Sequence[Sequence[int]],
) -> SkewBrace:
    """Check both tables are groups with one neutral element and that the
    brace law holds on all triples."""
    try:
        dot = finite_group(dot_table)
    except ValueError as exc:
        raise BraceError(BraceViolation("dot-group", (str(exc),))) from exc
    try:
        circ = finite_group(circle_table)
    except ValueError as exc:
        raise BraceError(BraceViolation("circle-group", (str(exc),))) from exc
    if dot.n != circ.n:
        raise BraceError(BraceViolation("carrier", (dot.n, circ.n)))
    if dot.id != circ.id:
        raise BraceError(BraceViolation("neutral-element", (dot.id, circ.id)))
    triple = _brace_law_failure(dot, circ)
    if triple is not None:
        raise BraceError(BraceViolation("brace-law", triple))
    return SkewBrace(dot=dot, circle=circ)


def brace_from_dict(data: dict) -> SkewBrace:
    try:
        dot, circle = data["dot"], data["circle"]
    except KeyError as exc:
        raise ValueError(f"missing key {exc} in brace data") from exc
    dot = _int_table(dot, "dot")
    if not dot:
        raise ValueError("dot: empty table, a brace needs at least one element")
    n = data.get("n", len(dot))
    if type(n) is not int or n != len(dot):
        raise ValueError(f"n: declared {n!r} but dot has {len(dot)} rows")
    return verify_brace(dot, _int_table(circle, "circle", len(dot)))


def dump_brace_catalog(entries, stream) -> None:
    """JSON-lines, one {"name", "n", "dot", "circle"} record per brace."""
    for name, b in entries:
        record = {"name": name, **b.to_dict()}
        stream.write(json.dumps(record, separators=(",", ":")) + "\n")


def load_brace_catalog(stream) -> list[tuple[str, SkewBrace]]:
    out = []
    for line in stream:
        if not line.strip():
            continue
        data = json.loads(line)
        out.append((data.get("name", ""), brace_from_dict(data)))
    return out


def associated_solution(b: SkewBrace) -> FiniteSolution:
    """The solution (B, lambda, rho); involutive exactly for abelian dot.

    Built without verification: the map of a skew brace is a solution
    (Guarnieri and Vendramin, Math. Comp. 86, 2017).
    """
    return FiniteSolution(n=b.n, sigma=b.lambdas, tau=b.rhos)


def opposite_brace(b: SkewBrace) -> SkewBrace:
    """Replace the dot group by its opposite; yields the inverse solution.
    Not verified again: the opposite is a skew brace (a test checks it)."""
    return SkewBrace(dot=b.dot.opposite(), circle=b.circle)


def is_biskew(b: SkewBrace) -> bool:
    """Whether (B, o, .) is a skew left brace as well, by the definition: the
    brace law with the roles of the two groups swapped (both groups are
    already valid).

    Equivalently lambda is a dot anti-homomorphism (Childs, New York J.
    Math. 25, 2019), which holds iff the associated solution satisfies red3,
    or the associated solution is left distributive; the test suite checks
    all three.  Brace reports read bi-skewness off red3 and do not call this.
    """
    return _brace_law_holds(b.circle, b.dot)


# ---------------------------------------------------------------------------
# Ideals, socle, nilpotency


class Ideal(namedtuple("Ideal", "brace elements")):
    brace: SkewBrace
    elements: tuple[int, ...]


def is_ideal(b: SkewBrace, elements: Sequence[int]) -> bool:
    """Normal in both groups and stable under every lambda_a."""
    elems = set(elements)
    if not is_normal(b.dot, elems) or not is_normal(b.circle, elems):
        return False
    return all(elems.issuperset([lam[x] for x in elems]) for lam in b.lambdas)


def socle(b: SkewBrace) -> Ideal:
    """Soc(B) = {a : a o b = a . b = b . a for all b}, an ideal.

    It equals Ker lambda .cap. Ker rho and Ker lambda .cap. Z(B, .); the test
    suite checks both.
    """
    dt, ct = b.dot.table, b.circle.table
    return Ideal(brace=b, elements=tuple(a for a in center(b.dot) if ct[a] == dt[a]))


def quotient_brace(b: SkewBrace, ideal: Sequence[int]) -> tuple[SkewBrace, tuple[int, ...]]:
    """Quotient by an ideal; cosets re-indexed by their minima.

    Not verified again: the quotient is a skew brace, and the dot and circle
    cosets of an ideal agree, so both groups index them alike; the test
    suite checks both.
    """
    elems = set(ideal)
    if not is_ideal(b, elems):
        raise ValueError("subset is not an ideal")
    dot, proj = _coset_quotient(b.dot, elems)
    circ, _ = _coset_quotient(b.circle, elems)
    return SkewBrace(dot=dot, circle=circ), proj


class SocleSeries(namedtuple("SocleSeries", "quotients socles nilpotency_class")):
    quotients: tuple[SkewBrace, ...]       # B_0 = B, B_1, ...
    socles: tuple[Ideal, ...]              # socles[i] = Soc(B_i)
    nilpotency_class: Optional[int]

    @property
    def is_nilpotent(self) -> bool:
        return self.nilpotency_class is not None

    @property
    def stabilized(self) -> Optional[SkewBrace]:
        """The repeating quotient when the series fails to reach size 1."""
        return None if self.is_nilpotent else self.quotients[-1]

    def describe(self) -> str:
        if self.is_nilpotent:
            return f"nilpotent of class {self.nilpotency_class}"
        return f"not nilpotent (series stabilizes at size {self.quotients[-1].n})"


def socle_series(b: SkewBrace) -> SocleSeries:
    series = [b]
    socles = []
    current = b
    for _ in range(b.n + 1):
        socles.append(socle(current))
        if current.n == 1:
            return SocleSeries(
                quotients=tuple(series), socles=tuple(socles),
                nilpotency_class=len(series) - 1,
            )
        soc = set(socles[-1].elements)
        if len(soc) == 1:
            return SocleSeries(
                quotients=tuple(series), socles=tuple(socles), nilpotency_class=None
            )
        # quotient_brace without its ideal check: the socle is an ideal
        current = SkewBrace(
            dot=_coset_quotient(current.dot, soc)[0],
            circle=_coset_quotient(current.circle, soc)[0],
        )
        series.append(current)
    raise AssertionError("socle series failed to shrink or stabilize")


class KernelReport(namedtuple(
    "KernelReport", "ker_lambda ker_rho ker_lambda_is_ideal ker_rho_is_ideal"
)):
    ker_lambda: tuple[int, ...]
    ker_rho: tuple[int, ...]
    ker_lambda_is_ideal: bool
    ker_rho_is_ideal: bool


def kernel_ideals(b: SkewBrace) -> KernelReport:
    ident = identity_perm(b.n)
    ker_lam = tuple(a for a in range(b.n) if b.lambdas[a] == ident)
    ker_rho = tuple(a for a in range(b.n) if b.rhos[a] == ident)
    return KernelReport(
        ker_lambda=ker_lam,
        ker_rho=ker_rho,
        ker_lambda_is_ideal=is_ideal(b, ker_lam),
        ker_rho_is_ideal=is_ideal(b, ker_rho),
    )


# ---------------------------------------------------------------------------
# Reductivity profile


def _le2(level: Optional[int]) -> bool:
    """A level or class, None when never reached, is at most 2."""
    return level is not None and level <= 2


class ReductivityProfile(namedtuple(
    "ReductivityProfile", "solution reductivity multipermutation series"
)):
    """The results a brace report is read from.  The paper's equivalences
    give the rest: red1, red2, red3 and red4 hold iff lambda, rho, lambda
    and rho respectively are dot homomorphisms, homomorphisms,
    anti-homomorphisms and anti-homomorphisms; all four hold iff the class
    and the level are at most 2; and red3 holds iff b is bi-skew."""

    solution: FiniteSolution             # the associated solution
    reductivity: TwoReductivity          # its four identities
    multipermutation: MultipermutationResult
    series: SocleSeries                  # of the brace

    red1 = property(lambda self: self.reductivity.red1)
    red2 = property(lambda self: self.reductivity.red2)
    red3 = property(lambda self: self.reductivity.red3)
    red4 = property(lambda self: self.reductivity.red4)
    all_four = property(lambda self: self.reductivity.holds)

    multipermutation_le2 = property(lambda self: _le2(self.multipermutation.level))
    nilpotent_le2 = property(lambda self: _le2(self.series.nilpotency_class))


def reductivity_profile(b: SkewBrace) -> ReductivityProfile:
    """The associated solution, its four 2-reductivity identities and its
    multipermutation level, and the socle series of b.

    Each is computed once and on its own.  What they are equivalent to (the
    homomorphism properties of lambda and rho, bi-skewness, the class of the
    opposite brace) is not computed again; the test suite checks those
    equivalences against their definitions.
    """
    s = associated_solution(b)
    return ReductivityProfile(
        solution=s,
        reductivity=s.reductivity,
        multipermutation=multipermutation_level(s),
        series=socle_series(b),
    )


# ---------------------------------------------------------------------------
# Builders


def trivial_brace(g: FiniteGroup) -> SkewBrace:
    return verify_brace(g.table, g.table)


def almost_trivial_brace(g: FiniteGroup) -> SkewBrace:
    return verify_brace(g.table, g.opposite().table)


def product_brace(b1: SkewBrace, b2: SkewBrace) -> SkewBrace:
    dot = direct_product_group(b1.dot, b2.dot)
    circ = direct_product_group(b1.circle, b2.circle)
    return verify_brace(dot.table, circ.table)


def _twisted_table(n2: int) -> list[list[int]]:
    """x . y = x + (-1)^x y mod n2."""
    return [
        [(x + (1 if x % 2 == 0 else -1) * y) % n2 for y in range(n2)]
        for x in range(n2)
    ]


def z2n_brace(n: int) -> SkewBrace:
    """On Z_2n (n odd): dot is x + (-1)^x y, circle is addition mod 2n."""
    if n < 1 or n % 2 == 0:
        raise ValueError(f"n must be odd and positive, got {n}")
    return verify_brace(_twisted_table(2 * n), cyclic_group(2 * n).table)


def z2n_dual_brace(n: int) -> SkewBrace:
    """The dual: dot is addition mod 2n, circle is x + (-1)^x y."""
    if n < 1 or n % 2 == 0:
        raise ValueError(f"n must be odd and positive, got {n}")
    return verify_brace(cyclic_group(2 * n).table, _twisted_table(2 * n))


def dihedral_example_brace() -> SkewBrace:
    """Abelian-type brace on Z_2^3 whose circle group is dihedral of order 8.

    Elements are indexed 4*eps + i for (eps, i) in Z_2 x Z_4, standing for
    eps*f + e_i with e_0 = 000, e_1 = 100, e_2 = 010, e_3 = 001, f = 111.
    The circle product is (eps f + e_i) o (zeta f + e_j) =
    (eps + zeta) f + e_{i + 3^eps j}.  rho_{f+e_1} fails to be an
    endomorphism of the dot group.
    """
    vecs = {0: 0b000, 1: 0b100, 2: 0b010, 3: 0b001}
    to_vec = {}
    for i, v in vecs.items():
        to_vec[i] = v
        to_vec[4 + i] = v ^ 0b111
    from_vec = {v: k for k, v in to_vec.items()}
    dot = [[from_vec[to_vec[a] ^ to_vec[b]] for b in range(8)] for a in range(8)]
    circ = [[0] * 8 for _ in range(8)]
    for a in range(8):
        eps, i = divmod(a, 4)
        for b in range(8):
            zeta, j = divmod(b, 4)
            circ[a][b] = 4 * ((eps + zeta) % 2) + (i + (3 ** eps) * j) % 4
    return verify_brace(dot, circ)
