"""Finite skew left braces: two group structures on one carrier linked by
the brace law a o (b . c) = (a o b) . a^-1 . (a o c).

The lambda and rho translation families, the associated solution, opposite
and bi-skew braces, ideals, socle series, and the reductivity profile that
brace reports are read from.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import compress, repeat
from typing import Optional, Sequence

from .groups import (
    FiniteGroup,
    RowKernel,
    _coset_quotient,
    _first_triple,
    _into,
    _row_classes,
    _row_kernel,
    _table_pair,
    cyclic_group,
    direct_product_group,
    finite_group,
    is_normal,
)
from .retraction import MultipermutationResult, multipermutation_level
from .solution import FiniteSolution, TwoReductivity, VerificationError, Violation


BraceViolation = Violation


class BraceError(VerificationError):
    """Raised by verify_brace; a VerificationError, told apart by its type."""


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
    def lambda_kernel(self) -> RowKernel:
        """The row kernel of the lambdas, lambda_a(b) = a^-1 . (a o b), an
        automorphism of (B, .): circle row a, then dot row a^-1, one kernel
        call per a.  Built by the brace law in verify_brace, read by rhos."""
        (_, dot_maps, then, *_), circ = self.dot.table_kernel, self.circle.table_kernel
        return _row_kernel([then(circ.rows[a], dot_maps[i]) for a, i in enumerate(self.dot.inv)])

    lambdas = cached_property(lambda self: tuple(map(tuple, self.lambda_kernel.rows)))
    rhos = cached_property(lambda self: tuple(map(tuple, self.rho_rows)))

    @cached_property
    def rho_rows(self) -> tuple:
        """rho_y(x) = v o x o y, v the circle inverse of w = lambda_x(y)
        (Guarnieri and Vendramin, Math. Comp. 86, 2017).  As x o y = x . w
        and lambda_v(w) = v^-1 . (v o w) = v^-1, that is v . lambda_v(x . w)
        = v . lambda_v(x) . v^-1 = (v o x) . v^-1 =: P_w(x): circle row v,
        then dot column v^-1.  So column x of rho, y -> rho_y(x), is
        Q_x o lambda_x, with Q_x(w) = P_w(x) column x of P.  Columns are
        strided slices of rows joined, padded as maps: 2n compositions, on
        byte or tuple rows, kept encoded (rhos holds them as tuples)."""
        n, (dot_rows, dot_maps, then, join, _) = self.n, self.dot.table_kernel
        pad, every, circ_rows = dot_maps[0][n:], join(dot_rows), self.circle.table_kernel.rows
        right = [every[c::n] + pad for c in self.dot.inv]     # z -> z . c^-1, per c
        p = join([then(circ_rows[v], right[v]) for v in self.circle.inv])
        cols = join([then(lam, p[x::n] + pad) for x, lam in enumerate(self.lambda_kernel.rows)])
        return tuple([cols[y::n] for y in range(n)])

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "dot": [list(row) for row in self.dot.table],
            "circle": [list(row) for row in self.circle.table],
        }


def _brace_law_failure(b: SkewBrace) -> Optional[tuple[int, int, int]]:
    """First triple (a, b, c), in lex order, where a o (b . c) differs from
    (a o b) . a^-1 . (a o c); None when the brace law holds.

    With lambda_a(b) = a^-1 . (a o b), the two sides are a . lambda_a(b . c)
    and a . lambda_a(b) . lambda_a(c), so the law at (a, b, c) says
    lambda_a(b . c) = lambda_a(b) . lambda_a(c): lambda_a o dot_b agrees
    with dot_{lambda_a(b)} o lambda_a at c.  That holds for all b, c once it
    does for all c and each b in the dot group's generating set, by
    induction on words; so the verdict compares the two maps per generator
    b joined over a, and only a failed verdict scans them per a joined over b.
    """
    dot_rows, dot_maps, then, join, _ = b.dot.table_kernel
    lam_rows, lam_maps, *_ = b.lambda_kernel
    if all(
        join(map(then, repeat(dot_rows[g]), lam_maps))
        == join(map(then, lam_rows, [dot_maps[lam[g]] for lam in lam_rows]))
        for g in b.dot._gens
    ):
        return None
    every = join(dot_rows)
    return _first_triple((
        (then(every, lam_maps[a]), join(map(then, repeat(row), [dot_maps[x] for x in row])))
        for a, row in enumerate(lam_rows)
    ), b.n)


def verify_brace(
    dot_table: Sequence[Sequence[int]],
    circle_table: Sequence[Sequence[int]],
) -> SkewBrace:
    """Check both tables are groups with one neutral element and that the
    brace law holds on all triples; the brace returned carries the lambdas
    it was checked with."""
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
    b = SkewBrace(dot=dot, circle=circ)
    triple = _brace_law_failure(b)
    if triple is not None:
        raise BraceError(BraceViolation("brace-law", triple))
    return b


def brace_from_dict(data: dict) -> SkewBrace:
    return verify_brace(*_table_pair(data, "dot", "circle", "brace"))


def associated_solution(b: SkewBrace) -> FiniteSolution:
    """The solution (B, lambda, rho); involutive exactly for abelian dot.

    Built without verification: the map of a skew brace is a solution
    (Guarnieri and Vendramin, Math. Comp. 86, 2017), so its rows are
    permutations; its row classes are seeded from lambda's and rho's bytes.
    """
    s = FiniteSolution(n=b.n, sigma=b.lambdas, tau=b.rhos)
    lam, rho = b.lambda_kernel.rows, b.rho_rows
    sig_cls, tau_cls = _row_classes(lam), _row_classes(rho)
    distinct = [*map(lam.__getitem__, sig_cls[0]), *map(rho.__getitem__, tau_cls[0])]
    vars(s).update(sigma_classes=sig_cls, tau_classes=tau_cls, distinct_rows=(None, distinct))
    return s


def opposite_brace(b: SkewBrace) -> SkewBrace:
    """Replace the dot group by its opposite; yields the inverse solution.
    Not verified again: the opposite is a skew brace (a test checks it)."""
    return SkewBrace(dot=b.dot.opposite(), circle=b.circle)


def is_biskew(b: SkewBrace) -> bool:
    """Whether (B, o, .) is a skew left brace as well, for a verified brace
    b: that holds iff lambda is a dot anti-homomorphism (Childs, New York J.
    Math. 25, 2019), that is iff the associated solution satisfies red3.
    The test suite checks it against the definition, the brace law with the
    roles of the two groups swapped."""
    return associated_solution(b).reductivity.red3


# ---------------------------------------------------------------------------
# Ideals, socle, nilpotency


class Ideal(namedtuple("Ideal", "brace elements")):
    brace: SkewBrace
    elements: tuple[int, ...]


def is_ideal(b: SkewBrace, elements: Sequence[int]) -> bool:
    """Normal in both groups and stable under lambda_a for a in the circle
    group's generating set: the a with lambda_a(I) .subset. I are closed
    under o, as lambda_{a o c} = lambda_a lambda_c, so they are all of the
    finite group (B, o) once they hold its generators."""
    elems = set(elements)
    if not is_normal(b.dot, elems) or not is_normal(b.circle, elems):
        return False
    lam = b.lambda_kernel
    return len(elems) in (1, b.n) or _into(lam, elems, map(lam.maps.__getitem__, b.circle._gens))


def socle(b: SkewBrace) -> Ideal:
    """Soc(B) = {a : a o b = a . b = b . a for all b}, an ideal, read as
    Ker lambda .cap. Ker rho for a verified brace b, with no ideal verdict
    on either kernel.  The test suite checks it against the definition."""
    return Ideal(b, _meet(*_kernels(b)))


def quotient_brace(b: SkewBrace, ideal: Sequence[int]) -> tuple[SkewBrace, tuple[int, ...]]:
    """Quotient by an ideal; cosets re-indexed by their minima.

    Not verified again: the quotient is a skew brace, and the dot and circle
    cosets of an ideal agree, so both groups index them alike; the test
    suite checks both.
    """
    elems = set(ideal)
    if not is_ideal(b, elems):
        raise ValueError("subset is not an ideal")
    return _brace_quotient(b, elems)


def _brace_quotient(b: SkewBrace, elems: set[int]) -> tuple[SkewBrace, tuple[int, ...]]:
    """quotient_brace for a subset the caller has checked to be an ideal."""
    dot, proj = _coset_quotient(b.dot, elems)
    return SkewBrace(dot=dot, circle=_coset_quotient(b.circle, elems)[0]), proj


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
        return _describe_nilpotency(self.nilpotency_class, self.quotients[-1].n)


def _describe_nilpotency(nilpotency_class: Optional[int], last_size: int) -> str:
    """The nilpotency of a series of quotients ending at size last_size."""
    if nilpotency_class is not None:
        return f"nilpotent of class {nilpotency_class}"
    return f"not nilpotent (series stabilizes at size {last_size})"


def socle_series(b: SkewBrace) -> SocleSeries:
    """B_0 = b and B_{i+1} = B_i / Soc(B_i), until one element is left (b
    is nilpotent, of class the number of quotients) or a socle is trivial
    (the series stabilizes).  The loop ends, as each quotient is by a socle
    of more than one element and so strictly shrinks the carrier.  The
    socle is an ideal, so quotient_brace's check is skipped."""
    series, socles = [b], [socle(b)]
    while series[-1].n > 1 and len(socles[-1].elements) > 1:
        series.append(_brace_quotient(series[-1], set(socles[-1].elements))[0])
        socles.append(socle(series[-1]))
    return SocleSeries(
        quotients=tuple(series), socles=tuple(socles),
        nilpotency_class=len(series) - 1 if series[-1].n == 1 else None,
    )


class KernelReport(namedtuple(
    "KernelReport", "ker_lambda ker_rho ker_lambda_is_ideal ker_rho_is_ideal"
)):
    ker_lambda: tuple[int, ...]
    ker_rho: tuple[int, ...]
    ker_lambda_is_ideal: bool
    ker_rho_is_ideal: bool
    socle = property(lambda self: _meet(self.ker_lambda, self.ker_rho))


def _kernels(b: SkewBrace) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Ker lambda and Ker rho: the encoded rows equal to lambda_id or rho_id,
    as the identity need not be 0."""
    return tuple(tuple(compress(range(b.n), map(rows[b.id].__eq__, rows)))
                 for rows in (b.lambda_kernel.rows, b.rho_rows))


def _meet(ker_lambda: tuple[int, ...], ker_rho: tuple[int, ...]) -> tuple[int, ...]:
    """Ker lambda .cap. Ker rho, increasing: the socle, as socle and KernelReport read it."""
    return tuple(filter(set(ker_rho).__contains__, ker_lambda))


def kernel_ideals(b: SkewBrace) -> KernelReport:
    """Ker lambda and Ker rho, and whether each is an ideal.

    Ker lambda is normal in (B, o), as lambda's kernel.  For x in it,
    x o a-bar = x . a-bar, so a o x o a-bar = a . lambda_a(x) . lambda_a(a-bar)
    = a . lambda_a(x) . a^-1 lies in Ker lambda; when Ker lambda is normal
    in (B, .), lambda_a(x) lies in it too.  So it is an ideal iff it is
    normal in (B, .), which is_normal decides by the dot generators; Ker rho
    goes through is_ideal (by the dot and circle generators, as their
    docstrings prove)."""
    ker_lam, ker_rho = _kernels(b)
    return KernelReport(ker_lam, ker_rho, is_normal(b.dot, ker_lam), is_ideal(b, ker_rho))


# ---------------------------------------------------------------------------
# Reductivity profile


class ReductivityProfile(namedtuple(
    "ReductivityProfile", "solution reductivity multipermutation"
)):
    """The results a brace report is read from.  The paper's equivalences
    give the rest: red1, red2, red3 and red4 hold iff lambda, rho, lambda
    and rho respectively are dot homomorphisms, homomorphisms,
    anti-homomorphisms and anti-homomorphisms; all four hold iff the class
    and the level are at most 2; red3 holds iff b is bi-skew; and the
    retraction tower is the socle series, as Ret(r_B) is r_{B/Soc(B)}."""

    solution: FiniteSolution             # the associated solution
    reductivity: TwoReductivity          # its four identities
    multipermutation: MultipermutationResult


def reductivity_profile(b: SkewBrace) -> ReductivityProfile:
    """The associated solution, its four 2-reductivity identities and its
    multipermutation level, in closed form when the four hold.

    Each is computed once and on its own.  What they are equivalent to (the
    homomorphism properties of lambda and rho, bi-skewness, the socle
    series of b and of its opposite) is not computed again; the test suite
    checks those equivalences against their definitions.
    """
    s = associated_solution(b)
    return ReductivityProfile(s, s.reductivity, multipermutation_level(s))


# ---------------------------------------------------------------------------
# Builders.  Those given groups are not verified again: a group with itself
# or with its opposite, and a direct product of skew braces, is a skew brace
# (the test suite checks all three).  Those given formulas are.


def trivial_brace(g: FiniteGroup) -> SkewBrace:
    return SkewBrace(dot=g, circle=g)


def almost_trivial_brace(g: FiniteGroup) -> SkewBrace:
    return SkewBrace(dot=g, circle=g.opposite())


def product_brace(b1: SkewBrace, b2: SkewBrace) -> SkewBrace:
    return SkewBrace(dot=direct_product_group(b1.dot, b2.dot),
                     circle=direct_product_group(b1.circle, b2.circle))


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
