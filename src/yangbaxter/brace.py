"""Finite skew left braces: two group structures on one carrier linked by
the brace law a o (b . c) = (a o b) . a^-1 . (a o c).

The lambda and rho translation families, the associated solution, opposite
and bi-skew braces, ideals, socle series, and the four homomorphism
properties tied to the 2-reductivity identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .groups import (
    FiniteGroup,
    Perm,
    _int_table,
    compose,
    direct_product_group,
    finite_group,
    identity_perm,
    is_normal,
)
from .retraction import multipermutation_level
from .solution import FiniteSolution, is_2reductive


@dataclass(frozen=True)
class BraceViolation:
    check: str
    witness: tuple

    def __str__(self) -> str:
        return f"{self.check} fails at {self.witness}"


class BraceError(ValueError):
    def __init__(self, violation: BraceViolation):
        super().__init__(str(violation))
        self.violation = violation


@dataclass(frozen=True)
class SkewBrace:
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
        dot, circ, n = self.dot, self.circle, self.n
        return tuple(
            tuple(dot.mul(dot.inv[a], circ.mul(a, b)) for b in range(n))
            for a in range(n)
        )

    @cached_property
    def rhos(self) -> tuple[Perm, ...]:
        """rho_y(x) = circle-inverse of lambda_x(y), composed with x o y."""
        circ, n = self.circle, self.n
        lams = self.lambdas
        return tuple(
            tuple(circ.mul(circ.mul(circ.inv[lams[x][y]], x), y) for x in range(n))
            for y in range(n)
        )

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "dot": [list(row) for row in self.dot.table],
            "circle": [list(row) for row in self.circle.table],
        }


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
    n = dot.n
    for a in range(n):
        ai = dot.inv[a]
        for b in range(n):
            ab = dot.mul(circ.mul(a, b), ai)
            for c in range(n):
                if circ.mul(a, dot.mul(b, c)) != dot.mul(ab, circ.mul(a, c)):
                    raise BraceError(BraceViolation("brace-law", (a, b, c)))
    return SkewBrace(dot=dot, circle=circ)


def brace_from_dict(data: dict) -> SkewBrace:
    try:
        return verify_brace(
            _int_table(data["dot"], "dot"), _int_table(data["circle"], "circle")
        )
    except KeyError as exc:
        raise ValueError(f"missing key {exc} in brace data") from exc


def dump_brace_catalog(entries, stream) -> None:
    """JSON-lines, one {"name", "n", "dot", "circle"} record per brace."""
    import json

    for name, b in entries:
        record = {"name": name, **b.to_dict()}
        stream.write(json.dumps(record, separators=(",", ":")) + "\n")


def load_brace_catalog(stream) -> list[tuple[str, SkewBrace]]:
    import json

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
    """Replace the dot group by its opposite; yields the inverse solution."""
    return verify_brace(b.dot.opposite().table, b.circle.table)


def is_biskew(b: SkewBrace) -> bool:
    """Whether (B, o, .) is a skew left brace as well, by the definition: the
    brace law with the roles of the two groups swapped.

    Equivalently lambda is a dot anti-homomorphism, or the associated
    solution is left distributive; the test suite checks both.
    """
    try:
        verify_brace(b.circle.table, b.dot.table)
    except BraceError:
        return False
    return True


# ---------------------------------------------------------------------------
# Ideals, socle, nilpotency


@dataclass(frozen=True)
class Ideal:
    brace: SkewBrace
    elements: tuple[int, ...]


def is_ideal(b: SkewBrace, elements: Sequence[int]) -> bool:
    """Normal in both groups and stable under every lambda_a."""
    elems = set(elements)
    if not is_normal(b.dot, elems) or not is_normal(b.circle, elems):
        return False
    return all(b.lambdas[a][x] in elems for a in range(b.n) for x in elems)


def socle(b: SkewBrace) -> Ideal:
    """Soc(B) = {a : a o b = a . b = b . a for all b}, an ideal.

    It equals Ker lambda .cap. Ker rho and Ker lambda .cap. Z(B, .); the test
    suite checks both.
    """
    n = b.n
    elements = tuple(
        a for a in range(n)
        if all(
            b.circle.mul(a, x) == b.dot.mul(a, x) == b.dot.mul(x, a)
            for x in range(n)
        )
    )
    return Ideal(brace=b, elements=elements)


def quotient_brace(b: SkewBrace, ideal: Sequence[int]) -> tuple[SkewBrace, tuple[int, ...]]:
    """Quotient by an ideal; cosets re-indexed by their minima.

    The cosets are taken in the dot group; for an ideal they are also the
    circle cosets, which the test suite checks.
    """
    elems = sorted(set(ideal))
    if not is_ideal(b, elems):
        raise ValueError("subset is not an ideal")
    n = b.n
    coset_min = [min(b.dot.mul(a, x) for x in elems) for a in range(n)]
    reps = sorted(set(coset_min))
    index = {r: i for i, r in enumerate(reps)}
    proj = tuple(index[r] for r in coset_min)
    m = len(reps)
    dot_t = [[proj[b.dot.mul(reps[i], reps[j])] for j in range(m)] for i in range(m)]
    circ_t = [[proj[b.circle.mul(reps[i], reps[j])] for j in range(m)] for i in range(m)]
    return verify_brace(dot_t, circ_t), proj


@dataclass(frozen=True)
class SocleSeries:
    quotients: tuple[SkewBrace, ...]       # B_0 = B, B_1, ...
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
    current = b
    for _ in range(b.n + 1):
        if current.n == 1:
            return SocleSeries(
                quotients=tuple(series), nilpotency_class=len(series) - 1
            )
        soc = socle(current)
        if len(soc.elements) == 1:
            return SocleSeries(quotients=tuple(series), nilpotency_class=None)
        current, _ = quotient_brace(current, soc.elements)
        series.append(current)
    raise AssertionError("socle series failed to shrink or stabilize")


@dataclass(frozen=True)
class KernelReport:
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


@dataclass(frozen=True)
class ReductivityProfile:
    red1: bool
    red2: bool
    red3: bool
    red4: bool
    lambda_dot_hom: bool
    lambda_dot_antihom: bool
    rho_dot_hom: bool
    rho_dot_antihom: bool
    two_sided: bool                      # lambda_{a.b} = lambda_{b.a} = lambda_{a o b}, rho alike
    multipermutation_le2: bool
    nilpotent_le2: bool
    opposite_nilpotent_le2: bool

    @property
    def all_four(self) -> bool:
        return self.red1 and self.red2 and self.red3 and self.red4


def reductivity_profile(b: SkewBrace) -> ReductivityProfile:
    """The four 2-reductivity identities on the associated solution and the
    matching homomorphism properties of lambda and rho.

    Every field is computed on its own.  Equivalences between them (red1 with
    lambda-hom, red2 with rho-hom, red3 with lambda-antihom, red4 with
    rho-antihom, and all-four with two-sided, mp <= 2, class <= 2 and
    opposite class <= 2) are theorems the test suite checks.
    """
    s = associated_solution(b)
    red = is_2reductive(s)
    lams, rhos = b.lambdas, b.rhos
    dot, circ, n = b.dot, b.circle, b.n

    def all_pairs(pred) -> bool:
        return all(pred(x, y) for x in range(n) for y in range(n))

    lam_hom = all_pairs(lambda x, y: lams[dot.mul(x, y)] == compose(lams[x], lams[y]))
    lam_anti = all_pairs(lambda x, y: lams[dot.mul(x, y)] == compose(lams[y], lams[x]))
    rho_hom = all_pairs(lambda x, y: rhos[dot.mul(x, y)] == compose(rhos[x], rhos[y]))
    rho_anti = all_pairs(lambda x, y: rhos[dot.mul(x, y)] == compose(rhos[y], rhos[x]))

    two_sided = all_pairs(
        lambda x, y: lams[dot.mul(x, y)]
        == lams[dot.mul(y, x)]
        == lams[circ.mul(x, y)]
    ) and all_pairs(
        lambda x, y: rhos[dot.mul(x, y)]
        == rhos[dot.mul(y, x)]
        == rhos[circ.mul(x, y)]
    )
    mp = multipermutation_level(s)
    mp_le2 = mp.level is not None and mp.level <= 2
    cls = socle_series(b).nilpotency_class
    nil_le2 = cls is not None and cls <= 2
    opp_cls = socle_series(opposite_brace(b)).nilpotency_class
    opp_le2 = opp_cls is not None and opp_cls <= 2

    return ReductivityProfile(
        red1=red.red1,
        red2=red.red2,
        red3=red.red3,
        red4=red.red4,
        lambda_dot_hom=lam_hom,
        lambda_dot_antihom=lam_anti,
        rho_dot_hom=rho_hom,
        rho_dot_antihom=rho_anti,
        two_sided=two_sided,
        multipermutation_le2=mp_le2,
        nilpotent_le2=nil_le2,
        opposite_nilpotent_le2=opp_le2,
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


def _plus_table(n2: int) -> list[list[int]]:
    return [[(x + y) % n2 for y in range(n2)] for x in range(n2)]


def z2n_brace(n: int) -> SkewBrace:
    """On Z_2n (n odd): dot is x + (-1)^x y, circle is addition mod 2n."""
    if n < 1 or n % 2 == 0:
        raise ValueError(f"n must be odd and positive, got {n}")
    return verify_brace(_twisted_table(2 * n), _plus_table(2 * n))


def z2n_dual_brace(n: int) -> SkewBrace:
    """The dual: dot is addition mod 2n, circle is x + (-1)^x y."""
    if n < 1 or n % 2 == 0:
        raise ValueError(f"n must be odd and positive, got {n}")
    return verify_brace(_plus_table(2 * n), _twisted_table(2 * n))


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
