"""Finite-group substrate: Cayley-table groups on {0..n-1}, abelian groups
given by invariant factors, and permutation groups given by generators.

Permutations are length-n index arrays.  Composition is fixed once and for
all as ``compose(p, q)[x] = p[q[x]]``, i.e. q is applied first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import Iterable, Iterator, Optional, Sequence

Perm = tuple[int, ...]


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Sequence[int], q: Sequence[int]) -> Perm:
    """Compose two permutations, applying q first: (p o q)(x) = p[q[x]]."""
    return tuple(p[q[x]] for x in range(len(p)))


def invert_perm(p: Sequence[int]) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def is_perm(row: Sequence[int], n: int) -> bool:
    return len(row) == n and sorted(row) == list(range(n))


# ---------------------------------------------------------------------------
# Cayley-table groups


@dataclass(frozen=True)
class FiniteGroup:
    """A group on {0..n-1} given by its full operation table."""

    n: int
    table: tuple[tuple[int, ...], ...]
    id: int
    inv: tuple[int, ...]

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def elements(self) -> range:
        return range(self.n)

    @cached_property
    def is_abelian(self) -> bool:
        t = self.table
        return all(t[a][b] == t[b][a] for a in range(self.n) for b in range(self.n))

    def opposite(self) -> "FiniteGroup":
        """The group with reversed multiplication, a *op b = b * a."""
        n = self.n
        table = tuple(tuple(self.table[b][a] for b in range(n)) for a in range(n))
        return FiniteGroup(n=n, table=table, id=self.id, inv=self.inv)

    def to_dict(self) -> dict:
        return {"n": self.n, "table": [list(row) for row in self.table]}


def finite_group(table: Sequence[Sequence[int]]) -> FiniteGroup:
    """Validate a Cayley table (associativity, identity, inverses)."""
    n = len(table)
    if n == 0:
        raise ValueError("group carrier must be non-empty")
    rows = tuple(tuple(row) for row in table)
    for i, row in enumerate(rows):
        if not is_perm(row, n):
            raise ValueError(f"table row {i} is not a permutation of 0..{n - 1}")
    for j in range(n):
        col = [rows[i][j] for i in range(n)]
        if not is_perm(col, n):
            raise ValueError(f"table column {j} is not a permutation of 0..{n - 1}")
    ident = None
    for e in range(n):
        if all(rows[e][x] == x and rows[x][e] == x for x in range(n)):
            ident = e
            break
    if ident is None:
        raise ValueError("table has no identity element")
    for a in range(n):
        for b in range(n):
            tab = rows[a][b]
            for c in range(n):
                if rows[tab][c] != rows[a][rows[b][c]]:
                    raise ValueError(f"associativity fails at triple ({a}, {b}, {c})")
    inv = [0] * n
    for a in range(n):
        found = [b for b in range(n) if rows[a][b] == ident]
        if len(found) != 1 or rows[found[0]][a] != ident:
            raise ValueError(f"element {a} has no two-sided inverse")
        inv[a] = found[0]
    return FiniteGroup(n=n, table=rows, id=ident, inv=tuple(inv))


def _int_table(value, field: str, n: Optional[int] = None) -> tuple[tuple[int, ...], ...]:
    """A square table of ints from outside input, n x n when n is given.

    Bools and floats are not ints here; any other shape or entry raises
    ValueError("field: reason").
    """
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{field}: expected a list of rows, got {type(value).__name__}")
    size = len(value) if n is None else n
    if len(value) != size:
        raise ValueError(f"{field}: has {len(value)} rows, expected {size}")
    for i, row in enumerate(value):
        if not isinstance(row, (list, tuple)):
            raise ValueError(f"{field}: row {i} is not a list")
        if len(row) != size:
            raise ValueError(f"{field}: row {i} has {len(row)} entries, expected {size}")
        for j, v in enumerate(row):
            if type(v) is not int:
                raise ValueError(f"{field}: entry [{i}][{j}] = {v!r} is not an integer")
    return tuple(tuple(row) for row in value)


def group_from_dict(data: dict) -> FiniteGroup:
    try:
        return finite_group(_int_table(data["table"], "table"))
    except KeyError as exc:
        raise ValueError(f"missing key {exc} in group data") from exc


def element_order(g: FiniteGroup, x: int) -> int:
    if not 0 <= x < g.n:
        raise ValueError(f"element {x} out of range")
    k, acc = 1, x
    while acc != g.id:
        acc = g.mul(acc, x)
        k += 1
    return k


def subgroup_generated(g: FiniteGroup, gens: Iterable[int]) -> tuple[int, ...]:
    """Closure of a subset under multiplication; always contains the identity."""
    elems = {g.id}
    frontier = [g.id]
    gens = list(gens)
    for x in gens:
        if not 0 <= x < g.n:
            raise ValueError(f"element {x} out of range")
    while frontier:
        new = []
        for a in frontier:
            for s in gens:
                b = g.mul(a, s)
                if b not in elems:
                    elems.add(b)
                    new.append(b)
        frontier = new
    return tuple(sorted(elems))


def is_subgroup(g: FiniteGroup, s: Iterable[int]) -> bool:
    ss = set(s)
    if not ss or any(not 0 <= x < g.n for x in ss):
        return False
    return g.id in ss and all(g.mul(a, b) in ss for a in ss for b in ss)


def is_normal(g: FiniteGroup, s: Iterable[int]) -> bool:
    """True iff s is a subgroup stable under conjugation by every element."""
    ss = set(s)
    if not is_subgroup(g, ss):
        return False
    for a in range(g.n):
        ai = g.inv[a]
        for x in ss:
            if g.mul(g.mul(ai, x), a) not in ss:
                return False
    return True


def center(g: FiniteGroup) -> tuple[int, ...]:
    return tuple(
        a for a in range(g.n)
        if all(g.mul(a, b) == g.mul(b, a) for b in range(g.n))
    )


def quotient(g: FiniteGroup, s: Iterable[int]) -> tuple[FiniteGroup, tuple[int, ...]]:
    """Quotient by a normal subgroup.

    Returns (quotient group, projection).  Quotient elements are indexed by
    the sorted minima of the cosets; projection[x] is the index of x's coset.
    """
    ss = sorted(set(s))
    if not is_normal(g, ss):
        raise ValueError("subset is not a normal subgroup")
    coset_of = [-1] * g.n
    reps = []
    for a in range(g.n):
        if coset_of[a] >= 0:
            continue
        coset = sorted(g.mul(a, x) for x in ss)
        idx = len(reps)
        reps.append(coset[0])
        for y in coset:
            coset_of[y] = idx
    order = sorted(range(len(reps)), key=lambda i: reps[i])
    relabel = [0] * len(reps)
    for new, old in enumerate(order):
        relabel[old] = new
    proj = tuple(relabel[coset_of[a]] for a in range(g.n))
    reps = sorted(reps)
    m = len(reps)
    table = tuple(
        tuple(proj[g.mul(reps[i], reps[j])] for j in range(m)) for i in range(m)
    )
    return finite_group(table), proj


# ---------------------------------------------------------------------------
# Abelian groups by invariant factors


def invariant_factors(orders: Iterable[int]) -> tuple[int, ...]:
    """Normalize a multiset of cyclic orders into invariant factors d1 | d2 | ..."""
    primary: dict[int, list[int]] = {}
    for m in orders:
        if m <= 0:
            raise ValueError(f"cyclic order must be positive, got {m}")
        d = 2
        while d * d <= m:
            if m % d == 0:
                e = 0
                while m % d == 0:
                    m //= d
                    e += 1
                primary.setdefault(d, []).append(e)
            d += 1
        if m > 1:
            primary.setdefault(m, []).append(1)
    if not primary:
        return ()
    for p in primary:
        primary[p].sort(reverse=True)
    k = max(len(v) for v in primary.values())
    facs = []
    for i in range(k):
        f = 1
        for p, exps in primary.items():
            if i < len(exps):
                f *= p ** exps[i]
        facs.append(f)
    facs.reverse()
    return tuple(facs)


@dataclass(frozen=True)
class AbelianGroup:
    """Direct product of cyclic groups Z_d1 x ... x Z_dk with d1 | d2 | ... | dk.

    Elements are indexed 0..n-1 in mixed-radix order: the coordinate of the
    first factor is the most significant digit.  Factors must already be in
    invariant-factor form; use abelian_group() to normalize arbitrary orders.
    """

    factors: tuple[int, ...]

    def __post_init__(self):
        for i, d in enumerate(self.factors):
            if d < 2:
                raise ValueError(f"invariant factor {d} is below 2")
            if i and d % self.factors[i - 1] != 0:
                raise ValueError(f"factor {self.factors[i - 1]} does not divide {d}")

    @property
    def n(self) -> int:
        return prod(self.factors)

    def decode(self, x: int) -> tuple[int, ...]:
        coords = []
        for d in reversed(self.factors):
            coords.append(x % d)
            x //= d
        return tuple(reversed(coords))

    def encode(self, coords: Sequence[int]) -> int:
        x = 0
        for c, d in zip(coords, self.factors):
            x = x * d + (c % d)
        return x

    def add(self, a: int, b: int) -> int:
        ca, cb = self.decode(a), self.decode(b)
        return self.encode([x + y for x, y in zip(ca, cb)])

    def neg(self, a: int) -> int:
        return self.encode([-x for x in self.decode(a)])

    def generates(self, elems: Iterable[int]) -> bool:
        return len(subgroup_generated(self.as_finite_group, elems)) == self.n

    @cached_property
    def automorphisms(self) -> tuple[Perm, ...]:
        """All automorphisms, sorted."""
        return tuple(sorted(_isomorphisms(self, self.as_finite_group)))

    @cached_property
    def as_finite_group(self) -> FiniteGroup:
        n = self.n
        table = tuple(tuple(self.add(a, b) for b in range(n)) for a in range(n))
        inv = tuple(self.neg(a) for a in range(n))
        return FiniteGroup(n=n, table=table, id=0, inv=inv)

    def label(self) -> str:
        if not self.factors:
            return "Z1"
        return "x".join(f"Z{d}" for d in self.factors)


def _isomorphisms(source: AbelianGroup, target: FiniteGroup) -> Iterator[Perm]:
    """The isomorphisms source -> target, as tuples phi[x] = image of x.

    target must be abelian.  Each is the extension of images of the standard
    generators, whose orders divide the matching invariant factors; image
    tuples are tried in itertools.product order and the bijective extensions
    yielded as found.
    """
    n = source.n
    if target.n != n:
        return
    table = target.table
    orders = [element_order(target, x) for x in range(n)]
    candidates = [[x for x in range(n) if d % orders[x] == 0] for d in source.factors]
    for images in itertools.product(*candidates):
        # mixed-radix order: phi[x * d + c] = phi[x] + c * image
        phi = [target.id]
        for d, img in zip(source.factors, images):
            steps = [target.id]
            for _ in range(d - 1):
                steps.append(table[steps[-1]][img])
            phi = [table[p][q] for p in phi for q in steps]
        if len(set(phi)) == n:
            yield tuple(phi)


def abelian_group(orders: Iterable[int]) -> AbelianGroup:
    return AbelianGroup(factors=invariant_factors(orders))


def _partitions(n: int) -> list[tuple[int, ...]]:
    if n == 0:
        return [()]
    out = []

    def rec(remaining: int, cap: int, acc: list[int]):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(min(cap, remaining), 0, -1):
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(n, n, [])
    return out


def abelian_groups_of_order(n: int) -> tuple[AbelianGroup, ...]:
    """One representative per isomorphism class, by invariant factors."""
    if n <= 0:
        raise ValueError(f"order must be positive, got {n}")
    if n == 1:
        return (AbelianGroup(factors=()),)
    primes: dict[int, int] = {}
    m, d = n, 2
    while d * d <= m:
        while m % d == 0:
            primes[d] = primes.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        primes[m] = primes.get(m, 0) + 1
    per_prime = []
    for p, e in sorted(primes.items()):
        per_prime.append([(p, part) for part in _partitions(e)])
    groups = []
    for combo in itertools.product(*per_prime):
        orders = []
        for p, part in combo:
            orders.extend(p ** e for e in part)
        groups.append(AbelianGroup(factors=invariant_factors(orders)))
    groups.sort(key=lambda g: (len(g.factors), g.factors))
    return tuple(groups)


# ---------------------------------------------------------------------------
# Permutation groups


@dataclass(frozen=True)
class PermGroup:
    """Permutation group on {0..degree-1}, given by generators.

    The closure is computed lazily and cached; the object is immutable
    afterward and safe to share across workers.
    """

    degree: int
    generators: tuple[Perm, ...]

    @cached_property
    def elements(self) -> tuple[Perm, ...]:
        ident = identity_perm(self.degree)
        seen = {ident}
        frontier = [ident]
        while frontier:
            new = []
            for a in frontier:
                for g in self.generators:
                    b = compose(g, a)
                    if b not in seen:
                        seen.add(b)
                        new.append(b)
            frontier = new
        return tuple(sorted(seen))

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def is_abelian(self) -> bool:
        gens = self.generators
        return all(
            compose(a, b) == compose(b, a)
            for i, a in enumerate(gens)
            for b in gens[i + 1:]
        )


def perm_group_closure(
    generators: Iterable[Sequence[int]],
    degree: Optional[int] = None,
) -> PermGroup:
    gens = [tuple(g) for g in generators]
    if degree is None:
        if not gens:
            raise ValueError("degree is required when no generators are given")
        degree = len(gens[0])
    for g in gens:
        if len(g) != degree:
            raise ValueError(f"generator degree {len(g)} does not match {degree}")
        if not is_perm(g, degree):
            raise ValueError(f"generator {g} is not a permutation")
    uniq = sorted(set(g for g in gens if g != identity_perm(degree)))
    return PermGroup(degree=degree, generators=tuple(uniq))


def orbits(g: PermGroup) -> tuple[tuple[int, ...], ...]:
    """Orbit partition: each orbit sorted, orbits sorted by minimum element."""
    parent = list(range(g.degree))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for p in g.generators:
        for x in range(g.degree):
            ra, rb = find(x), find(p[x])
            if ra != rb:
                parent[ra] = rb
    buckets: dict[int, list[int]] = {}
    for x in range(g.degree):
        buckets.setdefault(find(x), []).append(x)
    return tuple(sorted(tuple(sorted(v)) for v in buckets.values()))


# ---------------------------------------------------------------------------
# Named small groups (builders for catalogs and examples)


def group_from_perm_generators(gens: Sequence[Sequence[int]], degree: int) -> FiniteGroup:
    """Cayley table of the group generated by permutations, elements sorted lex."""
    pg = perm_group_closure(gens, degree)
    elems = pg.elements
    index = {p: i for i, p in enumerate(elems)}
    table = tuple(
        tuple(index[compose(p, q)] for q in elems) for p in elems
    )
    return finite_group(table)


def cyclic_group(n: int) -> FiniteGroup:
    return abelian_group([n] if n > 1 else []).as_finite_group


def symmetric_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("degree must be at least 1")
    if n == 1:
        return cyclic_group(1)
    gens = []
    swap = list(range(n))
    swap[0], swap[1] = 1, 0
    gens.append(tuple(swap))
    gens.append(tuple(list(range(1, n)) + [0]))
    return group_from_perm_generators(gens, n)


def dihedral_group(m: int) -> FiniteGroup:
    """Dihedral group of order 2m (symmetries of the m-gon), m >= 3."""
    if m < 3:
        raise ValueError("dihedral group needs m >= 3")
    rot = tuple(list(range(1, m)) + [0])
    refl = tuple((m - i) % m for i in range(m))
    return group_from_perm_generators([rot, refl], m)


def quaternion_group() -> FiniteGroup:
    """The 8-element quaternion group {±1, ±i, ±j, ±k}.

    Indexing: 0..3 are 1, i, j, k and 4..7 are their negatives.
    """
    ax = [[(0, 0), (0, 1), (0, 2), (0, 3)],
          [(0, 1), (1, 0), (0, 3), (1, 2)],
          [(0, 2), (1, 3), (1, 0), (0, 1)],
          [(0, 3), (0, 2), (1, 1), (1, 0)]]
    table = [[0] * 8 for _ in range(8)]
    for a in range(8):
        for b in range(8):
            sa, xa = divmod(a, 4)
            sb, xb = divmod(b, 4)
            s, x = ax[xa][xb]
            table[a][b] = ((sa + sb + s) % 2) * 4 + x
    return finite_group(table)


def direct_product_group(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Direct product with pairs (a, b) packed as a * |g2| + b."""
    n1, n2 = g1.n, g2.n
    n = n1 * n2
    rows = []
    for a1 in range(n1):
        for a2 in range(n2):
            row = [0] * n
            for b1 in range(n1):
                for b2 in range(n2):
                    row[b1 * n2 + b2] = g1.mul(a1, b1) * n2 + g2.mul(a2, b2)
            rows.append(tuple(row))
    return finite_group(tuple(rows))


def small_groups(max_order: int = 8) -> list[tuple[str, FiniteGroup]]:
    """All groups of order <= max_order (max_order <= 8), one per iso class."""
    if max_order > 8:
        raise ValueError("small_groups only covers orders up to 8")
    catalog: list[tuple[str, FiniteGroup]] = []
    for n in range(1, max_order + 1):
        for ab in abelian_groups_of_order(n):
            catalog.append((ab.label(), ab.as_finite_group))
        if n == 6:
            catalog.append(("S3", symmetric_group(3)))
        if n == 8:
            catalog.append(("D4", dihedral_group(4)))
            catalog.append(("Q8", quaternion_group()))
    return catalog
