"""Disjoint unions of abelian groups: the codec for 2-reductive solutions.

A union is a family of abelian blocks A_1..A_k plus two k x k constant
matrices C, D whose (i, j) entries live in A_j.  It builds the solution
sigma_x(y) = y + c[i][j], tau_y(x) = x + d[j][i] for x in block i, y in
block j.  Every 2-reductive solution decomposes this way, with the blocks
the orbits of the full permutation group.
"""

from __future__ import annotations

import gc
import itertools
import operator
from dataclasses import dataclass
from math import prod
from typing import Iterator, Optional, Sequence

from .groups import (
    AbelianGroup,
    FiniteGroup,
    Perm,
    _abelian_block,
    _int_table,
    _isomorphisms,
    _partitions,
    abelian_groups_of_order,
    element_order,
    invert_perm,
    orbits,
    perm_group_closure,
)
from .retraction import permutation_groups
from .solution import FiniteSolution, InjectivityReport, is_2reductive

Matrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class AbelianUnion:
    groups: tuple[AbelianGroup, ...]
    c: Matrix
    d: Matrix

    @property
    def k(self) -> int:
        return len(self.groups)

    @property
    def n(self) -> int:
        return sum(g.n for g in self.groups)

    @property
    def offsets(self) -> tuple[int, ...]:
        out, acc = [], 0
        for g in self.groups:
            out.append(acc)
            acc += g.n
        return tuple(out)

    def orbit_type(self) -> tuple[tuple[int, ...], ...]:
        """Multiset of block invariant factors, in canonical block order."""
        return tuple(sorted((g.factors for g in self.groups), key=_type_key))

    def orbit_type_label(self) -> str:
        return "+".join(
            AbelianGroup(f).label() for f in self.orbit_type()
        )

    def to_dict(self) -> dict:
        return {
            "groups": [list(g.factors) for g in self.groups],
            "C": [list(row) for row in self.c],
            "D": [list(row) for row in self.d],
        }


def _type_key(factors: tuple[int, ...]) -> tuple:
    return (-prod(factors), factors)


def abelian_union(
    groups: Sequence[AbelianGroup],
    c: Sequence[Sequence[int]],
    d: Sequence[Sequence[int]],
    require_generating: bool = True,
) -> AbelianUnion:
    """Validate and build a union; column j entries must lie in A_j.

    With require_generating the entries of column j (from both matrices)
    must generate A_j, so that blocks coincide with the orbits of the
    built solution's permutation group.
    """
    k = len(groups)
    if k == 0:
        raise ValueError("groups: a union needs at least one block")
    cm = tuple(tuple(row) for row in c)
    dm = tuple(tuple(row) for row in d)
    for name, m in (("C", cm), ("D", dm)):
        if len(m) != k or any(len(row) != k for row in m):
            raise ValueError(f"{name}: must be a {k} x {k} matrix")
        for i in range(k):
            for j in range(k):
                if not 0 <= m[i][j] < groups[j].n:
                    raise ValueError(
                        f"{name}: entry [{i}][{j}] = {m[i][j]} is not an element of block {j}"
                    )
    if require_generating:
        for j in range(k):
            col = [cm[i][j] for i in range(k)] + [dm[i][j] for i in range(k)]
            if not groups[j].generates(col):
                raise ValueError(f"C, D: column {j} entries do not generate block {j}")
    return AbelianUnion(groups=tuple(groups), c=cm, d=dm)


def union_from_dict(data: dict) -> AbelianUnion:
    try:
        blocks, c, d = data["groups"], data["C"], data["D"]
    except KeyError as exc:
        raise ValueError(f"missing key {exc} in union data") from exc
    if not isinstance(blocks, (list, tuple)) or not all(
        isinstance(f, (list, tuple)) and all(type(x) is int for x in f) for f in blocks
    ):
        raise ValueError("groups: expected a list of invariant-factor lists")
    try:
        groups = [_abelian_block(tuple(f)) for f in blocks]
    except ValueError as exc:
        raise ValueError(f"groups: {exc}") from None
    k = len(groups)
    return abelian_union(groups, _int_table(c, "C", k), _int_table(d, "D", k))


# ---------------------------------------------------------------------------
# Building and decomposing solutions


def union_to_solution(u: AbelianUnion) -> FiniteSolution:
    n = u.n
    off = u.offsets
    block_of = []
    local = []
    for i, g in enumerate(u.groups):
        block_of.extend([i] * g.n)
        local.extend(range(g.n))
    sig = [[0] * n for _ in range(n)]
    ta = [[0] * n for _ in range(n)]
    for x in range(n):
        i = block_of[x]
        for y in range(n):
            j = block_of[y]
            sig[x][y] = off[j] + u.groups[j].add(local[y], u.c[i][j])
            ta[x][y] = off[j] + u.groups[j].add(local[y], u.d[i][j])
    return FiniteSolution(n=n, sigma=tuple(map(tuple, sig)), tau=tuple(map(tuple, ta)))


@dataclass(frozen=True)
class UnionDecomposition:
    union: AbelianUnion
    blocks: tuple[tuple[int, ...], ...]       # orbits of the carrier, sorted
    carrier_map: tuple[int, ...]              # isomorphism onto the rebuilt solution


def _torsor_isomorphism(
    table: Sequence[Sequence[int]],
) -> tuple[AbelianGroup, tuple[int, ...]]:
    """Identify an abelian Cayley table (zero at index 0) with its canonical
    invariant-factor group; returns (group, local index -> canonical index)."""
    m = len(table)
    rows = tuple(tuple(row) for row in table)
    target = FiniteGroup(n=m, table=rows, id=0, inv=tuple(row.index(0) for row in rows))
    for cand in abelian_groups_of_order(m):
        phi = next(_isomorphisms(cand, target), None)
        if phi is not None:
            return cand, invert_perm(phi)
    raise AssertionError("orbit translation structure is not an abelian group")


def solution_to_union(s: FiniteSolution) -> UnionDecomposition:
    """Decompose a 2-reductive solution into its disjoint union of blocks."""
    if not is_2reductive(s).holds:
        raise ValueError("solution is not 2-reductive")
    pg = permutation_groups(s).full
    orbs = orbits(pg)

    groups: list[AbelianGroup] = []
    to_canon: list[tuple[int, ...]] = []
    pos: list[dict[int, int]] = []
    for orb in orbs:
        index_of = {x: i for i, x in enumerate(orb)}
        # the group acts regularly on each orbit: row i of the translation
        # table is its one element taking orb[0] to orb[i]
        local = perm_group_closure(
            [[index_of[g[y]] for y in orb] for g in pg.generators], len(orb)
        )
        table = sorted(local.elements, key=lambda g: g[0])
        grp, mapping = _torsor_isomorphism(table)
        groups.append(grp)
        to_canon.append(mapping)
        pos.append(index_of)

    k = len(orbs)
    c = [[0] * k for _ in range(k)]
    d = [[0] * k for _ in range(k)]
    for i in range(k):
        e_i = orbs[i][0]
        for j in range(k):
            e_j = orbs[j][0]
            c[i][j] = to_canon[j][pos[j][s.sigma[e_i][e_j]]]
            d[i][j] = to_canon[j][pos[j][s.tau[e_i][e_j]]]
    # each column generates its block: the group acts regularly on the orbit
    union = AbelianUnion(
        groups=tuple(groups), c=tuple(map(tuple, c)), d=tuple(map(tuple, d))
    )
    off = union.offsets
    carrier_map = [0] * s.n
    for j, orb in enumerate(orbs):
        for x in orb:
            carrier_map[x] = off[j] + to_canon[j][pos[j][x]]
    return UnionDecomposition(
        union=union, blocks=orbs, carrier_map=tuple(carrier_map)
    )


# ---------------------------------------------------------------------------
# Isomorphism and canonical forms


@dataclass(frozen=True)
class UnionIsomorphism:
    pi: tuple[int, ...]          # block bijection
    psis: tuple[Perm, ...]       # psis[j] maps block j of the first union


def _block_bijections(
    types1: Sequence[tuple[int, ...]], types2: Sequence[tuple[int, ...]]
) -> Iterator[tuple[int, ...]]:
    """Block bijections pi with types2[pi[i]] == types1[i], lazily and in
    lexicographic order."""
    k = len(types1)
    if sorted(types1) != sorted(types2):
        return
    # with equal type multisets every partial choice extends to a bijection
    options = [[j for j in range(k) if types2[j] == t] for t in types1]
    pi: list[int] = []
    used = [False] * k

    def extend() -> Iterator[tuple[int, ...]]:
        if len(pi) == k:
            yield tuple(pi)
            return
        for j in options[len(pi)]:
            if not used[j]:
                used[j] = True
                pi.append(j)
                yield from extend()
                pi.pop()
                used[j] = False

    yield from extend()


def unions_isomorphic(
    u1: AbelianUnion, u2: AbelianUnion
) -> Optional[UnionIsomorphism]:
    """Search block bijections and per-block group isomorphisms matching the
    constant matrices; None when the built solutions are not isomorphic."""
    if u1.k != u2.k:
        return None
    types1 = [g.factors for g in u1.groups]
    types2 = [g.factors for g in u2.groups]
    k = u1.k
    for pi in _block_bijections(types1, types2):
        psis = []
        for j in range(k):
            found = None
            for psi in u1.groups[j].automorphisms:
                if all(
                    psi[u1.c[i][j]] == u2.c[pi[i]][pi[j]]
                    and psi[u1.d[i][j]] == u2.d[pi[i]][pi[j]]
                    for i in range(k)
                ):
                    found = psi
                    break
            if found is None:
                break
            psis.append(found)
        else:
            return UnionIsomorphism(pi=tuple(pi), psis=tuple(psis))
    return None


def _cell_gathers(
    types: tuple[tuple[int, ...], ...]
) -> tuple[list[AbelianGroup], list[tuple[Perm, ...]], Iterator[operator.itemgetter]]:
    """The blocks of a sorted block-type cell, their automorphisms, and one
    index gather per symmetry (pi, psis) of the cell.

    The gathers read a spread union: column j spans starts[j] ..
    starts[j] + 2k|Aut(A_j)|, holding for each automorphism psi in turn psi
    of C[0..k-1][j] then of D[0..k-1][j].  The gather of (pi, psis) returns
    the flattened (C', D') with C'[pi(i)][pi(j)] = psi_j(C[i][j]), so the
    least gather is the least image over the cell's symmetries.  They are
    yielded lazily, so canonical_form holds one at a time: Aut(Z2^4) alone
    gives 20160.  The first gather is the identity, pi = id and every
    psi = id (block bijections come in lexicographic order and automorphisms
    sorted), so it returns the union's own flattened (C, D), the layout
    enumerate_cell compares the other gathers with.
    """
    groups = [_abelian_block(t) for t in types]
    auts = [g.automorphisms for g in groups]
    k = len(types)
    kk = k * k
    starts = list(itertools.accumulate((2 * k * len(a) for a in auts), initial=0))

    def gathers() -> Iterator[operator.itemgetter]:
        for pi in _block_bijections(types, types):
            # ts[j] is the index of psi_j in auts[j]
            for ts in itertools.product(*(range(len(a)) for a in auts)):
                pos = [0] * (2 * kk)
                for j in range(k):
                    at = starts[j] + 2 * k * ts[j]
                    for i in range(k):
                        dst = pi[i] * k + pi[j]
                        pos[dst] = at + i
                        pos[kk + dst] = at + k + i
                yield operator.itemgetter(*pos)

    return groups, auts, gathers()


def canonical_form(u: AbelianUnion) -> AbelianUnion:
    """Least representative of the isomorphism class: blocks sorted by type,
    matrices minimized over block permutations and group automorphisms."""
    order = sorted(range(u.k), key=lambda i: _type_key(u.groups[i].factors))
    _, auts, gathers = _cell_gathers(tuple(u.groups[i].factors for i in order))
    spread = tuple(
        psi[m[i][j]]
        for j, a in zip(order, auts)
        for psi in a
        for m in (u.c, u.d)
        for i in order
    )
    best = min(g(spread) for g in gathers)
    k = u.k
    cflat, dflat = best[:k * k], best[k * k:]
    rows = [slice(i * k, (i + 1) * k) for i in range(k)]
    return AbelianUnion(
        groups=tuple(u.groups[i] for i in order),
        c=tuple(map(cflat.__getitem__, rows)),
        d=tuple(map(dflat.__getitem__, rows)),
    )


# ---------------------------------------------------------------------------
# Census enumeration


def census_cells(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Distinct block-type multisets (sorted canonically) for carrier size n.

    Cells are independent enumeration units: the block-type multiset is an
    isomorphism invariant, so deduplication never crosses cells.
    """
    cells = set()
    for partition in _partitions(n):
        sizes = sorted(set(partition))
        mult = {m: partition.count(m) for m in sizes}
        per_size = []
        for m in sizes:
            choices = [g.factors for g in abelian_groups_of_order(m)]
            per_size.append(
                list(itertools.combinations_with_replacement(choices, mult[m]))
            )
        for combo in itertools.product(*per_size):
            types = [t for group_choice in combo for t in group_choice]
            cells.add(tuple(sorted(types, key=_type_key)))
    return sorted(cells, key=lambda ts: (len(ts), [_type_key(t) for t in ts]))


def _valid_columns(
    group: AbelianGroup, k: int
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (C-column, D-column) pairs whose entries generate the block."""
    m = group.n
    out = []
    cache: dict[frozenset, bool] = {}
    for col in itertools.product(range(m), repeat=2 * k):
        key = frozenset(col)
        ok = cache.get(key)
        if ok is None:
            ok = group.generates(key)
            cache[key] = ok
        if ok:
            out.append((col[:k], col[k:]))
    return out


def enumerate_cell(types: tuple[tuple[int, ...], ...]) -> list[tuple]:
    """Canonical (C, D) encodings for one block-type cell, sorted.

    Each encoding is the least (flattened C, flattened D) over the cell's
    symmetries, as in canonical_form: a combo of valid columns is stored
    spread, the concatenation of its columns each under every automorphism
    of its block, and each symmetry is one index gather of _cell_gathers.
    The generation is orderly (R. C. Read, "Every one a winner", 1978):
    every (C, D) of the cell is exactly one combo, so a combo is kept when
    no gather maps it below its own layout, the identity gather's image,
    and dropped at the first gather that does.  One combo per class passes.
    """
    groups, auts, gathers = _cell_gathers(types)
    ident, *others = gathers
    k = len(groups)
    kk = k * k
    columns = [
        [tuple(psi[x] for psi in a for x in cc + dc) for cc, dc in _valid_columns(g, k)]
        for g, a in zip(groups, auts)
    ]
    kept = []
    for combo in itertools.product(*columns):
        x = sum(combo, ())
        own = ident(x)
        for g in others:
            if g(x) < own:
                break
        else:
            kept.append(own)
    kept.sort()
    return [(key[:kk], key[kk:]) for key in kept]


CensusCell = tuple[tuple[tuple[int, ...], ...], list[tuple]]


def census_keys(n: int, jobs: int = 1) -> list[CensusCell]:
    """(block types, enumerate_cell keys) for every cell of size n, in
    census_cells order; the cells run in parallel when jobs > 1."""
    if n <= 0:
        raise ValueError(f"carrier size must be positive, got {n}")
    cells = census_cells(n)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_cell = list(pool.map(enumerate_cell, cells))
    else:
        per_cell = [enumerate_cell(cell) for cell in cells]
    return list(zip(cells, per_cell))


def unions_of_cells(cells: Sequence[CensusCell]) -> tuple[AbelianUnion, ...]:
    """The unions encoded by census_keys' cells, in the same order.

    The cyclic garbage collector is paused while they are built: the unions
    hold no cycles, and its passes over the growing list took half the time
    of building the n = 6 census.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        out = []
        for types, keys in cells:
            k = len(types)
            groups = tuple(map(_abelian_block, types))
            rows = [slice(i * k, (i + 1) * k) for i in range(k)]
            for cflat, dflat in keys:
                c = tuple(map(cflat.__getitem__, rows))
                d = tuple(map(dflat.__getitem__, rows))
                out.append(AbelianUnion(groups=groups, c=c, d=d))
        return tuple(out)
    finally:
        if enabled:
            gc.enable()


def enumerate_2reductive(n: int, jobs: int = 1) -> tuple[AbelianUnion, ...]:
    """All 2-reductive solutions of size n, one canonical union per class.

    Iterates partitions of n, abelian blocks per part, and all constant
    matrices passing the per-column generation filter, keeping the least
    member of each class (census_keys).  The result is sorted by (k, block
    type keys, C, D): census_cells lists the cells in that order and each
    cell comes back sorted, so the merge only concatenates.
    """
    return unions_of_cells(census_keys(n, jobs))


# ---------------------------------------------------------------------------
# Matrix-level predicates


@dataclass(frozen=True)
class UnionPredicates:
    involutive: bool
    square_free: bool
    condition_star: bool


def union_predicates(u: AbelianUnion) -> UnionPredicates:
    k = u.k
    involutive = all(
        u.d[i][j] == u.groups[j].neg(u.c[i][j]) for i in range(k) for j in range(k)
    )
    square_free = all(u.c[i][i] == 0 and u.d[i][i] == 0 for i in range(k))
    # the two fixed-point conditions quantify their witness blocks separately
    condition_star = all(
        any(u.c[j][i] == 0 for j in range(k)) for i in range(k)
    ) and all(
        any(u.d[j][i] == 0 for j in range(k)) for i in range(k)
    )
    return UnionPredicates(
        involutive=involutive, square_free=square_free, condition_star=condition_star
    )


def opposite_union(u: AbelianUnion) -> AbelianUnion:
    """The union of the inverse solution: swap the matrices and negate."""
    k = u.k
    c = tuple(
        tuple(u.groups[j].neg(u.d[i][j]) for j in range(k)) for i in range(k)
    )
    d = tuple(
        tuple(u.groups[j].neg(u.c[i][j]) for j in range(k)) for i in range(k)
    )
    return AbelianUnion(groups=u.groups, c=c, d=d)


def injectivity_checks(u: AbelianUnion) -> InjectivityReport:
    """Two necessary conditions for injectivity, on the constant matrices."""
    k = u.k
    diagonal_ok = all(
        u.c[i][i] == u.groups[i].neg(u.d[i][i]) for i in range(k)
    )
    order_ok = True
    for i in range(k):
        for j in range(k):
            gi, gj = u.groups[i], u.groups[j]
            oj = element_order(gj.as_finite_group, gj.add(u.c[i][j], u.d[i][j]))
            oi = element_order(gi.as_finite_group, gi.add(u.c[j][i], u.d[j][i]))
            if oj != oi:
                order_ok = False
    return InjectivityReport(diagonal_ok=diagonal_ok, order_ok=order_ok)
