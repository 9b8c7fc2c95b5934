"""Disjoint unions of abelian groups: the codec for 2-reductive solutions.

A union is a family of abelian blocks A_1..A_k plus two k x k constant
matrices C, D whose (i, j) entries live in A_j.  It builds the solution
sigma_x(y) = y + c[i][j], tau_y(x) = x + d[j][i] for x in block i, y in
block j.  Every 2-reductive solution decomposes this way, with the blocks
the orbits of the full permutation group.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import Optional, Sequence

from .groups import (
    AbelianGroup,
    FiniteGroup,
    Perm,
    _int_table,
    _isomorphisms,
    _partitions,
    abelian_groups_of_order,
    element_order,
    invert_perm,
    orbits,
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
        groups = [AbelianGroup(factors=tuple(f)) for f in blocks]
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
    chosen: dict[int, Perm] = {}
    for orb in orbs:
        e = orb[0]
        remaining = set(orb)
        for g in pg.elements:
            x = g[e]
            if x in remaining:
                chosen[x] = g
                remaining.remove(x)
                if not remaining:
                    break
        if remaining:
            raise AssertionError("orbit not covered by the permutation group")

    groups: list[AbelianGroup] = []
    to_canon: list[tuple[int, ...]] = []
    pos: list[dict[int, int]] = []
    for orb in orbs:
        index_of = {x: i for i, x in enumerate(orb)}
        table = [
            [index_of[chosen[x][y]] for y in orb]
            for x in orb
        ]
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
    union = abelian_union(groups, c, d)
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


def _admissible_pis(
    types1: Sequence[tuple[int, ...]], types2: Sequence[tuple[int, ...]]
) -> list[tuple[int, ...]]:
    k = len(types1)
    if sorted(types1) != sorted(types2):
        return []
    out = []
    for pi in itertools.permutations(range(k)):
        if all(types2[pi[i]] == types1[i] for i in range(k)):
            out.append(pi)
    return out


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
    for pi in _admissible_pis(types1, types2):
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


@lru_cache(maxsize=None)
def _cell_transforms(
    types: tuple[tuple[int, ...], ...]
) -> tuple[tuple[tuple[int, ...], tuple[Perm, ...]], ...]:
    """All (pi, psi-tuple) symmetries of a sorted block-type sequence."""
    k = len(types)
    runs: list[list[int]] = []
    for i in range(k):
        if runs and types[runs[-1][0]] == types[i]:
            runs[-1].append(i)
        else:
            runs.append([i])
    pis = []
    for parts in itertools.product(*(itertools.permutations(run) for run in runs)):
        pi = [0] * k
        for run, perm in zip(runs, parts):
            for src, dst in zip(run, perm):
                pi[src] = dst
        pis.append(tuple(pi))
    auts = [AbelianGroup(factors=t).automorphisms for t in types]
    out = []
    for pi in pis:
        for psis in itertools.product(*auts):
            out.append((pi, psis))
    return tuple(out)


def _transform(
    k: int, c: Matrix, d: Matrix, pi: tuple[int, ...], psis: tuple[Perm, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Flattened (C', D') with C'[pi(i)][pi(j)] = psi_j(C[i][j])."""
    nc = [0] * (k * k)
    nd = [0] * (k * k)
    for i in range(k):
        pi_i = pi[i] * k
        for j in range(k):
            psi = psis[j]
            nc[pi_i + pi[j]] = psi[c[i][j]]
            nd[pi_i + pi[j]] = psi[d[i][j]]
    return tuple(nc), tuple(nd)


def _sort_blocks(u: AbelianUnion) -> AbelianUnion:
    order = sorted(range(u.k), key=lambda i: _type_key(u.groups[i].factors))
    pi = [0] * u.k
    for new, old in enumerate(order):
        pi[old] = new
    k = u.k
    groups = tuple(u.groups[old] for old in order)
    c = [[0] * k for _ in range(k)]
    d = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            c[pi[i]][pi[j]] = u.c[i][j]
            d[pi[i]][pi[j]] = u.d[i][j]
    return AbelianUnion(groups=groups, c=tuple(map(tuple, c)), d=tuple(map(tuple, d)))


def canonical_form(u: AbelianUnion) -> AbelianUnion:
    """Least representative of the isomorphism class: blocks sorted by type,
    matrices minimized over block permutations and group automorphisms."""
    base = _sort_blocks(u)
    types = tuple(g.factors for g in base.groups)
    k = base.k
    best = None
    for pi, psis in _cell_transforms(types):
        cand = _transform(k, base.c, base.d, pi, psis)
        if best is None or cand < best:
            best = cand
    cflat, dflat = best
    c = tuple(tuple(cflat[i * k:(i + 1) * k]) for i in range(k))
    d = tuple(tuple(dflat[i * k:(i + 1) * k]) for i in range(k))
    return AbelianUnion(groups=base.groups, c=c, d=d)


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
    """Canonical (C, D) encodings for one block-type cell, sorted."""
    groups = [AbelianGroup(factors=t) for t in types]
    k = len(groups)
    transforms = _cell_transforms(types)
    columns = [_valid_columns(g, k) for g in groups]
    seen = set()
    for combo in itertools.product(*columns):
        c = tuple(tuple(combo[j][0][i] for j in range(k)) for i in range(k))
        d = tuple(tuple(combo[j][1][i] for j in range(k)) for i in range(k))
        best = None
        for pi, psis in transforms:
            cand = _transform(k, c, d, pi, psis)
            if best is None or cand < best:
                best = cand
        seen.add(best)
    return sorted(seen)


def _decode_cell_entry(
    types: tuple[tuple[int, ...], ...], flat: tuple
) -> AbelianUnion:
    k = len(types)
    cflat, dflat = flat
    groups = tuple(AbelianGroup(factors=t) for t in types)
    c = tuple(tuple(cflat[i * k:(i + 1) * k]) for i in range(k))
    d = tuple(tuple(dflat[i * k:(i + 1) * k]) for i in range(k))
    return AbelianUnion(groups=groups, c=c, d=d)


def enumerate_2reductive(n: int, jobs: int = 1) -> tuple[AbelianUnion, ...]:
    """All 2-reductive solutions of size n, one canonical union per class.

    Iterates partitions of n, abelian blocks per part, and all constant
    matrices passing the per-column generation filter, then canonicalizes
    and deduplicates.  Cells run independently (in parallel when jobs > 1)
    and merge into one deterministic sorted sequence.
    """
    if n <= 0:
        raise ValueError(f"carrier size must be positive, got {n}")
    cells = census_cells(n)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_cell = list(pool.map(enumerate_cell, cells))
    else:
        per_cell = [enumerate_cell(cell) for cell in cells]
    out = []
    for types, entries in zip(cells, per_cell):
        for flat in entries:
            out.append(_decode_cell_entry(types, flat))
    out.sort(key=lambda u: (u.k, [_type_key(g.factors) for g in u.groups], u.c, u.d))
    return tuple(out)


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
