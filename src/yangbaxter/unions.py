"""Disjoint unions of abelian groups: the codec for 2-reductive solutions.

A union is a family of abelian blocks A_1..A_k plus two k x k constant
matrices C, D whose (i, j) entries live in A_j.  It builds the solution
sigma_x(y) = y + c[i][j], tau_y(x) = x + d[j][i] for x in block i, y in
block j.  Every 2-reductive solution decomposes this way, with the blocks
the orbits of the full permutation group.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import operator
import struct
from collections import namedtuple
from math import gcd, prod
from typing import Iterable, Iterator, Optional, Sequence

from .groups import (
    AbelianGroup,
    FiniteGroup,
    Perm,
    _abelian_block,
    _cycle,
    _gather,
    _int_table,
    _isomorphisms,
    _partitions,
    abelian_groups_of_order,
    compose,
    element_order,
    invert_perm,
    subgroup_generated,
)
from .solution import FiniteSolution

Matrix = tuple[tuple[int, ...], ...]


class AbelianUnion(namedtuple("AbelianUnion", "groups c d")):
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
        return cell_label(self.orbit_type())

    def to_dict(self) -> dict:
        return {
            "groups": [list(g.factors) for g in self.groups],
            "C": [list(row) for row in self.c],
            "D": [list(row) for row in self.d],
        }


def _type_key(factors: tuple[int, ...]) -> tuple:
    return (-prod(factors), factors)


def cell_label(types: Iterable[tuple[int, ...]]) -> str:
    """The orbit-type label of block types in canonical order, as
    "Z4+Z2xZ2+Z1"."""
    return "+".join(AbelianGroup(t).label() for t in types)


def abelian_union(
    groups: Sequence[AbelianGroup],
    c: Sequence[Sequence[int]],
    d: Sequence[Sequence[int]],
) -> AbelianUnion:
    """Validate and build a union: the entries of column j lie in A_j, and
    those of both matrices together generate A_j, so that the blocks are
    the orbits of the built solution's permutation group.
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
    """The solution of a union.  sigma_x and tau_x depend only on x's block
    i, so one sigma-row and one tau-row are built per block and shared by
    its points: over each block j, row c[i][j] (or d[i][j]) of A_j's table,
    y -> y + c[i][j], shifted by block j's offset."""
    tables = [g.as_finite_group.table for g in u.groups]

    def block_row(m: Matrix, i: int) -> tuple[int, ...]:
        return tuple(at + y for at, t, e in zip(u.offsets, tables, m[i]) for y in t[e])

    sig, ta = [], []
    for i, g in enumerate(u.groups):
        sig += [block_row(u.c, i)] * g.n
        ta += [block_row(u.d, i)] * g.n
    return FiniteSolution(n=u.n, sigma=tuple(sig), tau=tuple(ta))


class UnionDecomposition(namedtuple("UnionDecomposition", "union blocks carrier_map")):
    union: AbelianUnion
    blocks: tuple[tuple[int, ...], ...]       # orbits of the carrier, sorted
    carrier_map: tuple[int, ...]              # isomorphism onto the rebuilt solution


def _torsor_isomorphism(
    rows: Iterable[Sequence[int]], m: int,
) -> tuple[AbelianGroup, tuple[int, ...]]:
    """Identify an abelian Cayley table, its m rows in order (zero at index
    0), with its canonical invariant-factor group; returns (group, local
    index -> canonical index).

    Each x's multiples 0, x, 2x, .. are its row's cycle through 0.  An x of
    order m makes the table Z_m, and the least one's multiples are the least
    isomorphism from Z_m, as each is t -> t h for an h of order m; Z_m is
    listed first among the groups of order m, and no later row is read.
    Failing that, the number of x with q x = 0, for each divisor q of m,
    fixes a finite abelian group up to isomorphism; for Z_d1 x ... x Z_dk
    it is the product of the gcd(q, d_i), so only that candidate is searched.
    """
    table, cycles = [], []
    for row in rows:
        table.append(row)
        cycles.append(_cycle(row, 0))
        if len(cycles[-1]) == m:
            return abelian_groups_of_order(m)[0], invert_perm(cycles[-1])
    inv = tuple(c[-1] for c in cycles)     # -x, the last of x's multiples
    target = FiniteGroup(n=m, table=tuple(map(tuple, table)), id=0, inv=inv)
    divisors = [q for q in range(1, m + 1) if m % q == 0]
    counts = [sum(q % len(c) == 0 for c in cycles) for q in divisors]
    for cand in abelian_groups_of_order(m):
        if [prod(gcd(q, d) for d in cand.factors) for q in divisors] == counts:
            phi = next(_isomorphisms(cand, target), None)
            if phi is not None:
                return cand, invert_perm(phi)
    raise AssertionError("orbit translation structure is not an abelian group")


def solution_to_union(s: FiniteSolution) -> UnionDecomposition:
    """Decompose a 2-reductive solution into its disjoint union of blocks.

    The blocks are the orbits of the permutation group, which acts on each
    regularly, as an abelian group.  Each orbit is walked once from its
    least point e over the distinct sigma- and tau-rows: a point z first
    reached as g(z') gets t_z = g o t_z', the one element taking e to z, and
    row z of the orbit's translation table is t_z read on the orbit.

    Raises ValueError on tables that are not a 2-reductive solution,
    decided as validate_tables does, so unverified tables are decided too.
    """
    if not s.reductivity.holds:
        raise ValueError("solution is not 2-reductive")
    if not s.commuting_rows:
        raise ValueError("tables are not a solution: their rows are not commuting permutations")
    _, _, *rows = s.class_kernel.rows       # the distinct sigma- and tau-rows
    reached: dict[int, tuple[int, int]] = {}    # z -> (g, z'): z = rows[g](z')
    orbs, groups, at = [], [], 0
    # each point's element of its block, and its point of the rebuilt carrier
    local, carrier_map = [0] * s.n, [0] * s.n
    for e in range(s.n):
        if e in reached:
            continue
        walk, reached[e] = [e], (0, e)          # e's entry is never read
        for z in walk:
            for g, row in enumerate(rows):
                if row[z] not in reached:
                    reached[row[z]] = (g, z)
                    walk.append(row[z])
        orb = tuple(sorted(walk))
        index_of = {x: i for i, x in enumerate(orb)}
        # t_z and the rows on the orbit, as maps of local indices
        on_orb = [[index_of[row[x]] for x in orb] for row in rows]
        t = {e: tuple(range(len(orb)))}

        def t_of(z):    # composed when first read, along z's walk back to e
            path = [z]
            while path[-1] not in t:
                path.append(reached[path[-1]][1])
            for y in reversed(path[:-1]):
                t[y] = compose(on_orb[reached[y][0]], t[reached[y][1]])
            return t[z]

        grp, to_canon = _torsor_isomorphism(map(t_of, orb), len(orb))
        for x, i in index_of.items():
            local[x], carrier_map[x] = to_canon[i], at + to_canon[i]
        orbs.append(orb)
        groups.append(grp)
        at += len(orb)
    # each column generates its block: the group acts regularly on the orbit
    firsts = [orb[0] for orb in orbs]
    c, d = (tuple(tuple(local[m[a][b]] for b in firsts) for a in firsts) for m in (s.sigma, s.tau))
    union = AbelianUnion(groups=tuple(groups), c=c, d=d)
    return UnionDecomposition(union=union, blocks=tuple(orbs), carrier_map=tuple(carrier_map))


# ---------------------------------------------------------------------------
# Isomorphism and canonical forms


class UnionIsomorphism(namedtuple("UnionIsomorphism", "pi psis")):
    pi: tuple[int, ...]          # block bijection
    psis: tuple[Perm, ...]       # psis[j] maps block j of the first union


def _block_bijections(
    types1: Sequence[tuple[int, ...]], types2: Sequence[tuple[int, ...]]
) -> Iterator[tuple[int, ...]]:
    """Block bijections pi with types2[pi[i]] == types1[i], lazily and in
    lexicographic order.  The two type lists must be equal as multisets;
    then every partial choice extends to a bijection."""
    k = len(types1)
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
    constant matrices; None when the built solutions are not isomorphic.

    Block bijections are tried in lexicographic order.  For each, psi_j is
    the least automorphism, as a tuple, sending column j of u1 to column
    pi(j) of u2: the first extension of those forced images to the elements
    of A_j in index order.  When the column generates A_j, as it does in
    every validated union, that psi_j is the only one.  Aut(Z_m) = {x -> u x
    : gcd(u, m) = 1} and psi(1) = u: a Z_m block takes the least unit that fits.
    """
    types1, types2 = ([g.factors for g in u.groups] for u in (u1, u2))
    if sorted(types1) != sorted(types2):
        return None
    # the columns of each matrix
    c1, d1, c2, d2 = (list(zip(*m)) for m in (u1.c, u1.d, u2.c, u2.d))
    for pi in _block_bijections(types1, types2):
        psis = []
        for j, g in enumerate(u1.groups):
            # column j of u1 goes to column pi[j] of u2 read over rows pi[i];
            # then every element, so that the first map is the least tuple
            images = [*map(c2[pi[j]].__getitem__, pi), *map(d2[pi[j]].__getitem__, pi)]
            steps = [*c1[j], *d1[j], *range(g.n)]
            if g.units is None:
                psi = next(_isomorphisms(g, g.as_finite_group, steps, images), None)
            else:
                fits = (u for u in g.units if all(u * x % g.n == y for x, y in zip(steps, images)))
                psi = next(map(g.scaled, fits), None)
            if psi is None:
                break
            psis.append(psi)
        else:
            return UnionIsomorphism(pi=tuple(pi), psis=tuple(psis))
    return None


def _cell_positions(
    types: tuple[tuple[int, ...], ...]
) -> tuple[list[AbelianGroup], list[tuple[Perm, ...]], Iterator[tuple[int, ...]]]:
    """The blocks of a sorted block-type cell, their automorphisms, and one
    index gather per symmetry (pi, psis) of the cell that fixes every
    trivial block, as a position tuple.

    The gathers read a spread matrix: column j spans starts[j] ..
    starts[j] + k|Aut(A_j)|, holding for each automorphism psi in turn psi
    of M[0..k-1][j].  The gather of (pi, psis) lists, for each entry of the
    flattened M' with M'[pi(i)][pi(j)] = psi_j(M[i][j]), the spread index
    it is read from.  C and D are spread alike and one gather maps either.
    The trivial blocks sort last, and the cell's symmetries are these
    gathers times the permutations of the trivial blocks, which only
    permute the last rows (enumerate_cell sorts them, and takes every
    gather at once).  The first is the identity, pi = id and every psi = id
    (block bijections come in lexicographic order and automorphisms
    sorted), so it reads a matrix's own flattened entries, the layout
    enumerate_cell compares the other gathers with.
    """
    groups = [_abelian_block(t) for t in types]
    auts = [g.automorphisms for g in groups]
    k, r = len(types), len(types) - types.count(())
    starts = list(itertools.accumulate((k * len(a) for a in auts), initial=0))

    def positions() -> Iterator[tuple[int, ...]]:
        for head in _block_bijections(types[:r], types[:r]):
            pi = head + tuple(range(r, k))
            # ts[j] is the index of psi_j in auts[j]
            for ts in itertools.product(*(range(len(a)) for a in auts)):
                pos = [0] * (k * k)
                for j in range(k):
                    at = starts[j] + k * ts[j]
                    for i in range(k):
                        pos[pi[i] * k + pi[j]] = at + i
                yield tuple(pos)

    return groups, auts, positions()


def canonical_form(u: AbelianUnion) -> AbelianUnion:
    """Least representative of the isomorphism class: blocks sorted by type,
    matrices minimized over block permutations and group automorphisms.

    Fix a block bijection pi.  Every entry of the image, C'[pi(i)][pi(j)] =
    psi_j(C[i][j]) and D' alike, depends on psi_j alone, and the first
    position where two images differ lies in one column.  So the least
    (flattened C', flattened D') under pi takes, in each column pi(j), the
    least image under Aut(A_j) of that column's entries read top to bottom,
    C's then D's: one least-image search per column (of Z_m a minimum over
    the units u, as Aut(Z_m) = {x -> u x : gcd(u, m) = 1}), the sum of the
    |Aut| rather than their product.  The least over every pi is the form.
    Columns repeat across block bijections, so their least images are kept.
    """
    k = u.k
    order = sorted(range(k), key=lambda i: _type_key(u.groups[i].factors))
    groups = tuple(u.groups[i] for i in order)
    types = tuple(g.factors for g in groups)
    # column j of the sorted union: its C entries, then its D entries
    columns = [(*[u.c[i][j] for i in order], *[u.d[i][j] for i in order]) for j in order]
    # per block type, column -> its least image; blocks of one type share
    least = {t: {} for t in types}
    memos = [least[t] for t in types]
    # the image's columns end to end, read back as flattened C', then D'
    to_rows = operator.itemgetter(
        *(q * 2 * k + r for r in range(k) for q in range(k)),
        *(q * 2 * k + k + r for r in range(k) for q in range(k)),
    )
    best = None
    for pi in _block_bijections(types, types):
        # the image under pi's inverse, which runs over the same bijections:
        # column q of the image is column pi[q], its row r from row pi[r]
        pick = operator.itemgetter(*pi, *[k + i for i in pi])
        image = []
        for j in pi:
            col = pick(columns[j])
            w = memos[j].get(col)
            if w is None:
                w = memos[j][col] = _least_image(groups[j], col)
            image += w
        image = to_rows(image)
        if best is None or image < best:
            best = image
    rows = [slice(i * k, (i + 1) * k) for i in range(2 * k)]
    return AbelianUnion(
        groups=groups,
        c=tuple(map(best.__getitem__, rows[:k])),
        d=tuple(map(best.__getitem__, rows[k:])),
    )


def _least_image(g: AbelianGroup, col: tuple[int, ...]) -> tuple[int, ...]:
    """The lexicographically least image of a tuple of elements of g under
    Aut(g), {x -> u x : gcd(u, m) = 1} for Z_m: the first map's images in that order."""
    if g.units is not None:
        m = g.n
        return min(tuple([u * x % m for x in col]) for u in g.units)
    psi = next(_isomorphisms(g, g.as_finite_group, col))
    return tuple(map(psi.__getitem__, col))


# ---------------------------------------------------------------------------
# Census enumeration


def census_cells(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Distinct block-type multisets (sorted canonically) for carrier size n.

    Cells are independent enumeration units: the block-type multiset is an
    isomorphism invariant, so deduplication never crosses cells.
    """
    cells = {
        tuple(sorted((g.factors for g in combo), key=_type_key))
        for partition in _partitions(n)
        for combo in itertools.product(*map(abelian_groups_of_order, partition))
    }
    return sorted(cells, key=lambda ts: (len(ts), [_type_key(t) for t in ts]))


CRun = tuple[tuple[int, ...], bytes]  # flattened C, and its D's packed


def enumerate_cell(types: tuple[tuple[int, ...], ...]) -> list[CRun]:
    """The canonical (C, D) encodings of one block-type cell, as C-runs.

    Each encoding is the least (flattened C, flattened D) over the cell's
    symmetries, as in canonical_form.  The generation is orderly (R. C.
    Read, "Every one a winner", 1978), in two stages.  The least member of
    a class has the least C of C's orbit, and only the symmetries that fix
    that C, its stabiliser, can give it a smaller D.  The trivial blocks'
    columns are zero, so S_m on the m of them only permutes the last m
    rows, and its least image lists their (C-row, D-row) pairs sorted.  So
    a C-matrix, one C-column per block among those that some D-column
    completes, is kept when its trivial rows are sorted and no gather maps
    it, the image's trivial rows sorted, lower.  Its stabiliser is
    collected on the way: the identity with two adjacent equal trivial rows
    swapped, and each gather whose sorted image is C followed by each row
    arrangement that sorts it.  Then each D whose columns complete C's is
    kept when no gather of the stabiliser maps it lower; with a trivial
    stabiliser, the common case, every D is kept.  Matrices are stored
    spread, each column under every automorphism of its block, so a gather
    reads either half.  The C-stage compares the gathers' tuple images one
    C at a time; the D-stage works on a whole run: its D's are spread end
    to end in one bytes, and each gather lays out all their images with one
    strided slice per position.  C enters the D-stage only through the
    subgroups its columns generate, which fix the D-columns that complete
    them, and through its stabiliser's gathers.  So the C's that agree on
    those share one run, computed once and held once.

    Returns, per kept C in increasing order, (flattened C, run): the run is
    C's kept D's, each flattened to k^2 bytes, sorted and joined.  An entry
    is below its block's order, at most n, which is far below 256 for any
    census that finishes: it fits a byte, and bytes compare as numbers do.
    """
    groups, auts, positions = _cell_positions(types)
    ident, *others = positions
    k = len(groups)
    width = k * sum(map(len, auts))
    # the trivial rows close the flattened matrix
    head = k * (k - types.count(()))
    tails = [slice(i, i + k) for i in range(head, k * k, k)]
    # per block: spread C-column -> (the subgroup its entries generate, the
    # spread D-columns whose entries generate the block with its own), the
    # C-columns as tuples for the gathers and the D-columns as bytes; that
    # is decided once per pair of subgroups, and a subgroup's C-columns
    # share it.  A subgroup is found once per set of entries.
    completions = []
    for g, a in zip(groups, auts):
        plain = list(itertools.product(range(g.n), repeat=k))
        spans = {e: subgroup_generated(g.as_finite_group, e) for e in set(map(frozenset, plain))}
        cols = [(spans[frozenset(col)], tuple(psi[x] for psi in a for x in col)) for col in plain]
        packed = [bytes(sc) for _, sc in cols]
        subgroups = dict.fromkeys(h for h, _ in cols)
        ok = {(h, h2): g.generates(h + h2) for h in subgroups for h2 in subgroups}
        ds = {h: [sd for (h2, _), sd in zip(cols, packed) if ok[h, h2]] for h in subgroups}
        completions.append({sc: (h, ds[h]) for h, sc in cols if ds[h]})

    def arranged(pos: tuple[int, ...], orders: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
        # pos with its trivial rows read in each order
        return [pos[:head] + sum((pos[tails[q]] for q in o), ()) for o in orders]

    swaps = [(*range(i), i + 1, i, *range(i + 2, len(tails))) for i in range(len(tails) - 1)]
    own = _gather(ident)
    gathers = [(_gather(pos), pos) for pos in others]
    kept = []
    for c_combo in itertools.product(*completions):
        x = sum(c_combo, ())
        cflat = own(x)
        rows = list(map(cflat.__getitem__, tails))
        if rows != sorted(rows):
            continue
        stabiliser = []
        for g, pos in gathers:
            image = g(x)
            # sorting the trivial rows only lowers an image, and only
            # they can differ when the rest agrees with C
            if image < cflat:
                break
            if image[:head] == cflat[:head]:
                moved = list(map(image.__getitem__, tails))
                if sorted(moved) < rows:
                    break
                if sorted(moved) == rows:
                    # each order q of the trivial rows with moved[q[i]] == rows[i]
                    stabiliser += arranged(pos, _block_bijections(rows, moved))
        else:
            # the identity's swaps are built only for the C's kept
            same = [o for i, o in enumerate(swaps) if rows[i] == rows[i + 1]]
            kept.append((cflat, c_combo, arranged(ident, same) + stabiliser))
    # (C's subgroups, its stabiliser) -> the run of every C with them
    runs, shared = [], {}
    for cflat, c_combo, stabiliser in sorted(kept, key=operator.itemgetter(0)):
        hs, columns = zip(*map(dict.__getitem__, completions, c_combo))
        key = (hs, frozenset(stabiliser))
        if key not in shared:
            shared[key] = b"".join(_least_ds(columns, ident, stabiliser, width))
        runs.append((cflat, shared[key]))
    return runs


def _least_ds(
    columns: Iterable[list[bytes]],
    ident: tuple[int, ...],
    stabiliser: list[tuple[int, ...]],
    width: int,
) -> list[bytes]:
    """The D's of one C-run, flattened and sorted, that no gather of C's
    stabiliser maps lower: each D takes one spread column from each block's
    list in columns.  Every D is spread end to end in one bytes, and each
    gather lays out the images of all of them at once (_gathered)."""
    spread = b"".join(map(b"".join, itertools.product(*columns)))
    records = _gathered(spread, ident, width)
    keep = [True] * len(records)
    for pos in stabiliser:
        images = _gathered(spread, pos, width)
        keep = list(map(operator.and_, keep, map(operator.ge, images, records)))
    return sorted(itertools.compress(records, keep))


def _gathered(spread: bytes, pos: Sequence[int], width: int) -> tuple[bytes, ...]:
    """The gather of pos applied to each width-byte record of spread, one
    bytes per record: entry p of every image is the strided slice of
    spread from pos[p], laid in with one strided assignment; one unpack
    cuts them apart (struct's cache keeps at most 100 formats)."""
    size = len(pos)
    out = bytearray(len(spread) // width * size)
    for p, q in enumerate(pos):
        out[p::size] = spread[q::width]
    return struct.unpack(f"{size}s" * (len(out) // size), out)


def cell_keys(types: tuple[tuple[int, ...], ...], runs: Iterable[CRun]) -> Iterator[tuple]:
    """The (flattened C, flattened D) keys of enumerate_cell's runs, in order."""
    width = len(types) ** 2
    for cflat, run in runs:
        for dflat in zip(*[iter(run)] * width):
            yield cflat, dflat


CensusCell = tuple[tuple[tuple[int, ...], ...], list[CRun]]


def census_keys(n: int) -> list[CensusCell]:
    """(block types, enumerate_cell runs) for every cell of size n, in
    census_cells order."""
    if n <= 0:
        raise ValueError(f"carrier size must be positive, got {n}")
    with _gc_paused():
        return [(cell, enumerate_cell(cell)) for cell in census_cells(n)]


@contextlib.contextmanager
def _gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector while census data is built.

    The keys and unions hold no reference cycles, so its passes over them
    free nothing.  At n = 6 they ran 62 times during census_keys on packed
    runs (311 on tuple keys); without the pause the census benchmark ran no
    faster and spread as wide or wider (24 pairs, 2-vCPU Xeon).
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def unions_of_cells(cells: Sequence[CensusCell]) -> tuple[AbelianUnion, ...]:
    """The unions encoded by census_keys' cells, in the same order.

    The cyclic garbage collector is paused while they are built: the unions
    hold no cycles, and its passes over the growing list took half the time
    of building the n = 6 census.
    """
    with _gc_paused():
        out = []
        for types, runs in cells:
            k = len(types)
            groups = tuple(map(_abelian_block, types))
            rows = [slice(i * k, (i + 1) * k) for i in range(k)]
            for cflat, dflat in cell_keys(types, runs):
                c = tuple(map(cflat.__getitem__, rows))
                d = tuple(map(dflat.__getitem__, rows))
                out.append(AbelianUnion(groups=groups, c=c, d=d))
        return tuple(out)


def enumerate_2reductive(n: int) -> tuple[AbelianUnion, ...]:
    """All 2-reductive solutions of size n, one canonical union per class.

    Iterates partitions of n, abelian blocks per part, and all constant
    matrices passing the per-column generation filter, keeping the least
    member of each class (census_keys).  The result is sorted by (k, block
    type keys, C, D): census_cells lists the cells in that order and each
    cell comes back sorted, so the merge only concatenates.
    """
    return unions_of_cells(census_keys(n))


# ---------------------------------------------------------------------------
# Matrix-level predicates


class UnionPredicates(namedtuple("UnionPredicates", "involutive square_free condition_star")):
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
    def negated(matrix: Matrix) -> Matrix:
        return tuple(tuple(g.neg(x) for g, x in zip(u.groups, row)) for row in matrix)

    return AbelianUnion(groups=u.groups, c=negated(u.d), d=negated(u.c))


class InjectivityReport(namedtuple("InjectivityReport", "diagonal_ok order_ok")):
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
    return injectivity_checks(solution_to_union(s).union)


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
