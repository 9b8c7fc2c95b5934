"""Finite-group substrate: Cayley-table groups on {0..n-1}, abelian groups
given by invariant factors, and permutation groups given by generators.

Permutations are length-n index arrays.  Composition is fixed once and for
all as ``compose(p, q)[x] = p[q[x]]``, i.e. q is applied first.
"""

from __future__ import annotations

import itertools
import operator
from collections import namedtuple
from contextlib import suppress
from functools import cached_property, lru_cache, reduce
from math import gcd, prod
from typing import Callable, Iterable, Iterator, Optional, Sequence

Perm = tuple[int, ...]


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Sequence[int], q: Sequence[int]) -> Perm:
    """Compose two permutations, applying q first: (p o q)(x) = p[q[x]]."""
    return tuple([p[i] for i in q])


_BYTE_VALUES = bytes(range(256))


class RowKernel(namedtuple("RowKernel", "rows maps then join invert")):
    """The rows of a table of maps of {0..n-1} to itself, encoded once for
    composition (_row_kernel builds it):

    - then(rows[j], maps[i]) is the encoded row of compose(table[i], table[j]);
    - join(encoded rows) is the rows end to end, so then(join(rows), maps[i])
      composes table[i] with every row in one call;
    - invert(rows[i]) is the encoded inverse of a permutation row.

    Encoded rows compare with == as the tuples do, so every check that
    compares two composed maps is written once.  Up to n = 256 a row is
    bytes and its map the row padded to a 256-byte translate table, so then
    is bytes.translate and composes in C, join is b"".join and invert
    scatters with bytes.maketrans; above that rows and maps are the tuples,
    then gathers with operator.itemgetter (which returns a tuple, as every
    row has more than one entry), join chains the tuples and invert is
    invert_perm.
    """

    rows: tuple
    maps: tuple
    then: Callable
    join: Callable
    invert: Callable


def _row_classes(rows: Sequence) -> tuple[list[int], list[int]]:
    """(reps, cls): the first index of each distinct row, in order, and each
    row's class, its position in reps, so rows[x] == rows[reps[cls[x]]]; the
    one place that tells equal rows apart (FiniteSolution caches its own)."""
    first: dict = {}
    ids = list(map(first.setdefault, rows, range(len(rows))))
    reps = list(first.values())
    return reps, list(map(dict(zip(reps, range(len(reps)))).__getitem__, ids))


def _row_kernel(table: Sequence[Sequence[int]]) -> RowKernel:
    """The RowKernel of a table; FiniteGroup and FiniteSolution cache theirs."""
    n = len(table[0]) if table else 0
    if n > 256:
        rows = tuple(map(tuple, table))
        return RowKernel(rows, rows, lambda q, p: operator.itemgetter(*q)(p),
                         lambda seq: tuple(itertools.chain.from_iterable(seq)), invert_perm)
    pad, ident = bytes(256 - n), _BYTE_VALUES[:n]
    rows = tuple(map(bytes, table))
    return RowKernel(rows, tuple([row + pad for row in rows]), bytes.translate, b"".join,
                     lambda row: bytes.maketrans(row, ident)[:n])


def _gather(idx: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """The function reading an encoded row (or any sequence) at the indices
    idx, as a tuple of ints: operator.itemgetter, but a tuple for one index
    as well."""
    get = operator.itemgetter(*idx)
    return get if len(idx) > 1 else lambda seq: (get(seq),)


def _product_table(
    t1: Sequence[Sequence[int]], t2: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], ...]:
    """The operation table of the direct product of two tables, with the
    pair (a, b) packed as a * |t2| + b: row (a1, a2) is row a1 of t1 and
    row a2 of t2 paired entry by entry."""
    m = len(t2)
    return tuple(tuple(p * m + q for p in row1 for q in row2) for row1 in t1 for row2 in t2)


def _first_triple(
    pairs: Iterable[tuple[Sequence[int], Sequence[int]]], n: int
) -> Optional[tuple[int, int, int]]:
    """The first (a, b, c), in lex order, where the a-th pair of joined
    n^2-entry rows differs at index b * n + c; None when every pair agrees."""
    for a, (lhs, rhs) in enumerate(pairs):
        if lhs != rhs:
            return (a, *divmod(next(i for i, (u, v) in enumerate(zip(lhs, rhs)) if u != v), n))
    return None


def invert_perm(p: Sequence[int]) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _non_permutation(rows: Sequence[Sequence[int]], n: int) -> tuple[Optional[int], tuple]:
    """(i, enc): the first row that is not a permutation of 0..n-1, or None,
    and the rows as _row_kernel encodes them.  One C-level pass over the
    encoded rows decides (a byte row of length n is a permutation iff deleting
    its bytes from 0..n-1 leaves nothing); a fault is looked for row by row."""
    with suppress(TypeError, ValueError):
        if n > 256:
            if set(map(len, rows)) <= {n} and set(map(frozenset, rows)) <= {frozenset(range(n))}:
                return None, rows
        elif (set(map(len, enc := tuple(map(bytes, rows)))) <= {n}
              and not any(map(_BYTE_VALUES[:n].translate, itertools.repeat(None), enc))):
            return None, enc
    return _unsorted(rows, n), rows


def _unsorted(rows: Iterable[Sequence[int]], n: int) -> Optional[int]:
    """The index of the first row whose sorted entries are not 0..n-1, or None."""
    perm = list(range(n))
    return next((i for i, row in enumerate(rows) if sorted(row) != perm), None)


# ---------------------------------------------------------------------------
# Cayley-table groups


class FiniteGroup(namedtuple("FiniteGroup", "n table id inv")):
    """A group on {0..n-1} given by its full operation table."""

    n: int
    table: tuple[tuple[int, ...], ...]
    id: int
    inv: tuple[int, ...]

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    table_kernel = cached_property(lambda self: _row_kernel(self.table))
    # each element's cycle through the identity (_cycle), for _isomorphisms
    cycles = cached_property(lambda self: [_cycle(row, self.id) for row in self.table])
    # the greedy generating set (_generators) that Light's test and the brace law read
    _gens = cached_property(lambda self: tuple(_generators(self.table, self.id)))

    @cached_property
    def is_abelian(self) -> bool:
        """Each generator's row is its column (a stride of the joined rows):
        the centre is a subgroup, so it is all once it holds the generators."""
        rows, _, _, join, _ = self.table_kernel
        every = join(rows)
        return all(every[g::self.n] == rows[g] for g in self._gens)

    def opposite(self) -> "FiniteGroup":
        """The group with reversed multiplication, a *op b = b * a: the
        transposed table."""
        return FiniteGroup(n=self.n, table=tuple(zip(*self.table)), id=self.id, inv=self.inv)


def finite_group(table: Sequence[Sequence[int]]) -> FiniteGroup:
    """Validate a Cayley table on {0..n-1} as a group.

    The checks, in order, each raising ValueError at the first failure:
    every row, then every column, is a permutation of 0..n-1; some e has
    row and column both the identity map, and the first such e is the
    identity; (ab)c = a(bc), checked for b in a generating set (Light's
    test) and, when that fails, scanned for the first triple in lex order.
    Inverses are not searched for: a finite monoid whose left translations
    are bijections is a group, so a's inverse is where row a holds the
    identity, and its columns are bijections too: they are scanned only to
    name a fault, before the identity or the triple error.
    """
    n = len(table)
    if n == 0:
        raise ValueError("group carrier must be non-empty")
    rows = tuple(map(tuple, table))
    i, enc = _non_permutation(rows, n)
    if i is not None:
        raise ValueError(f"table row {i} is not a permutation of 0..{n - 1}")
    perm = identity_perm(n)
    ident = next((e for e in range(n) if rows[e] == perm == tuple([r[e] for r in rows])), None)
    if ident is not None:
        # a's inverse is where row a holds the identity, found on the encoded
        # rows, which are also the group's table kernel; (ag)c = a(gc) for all
        # a, c and each generator g is associativity, by induction on words in
        # the generators; per g, the rows row_{ag} joined over a against row_a o row_g
        inv = tuple(map(operator.methodcaller("index", ident), enc))
        group = FiniteGroup(n=n, table=rows, id=ident, inv=inv)
        enc, maps, then, join, _ = vars(group)["table_kernel"] = _row_kernel(enc)
        if all(
            join([enc[row[g]] for row in rows]) == join(map(then, itertools.repeat(enc[g]), maps))
            for g in group._gens
        ):
            return group
    if (j := _unsorted(zip(*rows), n)) is not None:
        raise ValueError(f"table column {j} is not a permutation of 0..{n - 1}")
    if ident is None:
        raise ValueError("table has no identity element")
    # the first triple: per a, row_{ab} joined over b against row_a composed
    # with every row
    every = join(enc)
    pairs = ((join([enc[ab] for ab in row]), then(every, m)) for row, m in zip(rows, maps))
    raise ValueError(f"associativity fails at triple {_first_triple(pairs, n)}")


def _generators(table: Sequence[Sequence[int]], ident: int) -> Iterator[int]:
    """Each x in 0..n-1, in increasing order, that is not a product
    ident * s1 * ... * sk of the elements yielded before it; so every
    element is such a product of the elements yielded.  table is a finite
    operation table; the caller may stop early."""
    span, gens = {ident}, []
    for x in range(len(table)):
        if x in span:
            continue
        yield x
        gens.append(x)
        # what is new ends in x, or is something new times a generator
        frontier = {table[a][x] for a in span} - span
        while frontier:
            span |= frontier
            frontier = {table[a][s] for a in frontier for s in gens} - span


def _int_table(value, field: str, n: Optional[int] = None) -> tuple[tuple[int, ...], ...]:
    """A square table of ints from outside input, n x n when n is given.

    Bools and floats are not ints here; any other shape or entry raises
    ValueError("field: reason"); the rows are walked for the first fault
    only when C-level passes over row types, row lengths and a count of int entries fail.
    """
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{field}: expected a list of rows, got {type(value).__name__}")
    size = len(value) if n is None else n
    if len(value) != size:
        raise ValueError(f"{field}: has {len(value)} rows, expected {size}")
    if (set(map(type, value)) <= {list, tuple}
            and set(map(len, rows := tuple(map(tuple, value)))) <= {size}
            and operator.countOf(map(type, itertools.chain(*rows)), int) == size * size):
        return rows
    for i, row in enumerate(value):
        if not isinstance(row, (list, tuple)):
            raise ValueError(f"{field}: row {i} is not a list")
        if len(row) != size:
            raise ValueError(f"{field}: row {i} has {len(row)} entries, expected {size}")
        if not set(map(type, row)) <= {int}:
            j, v = next((j, v) for j, v in enumerate(row) if type(v) is not int)
            raise ValueError(f"{field}: entry [{i}][{j}] = {v!r} is not an integer")
    return tuple(tuple(row) for row in value)


def _table_pair(data: dict, first: str, second: str, kind: str) -> tuple[tuple, tuple]:
    """The tables data[first] and data[second] of a kind ("solution",
    "brace") from outside input: the first fixes n >= 1, a declared
    data["n"] must equal it, and the second must be n x n (_int_table)."""
    try:
        head, tail = data[first], data[second]
    except KeyError as exc:
        raise ValueError(f"missing key {exc} in {kind} data") from exc
    head = _int_table(head, first)
    if not head:
        raise ValueError(f"{first}: empty table, a {kind} needs at least one element")
    n = data.get("n", len(head))
    if type(n) is not int or n != len(head):
        raise ValueError(f"n: declared {n!r} but {first} has {len(head)} rows")
    return head, _int_table(tail, second, n)


def _cycle(row: Sequence[int], ident: int) -> list[int]:
    """The cycle through ident of x's table row: x's powers ident, x, x^2,
    .., as many as x's order."""
    cycle, y = [ident], row[ident]
    while y != ident:
        cycle.append(y)
        y = row[y]
    return cycle


def element_order(g: FiniteGroup, x: int) -> int:
    if not 0 <= x < g.n:
        raise ValueError(f"element {x} out of range")
    return len(_cycle(g.table[x], g.id))


def subgroup_generated(g: FiniteGroup, gens: Iterable[int]) -> tuple[int, ...]:
    """Closure of a subset under multiplication; always contains the identity."""
    gens = list(gens)
    for x in gens:
        if not 0 <= x < g.n:
            raise ValueError(f"element {x} out of range")
    return tuple(sorted(_closure(g.id, gens, g.mul)))


def _closure(ident, gens: Sequence, mul: Callable) -> set:
    """Every product ident * s1 * ... * sk of generators, found breadth
    first: in a finite group, the subgroup the generators generate."""
    elems = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for a in frontier:
            for s in gens:
                b = mul(a, s)
                if b not in elems:
                    elems.add(b)
                    new.append(b)
        frontier = new
    return elems


def _into(kernel: RowKernel, elems: set[int], maps: Iterable) -> bool:
    """Whether every map, encoded as kernel's are, sends elems into elems: a
    translate of elems' bytes per map, then one deletion of them from the images
    joined.  Tuple maps are read by _gather (then returns an int for one index)."""
    if type(kernel.rows[0]) is bytes:
        k = bytes(elems)
        return not b"".join(map(k.translate, maps)).translate(None, k)
    read = _gather(tuple(elems))
    return all(elems.issuperset(read(m)) for m in maps)


def is_subgroup(g: FiniteGroup, s: Iterable[int]) -> bool:
    """Non-empty, in range, with the identity, and aS in S for each a in S (_into)."""
    ss = set(s)
    if not ss or not all(map(range(g.n).__contains__, ss)) or g.id not in ss:
        return False
    maps = g.table_kernel.maps
    return len(ss) in (1, g.n) or _into(g.table_kernel, ss, map(maps.__getitem__, ss))


def is_normal(g: FiniteGroup, s: Iterable[int]) -> bool:
    """True iff s is a subgroup S with tSt^-1 = S for every element t.

    Checked for t in g._gens, x -> txt^-1 being row t, then column t^-1 (a
    stride of the joined rows): the t with tSt^-1 .subset. S are closed under
    products, as (tu)S(tu)^-1 = t(uSu^-1)t^-1, so in a finite group they are
    a subgroup, all of g once they hold the generators; equality is by size.
    """
    ss = set(s)
    if not (sub := is_subgroup(g, ss)) or len(ss) in (1, g.n):
        return sub
    n, (rows, maps, then, join, _) = g.n, g.table_kernel
    every, pad = join(rows), maps[0][n:]
    return _into(g.table_kernel, ss, [then(rows[t], every[g.inv[t]::n] + pad) + pad
                                      for t in g._gens])


def quotient(g: FiniteGroup, s: Iterable[int]) -> tuple[FiniteGroup, tuple[int, ...]]:
    """Quotient by a normal subgroup; raises ValueError for any other subset.

    Returns (quotient group, projection).  Quotient elements are indexed by
    the sorted minima of the cosets; projection[x] is the index of x's coset.
    """
    ss = set(s)
    if not is_normal(g, ss):
        raise ValueError("subset is not a normal subgroup")
    return _coset_quotient(g, ss)


def _coset_quotient(g: FiniteGroup, ss: set[int]) -> tuple[FiniteGroup, tuple[int, ...]]:
    """quotient() for a subset the caller has checked to be normal; the table
    is not validated again, as the cosets form a group (a test checks it)."""
    rows = g.table
    coset_min = [min([row[x] for x in ss]) for row in rows]
    reps = sorted(set(coset_min))
    index = {r: i for i, r in enumerate(reps)}
    proj = tuple([index[r] for r in coset_min])
    table = tuple(tuple([proj[row[b]] for b in reps]) for row in map(rows.__getitem__, reps))
    inv = tuple(proj[g.inv[a]] for a in reps)
    return FiniteGroup(n=len(reps), table=table, id=proj[g.id], inv=inv), proj


# ---------------------------------------------------------------------------
# Abelian groups by invariant factors


def _prime_factors(m: int) -> dict[int, int]:
    """The factorisation of m >= 1 by trial division, {prime: exponent} with
    the primes increasing."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = 1
    return out


def invariant_factors(orders: Iterable[int]) -> tuple[int, ...]:
    """Normalize a multiset of cyclic orders into invariant factors d1 | d2 | ..."""
    primary: dict[int, list[int]] = {}
    for m in orders:
        if m <= 0:
            raise ValueError(f"cyclic order must be positive, got {m}")
        for p, e in _prime_factors(m).items():
            primary.setdefault(p, []).append(e)
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


class AbelianGroup(namedtuple("AbelianGroup", "factors")):
    """Direct product of cyclic groups Z_d1 x ... x Z_dk with d1 | d2 | ... | dk.

    Elements are indexed 0..n-1 in mixed-radix order: the coordinate of the
    first factor is the most significant digit.  Factors must already be in
    invariant-factor form; use abelian_group() to normalize arbitrary orders.
    """

    factors: tuple[int, ...]

    def __new__(cls, factors: tuple[int, ...]):
        for i, d in enumerate(factors):
            if d < 2:
                raise ValueError(f"invariant factor {d} is below 2")
            if i and d % factors[i - 1] != 0:
                raise ValueError(f"factor {factors[i - 1]} does not divide {d}")
        return super().__new__(cls, factors)

    @property
    def n(self) -> int:
        return prod(self.factors)

    def add(self, a: int, b: int) -> int:
        return self.as_finite_group.table[a][b]

    def neg(self, a: int) -> int:
        return self.as_finite_group.inv[a]

    def translation(self, a: int) -> tuple[int, ...]:
        """The map y -> y + a for an element a, as a tuple; in Z_m a rotation (no table)."""
        if len(self.factors) <= 1:
            return tuple([*range(a, self.n), *range(a)])
        return self.as_finite_group.table[a]

    def order(self, x: int) -> int:
        return element_order(self.as_finite_group, x)

    def span(self, elems: Iterable[int]) -> tuple[int, ...]:
        """The subgroup elems generate, sorted."""
        return subgroup_generated(self.as_finite_group, elems)

    def generates(self, elems: Iterable[int]) -> bool:
        """Whether elems generate the group; in Z_m iff their gcd with m is 1 (no table)."""
        elems, m = list(elems), self.n
        if len(self.factors) <= 1 and all(0 <= x < m for x in elems):
            return gcd(m, *elems) == 1
        return len(self.span(elems)) == m

    @cached_property
    def units(self) -> Optional[tuple[int, ...]]:
        """Of Z_m (at most one factor, so Z1 too) the units mod m; else None."""
        m = self.n
        return tuple(u for u in range(m) if gcd(u, m) == 1) if len(self.factors) <= 1 else None

    def scaled(self, u: int) -> Perm:
        m = self.n
        return tuple([u * x % m for x in range(m)])

    @cached_property
    def automorphisms(self) -> tuple[Perm, ...]:
        """All automorphisms, sorted: automorphisms_sending with no element given."""
        return tuple(self.automorphisms_sending((), ()))

    def automorphisms_sending(self, elems: Sequence[int], images: Sequence[int]) -> Iterator[Perm]:
        """The automorphisms psi with each psi(elems[i]) = images[i], lazily and in
        increasing tuple order: of Z_m the units u that fit, as psi(1) = u, with no
        search or table; else _isomorphisms with every element after the given ones."""
        m = self.n
        if self.units is not None:
            fits = (u for u in self.units if all(u * x % m == y for x, y in zip(elems, images)))
            return map(self.scaled, fits)
        return _isomorphisms(self, self.as_finite_group, [*elems, *range(m)], images)

    def least_image(self, elems: Sequence[int]) -> tuple[int, ...]:
        """The lexicographically least image of a tuple of elements under
        Aut, {x -> u x : gcd(u, m) = 1} for Z_m: the first map's images in that order."""
        if self.units is not None:
            m = self.n
            return min(tuple([u * x % m for x in elems]) for u in self.units)
        psi = next(_isomorphisms(self, self.as_finite_group, elems))
        return tuple(map(psi.__getitem__, elems))

    @cached_property
    def as_finite_group(self) -> FiniteGroup:
        # one factor at a time, the new factor's coordinate the least
        # significant digit: (x, c) + (y, e) = (x + y, c + e mod d)
        cyclics = ([[(c + e) % d for e in range(d)] for c in range(d)] for d in self.factors)
        table = reduce(_product_table, cyclics, ((0,),))
        return FiniteGroup(n=self.n, table=table, id=0, inv=tuple(row.index(0) for row in table))

    def label(self) -> str:
        if not self.factors:
            return "Z1"
        return "x".join(f"Z{d}" for d in self.factors)


def _isomorphisms(
    source: AbelianGroup,
    target: FiniteGroup,
    elements: Sequence[int] = (),
    forced: Sequence[int] = (),
) -> Iterator[Perm]:
    """The isomorphisms phi: source -> target, as tuples phi[x] = image of x,
    with phi(elements[i]) = forced[i] for each i < len(forced).

    target must be abelian, of source's order.  The maps are yielded in
    lexicographic order of the images of elements followed by source's
    standard generators, which with no elements is the itertools.product
    order of generator images.  Images are assigned one element at a time,
    in increasing order, each extending an injective homomorphism phi
    defined on the span of the elements so far.  An element a already in the span has its image
    forced.  Otherwise let c be the least number with c a in the span: an
    image h is admissible iff c h = phi(c a) and no t h with 0 < t < c lies
    in phi(span), and then phi(s + t a) = phi(s) + t h extends phi
    injectively.  The standard generators make the last span all of source,
    so every map yielded is bijective, and a branch that cannot get there
    dies out.
    """
    n = source.n
    if forced:
        # forced images that do not form a partial bijection allow no map
        pairs = set(zip(elements, forced))
        if len(pairs) != len(dict(pairs)) or len(pairs) != len({y: x for x, y in pairs}):
            return
    src, table, cycles = source.as_finite_group.table, target.table, target.cycles
    # then the standard generators: in mixed-radix order e_i = prod(factors[i + 1:])
    steps, weight = [*elements], n
    for d in source.factors:
        weight //= d
        steps.append(weight)
    by_multiple: dict[tuple[int, int], list[tuple[int, list[int]]]] = {}

    def candidates(c: int, back: int) -> list[tuple[int, list[int]]]:
        """Each h with c h = back, increasing, with h, 2h, .., (c - 1)h, all
        read off h's cycle through the identity; an h of order below c is
        left out, as some t h with 0 < t < c is then 0."""
        if (c, back) not in by_multiple:
            by_multiple[c, back] = [(h, cyc[1:c]) for h, cyc in enumerate(cycles)
                                    if len(cyc) >= c and cyc[c % len(cyc)] == back]
        return by_multiple[c, back]

    # the span so far is keys, in the order it grew: key p is at where[p]
    # and maps to images[where[p]]
    def settle(where: dict[int, int], images: list[int], i: int) -> Optional[int]:
        """The first step from i outside the span; None if a forced image
        of a step inside it disagrees."""
        while i < len(steps) and steps[i] in where:
            if i < len(forced) and images[where[steps[i]]] != forced[i]:
                return None
            i += 1
        return i

    def extend(
        keys: list[int], where: dict[int, int], images: list[int], i: int
    ) -> Iterator[Perm]:
        a = steps[i]
        # the multiples a, 2a, .., (c - 1)a outside the span, and c a
        mults = [a]
        while (x := src[mults[-1]][a]) not in where:
            mults.append(x)
        options = candidates(len(mults) + 1, images[where[x]])
        if i < len(forced):
            options = [(h, hmults) for h, hmults in options if h == forced[i]]
        # phi(s + t a) = phi(s) + t h for 0 < t < c
        keys2 = keys + [row[s] for row in map(src.__getitem__, mults) for s in keys]
        where2 = dict(zip(keys2, range(n)))
        if len(keys2) == n:
            # the span is all of source: every later image is forced
            as_tuple = operator.itemgetter(*sorted(range(n), key=keys2.__getitem__))
        hit = set(images)
        for h, hmults in options:
            # phi(s) + t h lies in phi(span) iff t h does
            ys = [table[t][y] for t in hmults for y in images]
            if not hit.isdisjoint(ys):
                continue
            images2 = images + ys
            j = settle(where2, images2, i + 1)
            if j is None:
                continue
            if len(keys2) == n:
                yield as_tuple(images2)
            else:
                yield from extend(keys2, where2, images2, j)

    i = settle({0: 0}, [target.id], 0)
    if i == len(steps):         # source is trivial
        yield (target.id,)
    elif i is not None:
        yield from extend([0], {0: 0}, [target.id], i)


@lru_cache(maxsize=128)
def _abelian_block(factors: tuple[int, ...]) -> AbelianGroup:
    """The one shared AbelianGroup per invariant-factor type, so that its table
    and automorphisms are built once; 128 holds every type of order <= 64."""
    return AbelianGroup(factors=factors)


def abelian_group(orders: Iterable[int]) -> AbelianGroup:
    return _abelian_block(invariant_factors(orders))


def _partitions(n: int) -> list[tuple[int, ...]]:
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


@lru_cache(maxsize=128)
def abelian_groups_of_order(n: int) -> tuple[AbelianGroup, ...]:
    """One representative per isomorphism class, by invariant factors; built once per n."""
    if n <= 0:
        raise ValueError(f"order must be positive, got {n}")
    per_prime = [[(p, part) for part in _partitions(e)] for p, e in _prime_factors(n).items()]
    groups = []
    for combo in itertools.product(*per_prime):
        orders = []
        for p, part in combo:
            orders.extend(p ** e for e in part)
        groups.append(_abelian_block(invariant_factors(orders)))
    groups.sort(key=lambda g: (len(g.factors), g.factors))
    return tuple(groups)


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
    vars(target)["cycles"] = cycles
    divisors = [q for q in range(1, m + 1) if m % q == 0]
    counts = [sum(q % len(c) == 0 for c in cycles) for q in divisors]
    for cand in abelian_groups_of_order(m):
        if [prod(gcd(q, d) for d in cand.factors) for q in divisors] == counts:
            phi = next(_isomorphisms(cand, target), None)
            if phi is not None:
                return cand, invert_perm(phi)
    raise AssertionError("orbit translation structure is not an abelian group")


# ---------------------------------------------------------------------------
# Permutation groups


class PermGroup(namedtuple("PermGroup", "degree generators")):
    """Permutation group on {0..degree-1}, given by generators.

    The closure is computed lazily and cached; the object is immutable
    afterward.
    """

    degree: int
    generators: tuple[Perm, ...]

    @cached_property
    def elements(self) -> tuple[Perm, ...]:
        return tuple(sorted(_closure(identity_perm(self.degree), self.generators, compose)))


def perm_group_closure(
    generators: Iterable[Sequence[int]],
    degree: Optional[int] = None,
) -> PermGroup:
    """The group generated by permutations of {0..degree-1}; each distinct
    generator is validated once, in input order, so an error names the first
    bad one."""
    gens = list(dict.fromkeys(map(tuple, generators)))
    if degree is None:
        if not gens:
            raise ValueError("degree is required when no generators are given")
        degree = len(gens[0])
    if (i := _non_permutation(gens, degree)[0]) is not None:
        if len(gens[i]) != degree:
            raise ValueError(f"generator degree {len(gens[i])} does not match {degree}")
        raise ValueError(f"generator {gens[i]} is not a permutation")
    ident = identity_perm(degree)
    return PermGroup(degree=degree, generators=tuple(sorted(g for g in gens if g != ident)))


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
    return abelian_group([n]).as_finite_group


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
    return finite_group(_product_table(g1.table, g2.table))


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
