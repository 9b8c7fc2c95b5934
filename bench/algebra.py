"""The benchmark's own small-table algebra.

Input generation and the correctness checks use these helpers instead of the
library, so a wrong answer from the library cannot also hide in its check.
Conventions follow the library's file formats:

* an abelian block ``Z_d1 x ... x Z_dk`` numbers its elements in mixed radix,
  the first factor being the most significant digit;
* a solution is two tables with r(x, y) = (sigma[x][y], tau[y][x]);
* a union (groups, C, D) builds sigma[x][y] = y + C[i][j] and
  tau[x][y] = y + D[i][j] for x in block i and y in block j.
"""

from __future__ import annotations

from itertools import permutations, product
from math import gcd, prod


class Block:
    """Z_d1 x ... x Z_dk with mixed-radix element indices."""

    def __init__(self, factors):
        self.factors = tuple(factors)
        self.n = prod(self.factors)
        self._auts = None
        self._add = [[self._encode([a + b for a, b in zip(self._decode(x), self._decode(y))])
                      for y in range(self.n)] for x in range(self.n)]

    def _decode(self, x):
        out = []
        for d in reversed(self.factors):
            out.append(x % d)
            x //= d
        return out[::-1]

    def _encode(self, coords):
        x = 0
        for c, d in zip(coords, self.factors):
            x = x * d + c % d
        return x

    def add(self, a, b):
        return self._add[a][b]

    def scale(self, u, a):
        """u * a, which is an automorphism when u is coprime to the exponent."""
        return self._encode([u * c for c in self._decode(a)])

    @property
    def exponent(self):
        return self.factors[-1] if self.factors else 1

    def generates(self, elems):
        seen, frontier = {0}, [0]
        gens = set(elems)
        while frontier:
            nxt = []
            for a in frontier:
                for s in gens:
                    b = self._add[a][s]
                    if b not in seen:
                        seen.add(b)
                        nxt.append(b)
            frontier = nxt
        return len(seen) == self.n

    def automorphisms(self):
        """Every automorphism, found by sending each cyclic generator to an
        element whose order divides its factor; cached per block."""
        if self._auts is None:
            k, n, t = len(self.factors), self.n, self._add
            coords = [self._decode(x) for x in range(n)]
            cands = []
            for d in self.factors:
                cands.append([x for x in range(n) if self._multiple(d, x) == 0])
            auts = []
            for images in product(*cands):
                phi = [0] * n
                for x in range(n):
                    acc = 0
                    for c, img in zip(coords[x], images):
                        acc = t[acc][self._multiple(c, img)]
                    phi[x] = acc
                if len(set(phi)) == n:
                    auts.append(tuple(phi))
            self._auts = auts if k else [(0,)]
        return self._auts

    def _multiple(self, m, x):
        return self._encode([m * c for c in self._decode(x)])

    def is_automorphism(self, psi):
        n = self.n
        if sorted(psi) != list(range(n)):
            return False
        t = self._add
        return all(psi[t[a][b]] == t[psi[a]][psi[b]] for a in range(n) for b in range(n))


def type_key(factors):
    """The library's documented block order: larger blocks first, then by factors."""
    return (-prod(factors), tuple(factors))


def units_of(exponent):
    return [u for u in range(1, max(exponent, 2)) if gcd(u, exponent) == 1] or [1]


def union_tables(blocks, c, d):
    """sigma and tau tables of the union solution."""
    offsets, acc = [], 0
    for b in blocks:
        offsets.append(acc)
        acc += b.n
    where = [(i, a) for i, b in enumerate(blocks) for a in range(b.n)]
    sig = [[0] * acc for _ in range(acc)]
    ta = [[0] * acc for _ in range(acc)]
    for x, (i, _) in enumerate(where):
        for y, (j, b) in enumerate(where):
            blk = blocks[j]
            sig[x][y] = offsets[j] + blk.add(b, c[i][j])
            ta[x][y] = offsets[j] + blk.add(b, d[i][j])
    return sig, ta


def relabel_tables(tables, phi):
    """Transport each n x n table along the bijection phi of the carrier."""
    n = len(phi)
    out = []
    for t in tables:
        new = [[0] * n for _ in range(n)]
        for x in range(n):
            px, row = phi[x], t[x]
            for y in range(n):
                new[px][phi[y]] = phi[row[y]]
        out.append(new)
    return out


def fixed_pairs(sig, ta):
    """#{(x, y) : r(x, y) = (x, y)}, an isomorphism invariant."""
    n = len(sig)
    return sum(1 for x in range(n) for y in range(n) if sig[x][y] == y and ta[y][x] == x)


def is_involutive(sig, ta):
    n = len(sig)
    for x in range(n):
        for y in range(n):
            u, v = sig[x][y], ta[y][x]
            if (sig[u][v], ta[v][u]) != (x, y):
                return False
    return True


def is_square_free(sig, ta):
    return all(sig[x][x] == x and ta[x][x] == x for x in range(len(sig)))


def transform_union(blocks, c, d, pi, scales):
    """(C', D') with C'[pi i][pi j] = scales[j] * C[i][j], flattened row-major."""
    k = len(blocks)
    nc, nd = [0] * (k * k), [0] * (k * k)
    for i in range(k):
        for j in range(k):
            at = pi[i] * k + pi[j]
            nc[at] = blocks[j].scale(scales[j], c[i][j])
            nd[at] = blocks[j].scale(scales[j], d[i][j])
    return tuple(nc), tuple(nd)


def canonical_union(types, c, d, blocks_by_type):
    """The least (C, D), flattened row-major, over every relabelling of the
    union: blocks sorted by type, equal-type blocks permuted, each block moved
    by an automorphism.  The same definition as the library's canonical form,
    computed here by brute force."""
    k = len(types)
    order = sorted(range(k), key=lambda i: type_key(types[i]))
    types = [types[i] for i in order]
    c = [[c[i][j] for j in order] for i in order]
    d = [[d[i][j] for j in order] for i in order]
    blocks = [blocks_by_type.setdefault(t, Block(t)) for t in types]
    runs = {}
    for i, t in enumerate(types):
        runs.setdefault(t, []).append(i)
    pis = [list(range(k))]
    for run in runs.values():
        grown = []
        for pi in pis:
            for perm in permutations(run):
                new = pi[:]
                for src, dst in zip(run, perm):
                    new[src] = dst
                grown.append(new)
        pis = grown
    best = None
    for pi in pis:
        for psis in product(*(b.automorphisms() for b in blocks)):
            nc, nd = [0] * (k * k), [0] * (k * k)
            for i in range(k):
                for j in range(k):
                    at = pi[i] * k + pi[j]
                    nc[at] = psis[j][c[i][j]]
                    nd[at] = psis[j][d[i][j]]
            cand = (nc, nd)
            if best is None or cand < best:
                best = cand
    return types, best


def group_inverse(table, ident):
    n = len(table)
    inv = [0] * n
    for a in range(n):
        for b in range(n):
            if table[a][b] == ident:
                inv[a] = b
    return inv


def brace_solution(dot, circ):
    """Tables of the solution associated with the brace (dot, circ):
    sigma_a(b) = a^-1 . (a o b) and tau_b(a) = (sigma_a(b))^-o o a o b."""
    n = len(dot)
    ident = next(e for e in range(n) if all(dot[e][x] == x for x in range(n)))
    dinv, cinv = group_inverse(dot, ident), group_inverse(circ, ident)
    sig = [[dot[dinv[a]][circ[a][b]] for b in range(n)] for a in range(n)]
    ta = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            ta[b][a] = circ[circ[cinv[sig[a][b]]][a]][b]
    return sig, ta


def is_commutative(table):
    n = len(table)
    return all(table[a][b] == table[b][a] for a in range(n) for b in range(a + 1, n))
