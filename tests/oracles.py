"""Brute-force oracles of the tests, from the definitions alone.

The module uses only the standard library and imports nothing from
yangbaxter, so no oracle shares code with the path it checks.  Each walks
every relabelling, triple, generator image or symmetry it needs and is meant
for small inputs.  Conventions are the library's file formats:

- a solution is two tables with r(x, y) = (sigma[x][y], tau[y][x]);
- a block Z_d1 x ... x Z_dk, given by its factors, numbers its elements in
  mixed radix, the first factor the most significant digit;
- a union is (types, C, D), one block type per block, with
  sigma_x(y) = y + C[i][j] and tau_x(y) = y + D[i][j] for x in block i and
  y in block j.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import random
from math import prod

# ---------------------------------------------------------------------------
# solutions


def is_permutation(row, n):
    """Whether row lists each of 0..n-1 exactly once, by set equality."""
    return len(row) == n and set(row) == set(range(n))


def validate_oracle(sigma, tau):
    """validate_tables as a plain loop: rows, bijectivity, then the braid
    relation composed on every triple.  None, or (check, witness) with the
    first failure in lex order."""
    n = len(sigma)
    for check, table in (("sigma-row", sigma), ("tau-row", tau)):
        for i, row in enumerate(table):
            if not is_permutation(row, n):
                return check, (i,)
    images = {}
    for x, y in itertools.product(range(n), repeat=2):
        img = (sigma[x][y], tau[y][x])
        if img in images:
            return "bijectivity", (images[img], (x, y))
        images[img] = (x, y)

    def r(x, y):
        return sigma[x][y], tau[y][x]

    for x, y, z in itertools.product(range(n), repeat=3):
        b, c = r(y, z)
        a, b = r(x, b)
        b, c = r(b, c)
        p, q = r(x, y)
        q, s = r(q, z)
        p, q = r(p, q)
        for coord, (u, v) in enumerate(((a, p), (b, q), (c, s)), start=1):
            if u != v:
                return f"birack:{coord}", (x, y, z)
    return None


def involutive_oracle(sigma, tau):
    """Whether r(r(x, y)) = (x, y) for every pair."""
    n = len(sigma)

    def r(x, y):
        return sigma[x][y], tau[y][x]

    return all(r(*r(x, y)) == (x, y) for x, y in itertools.product(range(n), repeat=2))


def distributive_oracle(table):
    """Whether t_x t_y = t_{t_x(y)} t_x, entry by entry on every triple."""
    n = len(table)
    return all(
        table[x][table[y][z]] == table[table[x][y]][table[x][z]]
        for x, y, z in itertools.product(range(n), repeat=3)
    )


def two_reductive_oracle(sigma, tau):
    """(red1, red2, red3, red4), each identity checked on every pair (x, y):
    sigma_{sigma_x(y)} = sigma_y, tau_{tau_x(y)} = tau_y,
    sigma_{tau_x(y)} = sigma_y and tau_{sigma_x(y)} = tau_y."""
    return tuple(
        all(t[v] == t[y] for row in u for y, v in enumerate(row))
        for t, u in ((sigma, sigma), (tau, tau), (sigma, tau), (tau, sigma))
    )


def invert(row):
    """The inverse of the permutation row."""
    inv = [0] * len(row)
    for x, y in enumerate(row):
        inv[y] = x
    return tuple(inv)


def classes_by_key(keys):
    """The block map of the partition of 0..n-1 into points with equal keys,
    the blocks numbered by their least points in increasing order."""
    number = {}
    return [number.setdefault(key, len(number)) for key in keys]


def least_points(block_of):
    """{block: its least point} of the partition with block map block_of."""
    least = {}
    for x, blk in enumerate(block_of):
        least.setdefault(blk, x)
    return least


def congruence_oracle(sigma, tau, block_of):
    """Whether the partition with block map block_of is compatible with
    sigma, tau and their inverses, element by element: m_x(y) and
    m_x0(y0) lie in one block for every map m, x in the block of x0 and y in
    the block of y0, x0 and y0 the least points of their blocks."""
    n, least = len(sigma), least_points(block_of)
    first = [least[blk] for blk in block_of]
    maps = (sigma, [invert(row) for row in sigma], tau, [invert(row) for row in tau])
    return all(
        block_of[m[x][y]] == block_of[m[first[x]][first[y]]]
        for m in maps for x in range(n) for y in range(n)
    )


def quotient_oracle(sigma, tau, block_of):
    """The tables induced on the blocks of a congruence, numbered as in
    block_of: block i sends block j to the block of m_x(y), x and y the
    least points of blocks i and j."""
    least = least_points(block_of)
    reps = [least[i] for i in range(len(least))]
    return tuple(
        tuple(tuple(block_of[table[x][y]] for y in reps) for x in reps)
        for table in (sigma, tau)
    )


def relabel_table(table, phi):
    """The table moved along the bijection phi: entry (phi(a), phi(b)) is
    phi(table[a][b])."""
    inv = [0] * len(phi)
    for a, p in enumerate(phi):
        inv[p] = a
    return tuple(tuple(phi[table[a][b]] for b in inv) for a in inv)


def moving_perm(n, ident, seed):
    """A seeded bijection of 0..n-1 that sends ident to a point other than 0
    when n > 1."""
    phi = random.Random(seed).sample(range(n), n)
    if n > 1 and phi[ident] == 0:
        k = (ident + 1) % n
        phi[ident], phi[k] = phi[k], phi[ident]
    return phi


def class_key(sigma, tau):
    """The least relabelled (sigma, tau) over every bijection of the carrier:
    two solutions are isomorphic iff their keys are equal."""
    return min(
        (relabel_table(sigma, phi), relabel_table(tau, phi))
        for phi in itertools.permutations(range(len(sigma)))
    )


# ---------------------------------------------------------------------------
# abelian blocks


def partition_count(e):
    """The number of partitions of e, counted part size by part size."""
    ways = [1] + [0] * e
    for part in range(1, e + 1):
        for total in range(part, e + 1):
            ways[total] += ways[total - part]
    return ways[e]


def abelian_group_count(m):
    """The number of abelian groups of order m up to isomorphism: one per
    choice of a partition of each prime's exponent in m (the fundamental
    theorem of finite abelian groups)."""
    count, p = 1, 2
    while m > 1:
        e = 0
        while m % p == 0:
            m, e = m // p, e + 1
        count, p = count * partition_count(e), p + 1
    return count


def block_add(factors, a, b):
    """a + b in the block, digit by digit."""
    total, weight = 0, 1
    for d in reversed(factors):
        total += (a // weight + b // weight) % d * weight
        weight *= d
    return total


@functools.cache
def block_table(factors):
    """The block's addition table."""
    n = prod(factors)
    return tuple(tuple(block_add(factors, a, b) for b in range(n)) for a in range(n))


def span(factors, elems):
    """The subgroup of the block that elems generate, as a set."""
    table, elems = block_table(factors), set(elems)
    seen, frontier = {0}, [0]
    while frontier:
        frontier = {table[a][g] for a in frontier for g in elems} - seen
        seen |= frontier
    return seen


def generates(factors, elems):
    return len(span(factors, elems)) == prod(factors)


def element_orders(table):
    """The order of each element of the group of table, by repeated
    multiplication."""
    ident = next(e for e in range(len(table)) if table[e][e] == e)
    orders = []
    for x in range(len(table)):
        k, acc = 1, x
        while acc != ident:
            acc, k = table[acc][x], k + 1
        orders.append(k)
    return orders


def center(table):
    """The elements whose table row equals their table column, increasing."""
    n = len(table)
    return [a for a in range(n) if all(table[a][b] == table[b][a] for b in range(n))]


def perms_commute(perms):
    """Whether the permutations commute pairwise, entry by entry."""
    return all(p[q[x]] == q[p[x]] for p in perms for q in perms for x in range(len(p)))


def orbits(degree, perms):
    """The orbits of the group the permutations generate: the connected
    components of their functional graphs, each sorted, ordered by least
    point."""
    adj = {x: set() for x in range(degree)}
    for p in perms:
        for x in range(degree):
            adj[x].add(p[x])
            adj[p[x]].add(x)
    seen, comps = set(), []
    for x in range(degree):
        if x in seen:
            continue
        comp, stack = [], [x]
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                comp.append(v)
                stack.extend(adj[v])
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def isomorphisms_oracle(factors, table):
    """The isomorphisms of the block onto the abelian group of table, as
    phi[x] = image of x: the generator of each factor d goes to an element
    whose order divides d, the images in itertools.product order, and the
    maps that are bijective are kept."""
    n = len(table)
    if prod(factors) != n:
        return
    ident = next(e for e in range(n) if table[e][e] == e)
    orders = element_orders(table)
    candidates = [[x for x in range(n) if d % orders[x] == 0] for d in factors]
    for images in itertools.product(*candidates):
        phi = [ident]
        for d, img in zip(factors, images):
            steps = [ident]
            for _ in range(d - 1):
                steps.append(table[steps[-1]][img])
            phi = [table[p][q] for p in phi for q in steps]
        if len(set(phi)) == n:
            yield tuple(phi)


@functools.cache
def automorphisms(factors):
    """Every automorphism of the block, sorted: the identity first."""
    return tuple(sorted(isomorphisms_oracle(factors, block_table(factors))))


# ---------------------------------------------------------------------------
# unions of blocks


def union_tables(union):
    """The tables of a union entry by entry."""
    types, c, d = union
    block_of = [j for j, t in enumerate(types) for _ in range(prod(t))]
    offsets = list(itertools.accumulate(map(prod, types), initial=0))
    adds = [block_table(t) for t in types]

    def table(m):
        return tuple(
            tuple(
                offsets[j] + adds[j][y - offsets[j]][m[block_of[x]][j]]
                for y, j in enumerate(block_of)
            )
            for x in range(len(block_of))
        )

    return table(c), table(d)


def transform(c, d, pi, psis):
    """Flattened (C', D') with C'[pi(i)][pi(j)] = psi_j(C[i][j])."""
    k = len(c)
    nc, nd = [0] * (k * k), [0] * (k * k)
    for i in range(k):
        for j in range(k):
            at = pi[i] * k + pi[j]
            nc[at] = psis[j][c[i][j]]
            nd[at] = psis[j][d[i][j]]
    return tuple(nc), tuple(nd)


def canonical_union(union):
    """Least flattened (C, D) over every bijection of the blocks onto the
    blocks sorted by (-order, factors) and every tuple of automorphisms."""
    types, c, d = union
    k = len(types)
    target = sorted(types, key=lambda f: (-prod(f), f))
    return min(
        transform(c, d, pi, psis)
        for pi in itertools.permutations(range(k))
        if all(target[pi[i]] == types[i] for i in range(k))
        for psis in itertools.product(*map(automorphisms, types))
    )


def witness_scan(one, other):
    """(pi, psis) by a scan: block bijections in lexicographic order and,
    per column j, the first automorphism in sorted order that sends column
    j of one to column pi(j) of other; None when no bijection has them."""
    (types1, c1, d1), (types2, c2, d2) = one, other
    k = len(types1)
    if len(types2) != k:
        return None
    for pi in itertools.permutations(range(k)):
        if any(types2[pi[i]] != types1[i] for i in range(k)):
            continue
        psis = tuple(
            next((
                psi for psi in automorphisms(t)
                if all(
                    psi[c1[i][j]] == c2[pi[i]][pi[j]] and psi[d1[i][j]] == d2[pi[i]][pi[j]]
                    for i in range(k)
                )
            ), None)
            for j, t in enumerate(types1)
        )
        if None not in psis:
            return pi, psis
    return None


# ---------------------------------------------------------------------------
# skew braces


def lambdas_rhos(dot, circ):
    """lambda_a(x) = a^-1 . (a o x) and rho_y(x) = lambda_x(y)^-bar o x o y,
    the bar the circle inverse, as tables of rows."""
    n = len(dot)
    ident = next(e for e in range(n) if dot[e][e] == e)
    dinv = [dot[a].index(ident) for a in range(n)]
    cinv = [circ[a].index(ident) for a in range(n)]
    lams = tuple(tuple(dot[dinv[a]][circ[a][x]] for x in range(n)) for a in range(n))
    rhos = tuple(
        tuple(circ[circ[cinv[lams[x][y]]][x]][y] for x in range(n)) for y in range(n)
    )
    return lams, rhos


def socle_oracle(dot, circ):
    """Soc(B) = {a : a o b = a . b = b . a for all b}, in increasing order."""
    n = len(dot)
    return [a for a in range(n) if all(circ[a][b] == dot[a][b] == dot[b][a] for b in range(n))]


def family_flags_oracle(dot, circ, fam):
    """(fam_{x.y} = fam_x fam_y, fam_{x.y} = fam_y fam_x,
    fam_{x.y} = fam_{y.x} = fam_{x o y}), each for every pair (x, y)."""
    n = len(dot)

    def after(p, q):
        return tuple(p[q[z]] for z in range(n))

    pairs = list(itertools.product(range(n), repeat=2))
    return (
        all(fam[dot[x][y]] == after(fam[x], fam[y]) for x, y in pairs),
        all(fam[dot[x][y]] == after(fam[y], fam[x]) for x, y in pairs),
        all(fam[dot[x][y]] == fam[dot[y][x]] == fam[circ[x][y]] for x, y in pairs),
    )


# ---------------------------------------------------------------------------
# command line


class UsageError(Exception):
    """A command line the reference parser refuses; args[0] is its message."""


class _ReferenceParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"error: {self.prog}: {message}")


def reference_parser():
    """The command-line grammar as argparse reads it, the reference for the
    CLI's own parser.  parse_args returns a namespace holding the command and
    every argument, prints the help and raises SystemExit(0) on -h or
    --help, and raises UsageError on a malformed line."""
    parser = _ReferenceParser(prog="yangbaxter")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("verify").add_argument("file")
    enum = sub.add_parser("enumerate")
    enum.add_argument("n", type=int)
    enum.add_argument("--out")
    cls = sub.add_parser("classify")
    cls.add_argument("file1")
    cls.add_argument("file2")
    brace = sub.add_parser("brace")
    brace.add_argument("file")
    brace.add_argument("--report", choices=("summary", "full"), default="summary")
    brace.add_argument("--solution-out", dest="solution_out")
    return parser
