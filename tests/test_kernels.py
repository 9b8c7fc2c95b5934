"""Row-composition kernels: every O(n^3) check against a scalar triple loop.

The library compares composed table rows, one row per table row where it
can, and decides bijectivity and the braid relation from the derived rows;
these tests hold each check to a test-local loop over all pairs or triples,
verdict and witness, on random corrupted tables, and the pruned
automorphism search to the plain product filter.
"""

from __future__ import annotations

import itertools
import random
from math import prod

import pytest

import yangbaxter as yb
import yangbaxter.solution as solution_module
from yangbaxter.brace import BraceViolation, _brace_law_failure
from yangbaxter.groups import (
    _isomorphisms,
    _row_kernel,
    compose,
    element_order,
    finite_group,
    invert_perm,
    is_perm,
)
from yangbaxter.solution import (
    FiniteSolution,
    TwoReductivity,
    Violation,
    _braid_mismatch,
    _braids,
    _derived_rows,
    _pair_collision,
    validate_tables,
)

SIZES = range(4, 10)


# ---------------------------------------------------------------------------
# scalar oracles


def validate_oracle(sigma, tau):
    """validate_tables as a plain loop: rows, bijectivity, then the braid
    relation composed on every triple, first mismatch in lex order."""
    n = len(sigma)
    for i, row in enumerate(sigma):
        if not is_perm(row, n):
            return Violation("sigma-row", (i,))
    for i, row in enumerate(tau):
        if not is_perm(row, n):
            return Violation("tau-row", (i,))
    images = {}
    for x, y in itertools.product(range(n), repeat=2):
        img = (sigma[x][y], tau[y][x])
        if img in images:
            return Violation("bijectivity", (images[img], (x, y)))
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
                return Violation(f"birack:{coord}", (x, y, z))
    return None


def group_oracle(rows):
    """finite_group's error message, or None, from a plain loop."""
    n = len(rows)
    for i, row in enumerate(rows):
        if not is_perm(row, n):
            return f"table row {i} is not a permutation of 0..{n - 1}"
    for j in range(n):
        if not is_perm([rows[i][j] for i in range(n)], n):
            return f"table column {j} is not a permutation of 0..{n - 1}"
    ident = next(
        (e for e in range(n) if all(rows[e][x] == x == rows[x][e] for x in range(n))), None
    )
    if ident is None:
        return "table has no identity element"
    for a, b, c in itertools.product(range(n), repeat=3):
        if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
            return f"associativity fails at triple ({a}, {b}, {c})"
    for a in range(n):
        found = [b for b in range(n) if rows[a][b] == ident]
        if len(found) != 1 or rows[found[0]][a] != ident:
            return f"element {a} has no two-sided inverse"
    return None


def brace_law_oracle(dot, circ):
    """The first triple where a o (b . c) != (a o b) . a^-1 . (a o c)."""
    n = len(dot)
    ident = next(e for e in range(n) if dot[e][e] == e)
    inv = [next(b for b in range(n) if dot[a][b] == ident) for a in range(n)]
    for a, b, c in itertools.product(range(n), repeat=3):
        if circ[a][dot[b][c]] != dot[dot[circ[a][b]][inv[a]]][circ[a][c]]:
            return a, b, c
    return None


def distributive_oracle(table):
    n = len(table)
    return all(
        table[x][table[y][z]] == table[table[x][y]][table[x][z]]
        for x, y, z in itertools.product(range(n), repeat=3)
    )


def two_reductive_oracle(s):
    """is_2reductive as the loop over every pair (x, y), per identity."""
    n, sig, ta = s.n, s.sigma, s.tau
    red = [True] * 4
    for x, y in itertools.product(range(n), repeat=2):
        red[0] = red[0] and sig[sig[x][y]] == sig[y]
        red[1] = red[1] and ta[ta[x][y]] == ta[y]
        red[2] = red[2] and sig[ta[x][y]] == sig[y]
        red[3] = red[3] and ta[sig[x][y]] == ta[y]
    return TwoReductivity(*red)


def isomorphisms_oracle(source, target):
    """The plain product-order filter that _isomorphisms prunes."""
    n = source.n
    if target.n != n:
        return
    table = target.table
    orders = [element_order(target, x) for x in range(n)]
    candidates = [[x for x in range(n) if d % orders[x] == 0] for d in source.factors]
    for images in itertools.product(*candidates):
        phi = [target.id]
        for d, img in zip(source.factors, images):
            steps = [target.id]
            for _ in range(d - 1):
                steps.append(table[steps[-1]][img])
            phi = [table[p][q] for p in phi for q in steps]
        if len(set(phi)) == n:
            yield tuple(phi)


# ---------------------------------------------------------------------------
# random inputs


def relabel_table(table, phi):
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[phi[a]][phi[b]] = phi[table[a][b]]
    return tuple(map(tuple, out))


def fixing_zero(rng, n):
    """A random permutation of 0..n-1 that fixes 0, every group's identity here."""
    rest = list(range(1, n))
    rng.shuffle(rest)
    return (0, *rest)


def groups_by_order():
    out = {}
    for _, g in yb.small_groups(8):
        out.setdefault(g.n, []).append(g.table)
    out[9] = [yb.cyclic_group(9).table, yb.abelian_group([3, 3]).as_finite_group.table]
    return out


def cycle_switch(rows, rng):
    """Swap two non-identity rows of a Latin square along one cycle of
    columns: rows and columns stay permutations, associativity usually fails."""
    n = len(rows)
    out = [list(row) for row in rows]
    r1, r2 = rng.sample(range(1, n), 2)
    where = {v: c for c, v in enumerate(out[r1])}
    cycle, c = [], rng.randrange(1, n)
    while c not in cycle:
        cycle.append(c)
        c = where[out[r2][c]]
    for c in cycle:
        out[r1][c], out[r2][c] = out[r2][c], out[r1][c]
    return tuple(map(tuple, out))


def swap_in_row(rows, rng):
    out = [list(row) for row in rows]
    i = rng.randrange(len(out))
    a, b = rng.sample(range(len(out)), 2)
    out[i][a], out[i][b] = out[i][b], out[i][a]
    return tuple(map(tuple, out))


def with_fixed_point(table):
    """The table on one more point: a new 0, fixed by every row, whose own
    row is the identity."""
    return (tuple(range(len(table) + 1)), *((0, *(v + 1 for v in row)) for row in table))


def small_solutions_by_order(brace_catalog):
    out = {n: [] for n in SIZES}
    for _, b in brace_catalog:
        if b.n in out:
            out[b.n].append(yb.associated_solution(b))
    for table in groups_by_order()[9]:
        g = finite_group(table)
        for b in (yb.trivial_brace(g), yb.almost_trivial_brace(g)):
            out[9].append(yb.associated_solution(b))
    return out


# ---------------------------------------------------------------------------
# tests


def test_derived_rack_criterion_agrees_with_braid_mismatch_on_all_small_tables():
    # every pair of tables with permutation rows, bijective or not: the
    # braid verdict agrees with the triple scan, and every derived row is a
    # permutation exactly when the pair-image scan finds no collision
    for n in (1, 2, 3):
        perms = list(itertools.permutations(range(n)))
        for sigma in itertools.product(perms, repeat=n):
            for tau in itertools.product(perms, repeat=n):
                derived = _derived_rows(sigma, tau)
                assert _braids(sigma, tau, derived) == (
                    _braid_mismatch(sigma, tau, n) is None), (sigma, tau)
                assert all(len(set(row)) == n for row in derived) == (
                    _pair_collision(sigma, tau, n) is None), (sigma, tau)


def test_validate_tables_and_distributivity_match_the_triple_loop(brace_catalog):
    rng = random.Random(90210)
    seen, off_row_0 = set(), set()

    def check(sigma, tau, right=True):
        v = validate_tables(sigma, tau)
        assert v == validate_oracle(sigma, tau), (sigma, tau)
        t = FiniteSolution(n=len(sigma), sigma=sigma, tau=tau)
        assert yb.is_left_distributive(t) == distributive_oracle(sigma)
        if right:
            assert yb.is_right_distributive(t) == distributive_oracle(tau)
        kind = None if v is None else v.check.split(":")[0]
        seen.add(kind)
        # the witness's first pair (or triple) lies past row x = 0
        if kind == "bijectivity" and v.witness[0][0] or kind == "birack" and v.witness[0]:
            off_row_0.add(kind)

    for n, solutions in small_solutions_by_order(brace_catalog).items():
        assert solutions, n
        for trial in range(40):
            s = yb.relabel(rng.choice(solutions), rng.sample(range(n), n))
            sigma, tau = s.sigma, s.tau
            for _ in range(trial % 3):
                if rng.random() < 0.5:
                    sigma = swap_in_row(sigma, rng)
                else:
                    tau = swap_in_row(tau, rng)
            check(sigma, tau)
    # n = 1 and 2: every pair of tables with permutation rows
    for n in (1, 2):
        perms = list(itertools.permutations(range(n)))
        for sigma in itertools.product(perms, repeat=n):
            for tau in itertools.product(perms, repeat=n):
                check(sigma, tau)
    # identity (i) alone broken, at every x but 0: two 3-point table pairs
    # whose only broken identity is (i), with a point prepended that every
    # row fixes and whose rows are the identity
    for sigma, tau in [
        (((0, 2, 1), (0, 2, 1), (1, 2, 0)), ((0, 2, 1), (2, 0, 1), (0, 2, 1))),
        (((1, 0, 2), (1, 2, 0), (1, 0, 2)), ((2, 0, 1), (1, 0, 2), (1, 0, 2))),
    ]:
        check(with_fixed_point(sigma), with_fixed_point(tau))
    # 300 points compose tuple rows; a swap in a sigma-row is found early
    # by both routes, and right distributivity of the untouched tau would
    # take the triple loop n^3 steps, so it is left out there
    z150 = yb.abelian_group([150])
    big = yb.union_to_solution(
        yb.abelian_union([z150, z150], [[1, 2], [3, 0]], [[0, 5], [7, 1]])
    )
    big_rng = random.Random(5)
    for _ in range(3):
        check(swap_in_row(big.sigma, big_rng), big.tau, right=False)
    # the corruptions reach both the bijectivity check and the braid
    # relation, each with a first failure past row 0
    assert seen == {None, "bijectivity", "birack"}, seen
    assert off_row_0 == {"bijectivity", "birack"}, off_row_0


def test_valid_tables_never_reach_a_witness_scan(census_solutions, brace_catalog, monkeypatch):
    # the pair and triple scans only name the witness of a failed verdict
    def scan(*args):
        raise AssertionError("witness scan on valid tables")

    monkeypatch.setattr(solution_module, "_pair_collision", scan)
    monkeypatch.setattr(solution_module, "_braid_mismatch", scan)
    census = [s for n in range(1, 5) for s in census_solutions[n]]
    catalog = [yb.associated_solution(b) for _, b in brace_catalog]
    for s in census + catalog:
        assert validate_tables(s.sigma, s.tau) is None, s


def test_finite_group_messages_match_the_triple_loop():
    rng = random.Random(4242)
    seen = set()
    for n, tables in groups_by_order().items():
        if n not in SIZES:
            continue
        for trial in range(30):
            rows = relabel_table(rng.choice(tables), rng.sample(range(n), n))
            if trial % 3 == 1:
                rows = cycle_switch(rows, rng)
            elif trial % 3 == 2:
                rows = swap_in_row(rows, rng)
            expected = group_oracle(rows)
            try:
                g = finite_group(rows)
            except ValueError as exc:
                assert str(exc) == expected, rows
                seen.add(expected.split()[0])
            else:
                assert expected is None and g.table == rows
                seen.add(None)
    assert {None, "associativity", "table"} <= seen, seen


def test_brace_law_witnesses_match_the_triple_loop(brace_catalog):
    rng = random.Random(1717)
    tables = groups_by_order()
    braces = [b for _, b in brace_catalog if b.n in SIZES]
    failures = passes = 0
    for trial in range(120):
        if trial % 2:
            b = rng.choice(braces)
            phi = fixing_zero(rng, b.n)
            dot, circ = relabel_table(b.dot.table, phi), relabel_table(b.circle.table, phi)
        else:
            n = rng.choice([m for m in tables if m in SIZES])
            dot, circ = (relabel_table(rng.choice(tables[n]), fixing_zero(rng, n))
                         for _ in range(2))
        expected = brace_law_oracle(dot, circ)
        try:
            b = yb.verify_brace(dot, circ)
        except yb.BraceError as exc:
            assert exc.violation == BraceViolation("brace-law", expected)
            failures += 1
            continue
        assert expected is None
        passes += 1
        swapped = brace_law_oracle(circ, dot)
        assert _brace_law_failure(b.circle, b.dot) == swapped
        assert yb.is_biskew(b) == (swapped is None)
    assert failures and passes


def test_is_2reductive_matches_the_pair_loop(census_solutions, brace_catalog):
    # census solutions pass all four identities; catalog solutions fail some;
    # above 256 points the rows compose as tuples, on a union and on shifts
    # sigma_x(y) = y + x, whose sigma-rows are all distinct
    z131 = yb.abelian_group([131])
    union = yb.union_to_solution(
        yb.abelian_union([z131, z131], [[1, 2], [3, 0]], [[0, 5], [7, 1]])
    )
    n = 300
    shifts = FiniteSolution(
        n=n,
        sigma=tuple(tuple((y + x) % n for y in range(n)) for x in range(n)),
        tau=tuple(tuple(range(n)) for _ in range(n)),
    )
    catalog = [yb.associated_solution(b) for _, b in brace_catalog]
    census = [s for n in census_solutions for s in census_solutions[n]]
    for s in census + catalog + [union, shifts]:
        assert yb.is_2reductive(s) == two_reductive_oracle(s), s.n
    assert any(not yb.is_2reductive(s).holds for s in catalog)
    assert yb.is_2reductive(shifts) == TwoReductivity(False, True, True, True)


def test_row_kernel_composes_like_compose():
    rng = random.Random(3)
    for n in (1, 5, 256, 257, 300):
        table = [tuple(rng.sample(range(n), n)) for _ in range(6)]
        rows, maps, then, join, invert = _row_kernel(table)
        assert isinstance(rows[0], bytes if n <= 256 else tuple)
        for i, j in itertools.product(range(6), repeat=2):
            composed = then(rows[j], maps[i])
            assert tuple(composed) == compose(table[i], table[j])
            assert (composed == rows[0]) == (compose(table[i], table[j]) == table[0])
        # one call composes a map with every row joined; inverses encode alike
        every = join(rows)
        for i in range(6):
            expected = itertools.chain.from_iterable(compose(table[i], row) for row in table)
            assert tuple(then(every, maps[i])) == tuple(expected)
            assert invert(rows[i]) == type(rows[i])(invert_perm(table[i]))


@pytest.mark.parametrize("order", [8, 9, 12, 16])
def test_pruned_isomorphisms_yield_the_product_order_filter(order):
    # with elements and forced images, the maps are the filter's that send
    # the forced prefix of elements to its images, in lexicographic order
    # of the images of elements and then of the standard generators
    rng = random.Random(order)
    groups = yb.abelian_groups_of_order(order)
    for source in groups:
        gens = [order // prod(source.factors[:i + 1]) for i in range(len(source.factors))]
        for target in groups:
            tg = target.as_finite_group
            every = list(isomorphisms_oracle(source, tg))
            assert list(_isomorphisms(source, tg)) == every
            if not every:
                continue
            for trial in range(4):
                elements = rng.choices(range(order), k=rng.randint(1, 3))
                phi = rng.choice(every)
                if trial == 0:
                    forced = []
                elif trial == 3:
                    forced = [rng.randrange(order) for _ in elements]
                else:
                    forced = [phi[e] for e in elements][:rng.randint(1, len(elements))]
                expected = sorted(
                    (p for p in every if all(p[e] == f for e, f in zip(elements, forced))),
                    key=lambda p: ([p[e] for e in elements], [p[g] for g in gens]),
                )
                assert list(_isomorphisms(source, tg, elements, forced)) == expected, (
                    source, target, elements, forced
                )
