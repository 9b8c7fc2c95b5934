"""Row-composition kernels: every O(n^3) check against a scalar triple loop,
and every pair condition against a loop over pairs.

The library compares composed table rows, one row per table row where it
can, decides associativity and the brace law on a generating set, and
bijectivity and the braid relation from the derived rows; these tests hold
each check to a test-local loop over all pairs or triples, verdict and
witness, on random corrupted tables and on every small table of a kind, and
the pruned automorphism search to the plain product filter.
"""

from __future__ import annotations

import io
import itertools
import random
from math import prod

import pytest

import yangbaxter as yb
import yangbaxter.solution as solution_module
from yangbaxter import cli
from yangbaxter.brace import BraceViolation, _brace_law_failure
from yangbaxter.groups import (
    _coset_quotient,
    _isomorphisms,
    _row_kernel,
    compose,
    element_order,
    finite_group,
    invert_perm,
    is_subgroup,
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


def is_permutation(row, n):
    """Whether row lists each of 0..n-1 exactly once, by set equality: a check
    of the test's own, so that the oracles share no code with the library."""
    return len(row) == n and set(row) == set(range(n))


def validate_oracle(sigma, tau):
    """validate_tables as a plain loop: rows, bijectivity, then the braid
    relation composed on every triple, first mismatch in lex order."""
    n = len(sigma)
    for i, row in enumerate(sigma):
        if not is_permutation(row, n):
            return Violation("sigma-row", (i,))
    for i, row in enumerate(tau):
        if not is_permutation(row, n):
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
        if not is_permutation(row, n):
            return f"table row {i} is not a permutation of 0..{n - 1}"
    for j in range(n):
        if not is_permutation([rows[i][j] for i in range(n)], n):
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


def subgroup_oracle(table, s):
    """is_subgroup as a loop over pairs: non-empty, in range, holds the
    identity and is closed."""
    n = len(table)
    ident = next(e for e in range(n) if table[e][e] == e)
    return (bool(s) and all(0 <= x < n for x in s) and ident in s
            and all(table[a][b] in s for a in s for b in s))


def normal_oracle(table, s):
    """is_normal as conjugation of every element of s by every element."""
    n = len(table)
    ident = next(e for e in range(n) if table[e][e] == e)
    inv = [next(b for b in range(n) if table[a][b] == ident) for a in range(n)]
    return subgroup_oracle(table, s) and all(
        table[table[inv[a]][x]][a] in s for a in range(n) for x in s
    )


def ideal_oracle(dot, circ, s):
    """is_ideal: normal in both groups and lambda_a(x) = a^-1 . (a o x) in s
    for every a and every x in s."""
    n = len(dot)
    ident = next(e for e in range(n) if dot[e][e] == e)
    inv = [next(b for b in range(n) if dot[a][b] == ident) for a in range(n)]
    return normal_oracle(dot, s) and normal_oracle(circ, s) and all(
        dot[inv[a]][circ[a][x]] in s for a in range(n) for x in s
    )


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


def involutive_oracle(sigma, tau):
    n = len(sigma)

    def r(x, y):
        return sigma[x][y], tau[y][x]

    return all(r(*r(x, y)) == (x, y) for x, y in itertools.product(range(n), repeat=2))


def condition_star_oracle(sigma, tau):
    n = len(sigma)
    return all(
        any(sigma[y][x] == x for y in range(n)) and any(tau[y][x] == x for y in range(n))
        for x in range(n)
    )


def coset_quotient_oracle(table, s):
    """The quotient by a normal subgroup s: cosets indexed by their sorted
    minima, (quotient table, identity, inverses, projection)."""
    n = len(table)
    coset_min = [min(table[a][x] for x in s) for a in range(n)]
    reps = sorted(set(coset_min))
    proj = tuple(reps.index(m) for m in coset_min)
    ident = next(e for e in range(n) if table[e][e] == e)
    quotient = tuple(tuple(proj[table[a][b]] for b in reps) for a in reps)
    inv = tuple(proj[next(b for b in range(n) if table[a][b] == ident)] for a in reps)
    return quotient, proj[ident], inv, proj


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


def normalized_latin_squares(n):
    """Every n x n Latin square whose row 0 and column 0 are the identity:
    every loop on 0..n-1 with identity 0."""
    rows = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    in_row = [set(row) - {None} for row in rows]
    in_col = [{0, *range(1, n)} if j == 0 else {j} for j in range(n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]
    out = []

    def fill(k):
        if k == len(cells):
            out.append(tuple(map(tuple, rows)))
            return
        i, j = cells[k]
        for v in range(n):
            if v not in in_row[i] and v not in in_col[j]:
                rows[i][j] = v
                in_row[i].add(v)
                in_col[j].add(v)
                fill(k + 1)
                in_row[i].discard(v)
                in_col[j].discard(v)

    fill(0)
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
                s_kernel, tau_cols = _row_kernel(sigma), list(zip(*tau))
                derived = _derived_rows(s_kernel, tau_cols)
                assert _braids(s_kernel, tau_cols, _row_kernel(derived)) == (
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


def test_2reductive_tables_get_the_triple_loop_verdict(census_solutions):
    # tables that satisfy red1-red4 are decided by whether their rows
    # commute; where they do not, the derived-rack route names the
    # witness.  Every verdict is the triple loop's
    def constant_along(t, u):
        """t_{u_x(y)} = t_y for all x, y."""
        return all(t[row[y]] == t[y] for row in u for y in range(len(t)))

    n = 3
    tables = list(itertools.product(itertools.permutations(range(n)), repeat=n))
    assert len(tables) ** 2 == 46656
    # red1 of sigma and red2 of tau are the same condition on one table
    closed = [t for t in tables if constant_along(t, t)]
    pairs = [
        (sigma, tau) for sigma in closed for tau in closed
        if constant_along(sigma, tau) and constant_along(tau, sigma)    # red3, red4
    ]
    assert len(pairs) == 72
    verdicts = [validate_tables(sigma, tau) for sigma, tau in pairs]
    assert verdicts == [validate_oracle(sigma, tau) for sigma, tau in pairs]
    assert verdicts.count(None) == 54
    # permutational tables, sigma_x = f and tau_y = g, satisfy red1-red4 and
    # are a solution iff fg = gf
    for n in (3, 4):
        for f, g in itertools.product(itertools.permutations(range(n)), repeat=2):
            sigma, tau = (f,) * n, (g,) * n
            v = validate_tables(sigma, tau)
            assert v == validate_oracle(sigma, tau), (f, g)
            assert (v is None) == all(f[g[x]] == g[f[x]] for x in range(n)), (f, g)
    # census solutions with two entries of one row swapped: most fail
    # red1-red4, some satisfy them with rows that do not commute
    rng = random.Random(8)
    two_reductive = set()
    for s in (s for n in range(2, 5) for s in census_solutions[n]):
        sigma, tau = s.sigma, s.tau
        if rng.random() < 0.5:
            sigma = swap_in_row(sigma, rng)
        else:
            tau = swap_in_row(tau, rng)
        v = validate_tables(sigma, tau)
        assert v == validate_oracle(sigma, tau), (sigma, tau)
        if two_reductive_oracle(FiniteSolution(n=s.n, sigma=sigma, tau=tau)).holds:
            two_reductive.add(v is None)
    assert two_reductive == {True, False}


def test_verify_decides_2reductive_tables_without_derived_rows(
    census_solutions, brace_catalog, monkeypatch
):
    # relabelled census solutions and a relabelled 260-point union are
    # accepted by their commuting rows, no derived row built; tables that
    # fail red1-red4 still take the derived-rack route
    rng = random.Random(25)
    z130 = yb.abelian_group([130])
    big = yb.union_to_solution(
        yb.abelian_union([z130, z130], [[1, 2], [3, 0]], [[0, 5], [7, 1]])
    )
    relabelled = [
        yb.relabel(s, rng.sample(range(s.n), s.n))
        for s in [*(s for n in range(1, 6) for s in census_solutions[n]), big]
    ]
    derived_rows = solution_module._derived_rows
    calls = []

    def refuse(*args):
        raise AssertionError("derived rows of 2-reductive tables")

    def counted(*args):
        calls.append(args)
        return derived_rows(*args)

    monkeypatch.setattr(solution_module, "_derived_rows", refuse)
    for s in relabelled:
        assert yb.verify(s.sigma, s.tau) == s
    monkeypatch.setattr(solution_module, "_derived_rows", counted)
    s = next(
        s for s in (yb.associated_solution(b) for _, b in brace_catalog)
        if not yb.is_2reductive(s).holds
    )
    assert yb.verify(s.sigma, s.tau) == s and len(calls) == 1


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


def test_finite_group_on_every_table_up_to_order_3():
    # every n x n table over 0..n-1 for n <= 3: the messages agree with the
    # loop, and the inverses finite_group reads off the rows are two-sided,
    # as the monoid theorem says.  Every loop (a Latin square with an
    # identity) of order below 5 is a group, so associativity cannot fail
    # here; the test above reaches that branch from n = 4.
    seen = {}
    for n in (1, 2, 3):
        for flat in itertools.product(range(n), repeat=n * n):
            rows = tuple(flat[i * n:(i + 1) * n] for i in range(n))
            expected = group_oracle(rows)
            try:
                g = finite_group(rows)
            except ValueError as exc:
                assert str(exc) == expected, rows
            else:
                assert expected is None and g.table == rows
                for a in range(n):
                    b = g.inv[a]
                    assert rows[a][b] == rows[b][a] == g.id, rows
            key = None if expected is None else expected.split()[1]
            seen[key] = seen.get(key, 0) + 1
    assert seen == {"row": 19_479, "column": 206, "has": 9, None: 6}, seen


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


def test_finite_group_on_every_loop_up_to_order_6():
    # associativity is checked for a generating set first; on every loop
    # with identity 0 (4 + 56 + 9,408 tables) the message is the loop's
    groups = 0
    for n in (4, 5, 6):
        for rows in normalized_latin_squares(n):
            expected = group_oracle(rows)
            try:
                g = finite_group(rows)
            except ValueError as exc:
                assert str(exc) == expected, rows
                continue
            assert expected is None and g.table == rows
            groups += 1
    # the labellings fixing 0 of Z2^2 and Z4, of Z5, and of Z6 and S3
    assert groups == 4 + 6 + (60 + 20)


def test_brace_law_on_every_relabelled_pair_of_groups_up_to_order_6():
    # the generating-set verdict and the witness scan vs the triple loop,
    # on every pair (G, phi(H)) of groups of one order <= 6, phi fixing 0
    tables = groups_by_order()
    braces = laws = 0
    for n in (2, 3, 4, 5, 6):
        for dot_table in tables[n]:
            dot = finite_group(dot_table)
            for circ_table in tables[n]:
                for rest in itertools.permutations(range(1, n)):
                    circ = finite_group(relabel_table(circ_table, (0, *rest)))
                    expected = brace_law_oracle(dot.table, circ.table)
                    assert _brace_law_failure(dot, circ) == expected, (dot.table, circ.table)
                    braces += expected is None
                    laws += 1
    assert 0 < braces < laws


def test_subgroup_normal_and_ideal_match_the_element_loops(brace_catalog):
    # every subset of every group of order <= 8, and of every catalog brace
    # of order <= 8
    seen = {"subgroup": 0, "normal": 0, "ideal": 0}
    for _, g in yb.small_groups(8):
        for mask in range(1 << g.n):
            s = {x for x in range(g.n) if mask >> x & 1}
            sub = subgroup_oracle(g.table, s)
            assert is_subgroup(g, s) == sub, (g.table, s)
            assert yb.is_normal(g, s) == normal_oracle(g.table, s), (g.table, s)
            seen["subgroup"] += sub and not normal_oracle(g.table, s)
    for name, b in brace_catalog:
        if b.n > 8:
            continue
        for mask in range(1 << b.n):
            s = {x for x in range(b.n) if mask >> x & 1}
            ideal = ideal_oracle(b.dot.table, b.circle.table, s)
            assert yb.is_ideal(b, s) == ideal, (name, s)
            seen["normal"] += normal_oracle(b.dot.table, s) and not ideal
            seen["ideal"] += ideal and len(s) not in (1, b.n)
    # non-normal subgroups, normal sets that are no ideal, proper ideals
    assert all(seen.values()), seen
    assert not is_subgroup(yb.cyclic_group(4), {0, 4})


def test_coset_quotient_matches_the_coset_loop():
    for _, g in yb.small_groups(8):
        for mask in range(1 << g.n):
            s = {x for x in range(g.n) if mask >> x & 1}
            if not normal_oracle(g.table, s):
                continue
            q, proj = _coset_quotient(g, s)
            assert (q.table, q.id, q.inv, proj) == coset_quotient_oracle(g.table, s), (g.table, s)


def report_sections(b):
    """brace_report(b, full=True) as two {key: value} dicts: the brace's
    lines and those of its associated solution."""
    out = io.StringIO()
    cli.brace_report(b, full=True, out=out)
    return tuple(
        dict(line.split(": ", 1) for line in part.strip().splitlines())
        for part in out.getvalue().split("associated_solution:\n")
    )


def at_most_2(described):
    """Whether a described class or level ("nilpotent of class 2", "1",
    "not nilpotent (series stabilizes at size 3)") is a number <= 2."""
    last = described.split()[-1]
    return last.isdigit() and int(last) <= 2


def group_automorphisms(table):
    """Every permutation fixing 0 that respects table, by a loop over pairs."""
    n = len(table)
    perms = ((0, *rest) for rest in itertools.permutations(range(1, n)))
    return [phi for phi in perms
            if all(phi[table[a][b]] == table[phi[a]][phi[b]] for a in range(n) for b in range(n))]


def skew_braces_by_definition(n):
    """Every skew brace of order n up to isomorphism, by definitions only:
    {dot group name: [circle tables]}.  Per dot group G of small_groups, each
    relabelling fixing 0 of each group H of order n that passes the brace
    law with G, one per orbit of Aut(G): braces (G, o) and (G, o') are
    isomorphic iff an automorphism of G carries o to o'."""
    groups = [(name, g.table) for name, g in yb.small_groups(8) if g.n == n]
    out = {}
    for name, dot in groups:
        auts = group_automorphisms(dot)
        seen, reps = set(), []
        for _, h in groups:
            for rest in itertools.permutations(range(1, n)):
                circ = relabel_table(h, (0, *rest))
                if circ in seen or brace_law_oracle(dot, circ) is not None:
                    continue
                seen.update(relabel_table(circ, phi) for phi in auts)
                reps.append(circ)
        out[name] = reps
    return out


def check_report_by_definitions(dot, circ):
    """brace_report's derived lines vs definitions on the tables: the hom
    and antihom flags of lambda and rho, built here, vs the loop over pairs;
    bi_skew vs the swapped brace law; and two_reductive, the two-sided
    identity, level <= 2, class <= 2 and the class of the opposite brace
    (dot table transposed) <= 2, all equal.  Returns (red1, ..., red4)."""
    n = len(dot)
    b = yb.verify_brace(dot, circ)
    ident = next(e for e in range(n) if dot[e][e] == e)
    dinv = [dot[a].index(ident) for a in range(n)]
    cinv = [circ[a].index(ident) for a in range(n)]
    lams = [tuple(dot[dinv[a]][circ[a][x]] for x in range(n)) for a in range(n)]
    rhos = [tuple(circ[circ[cinv[lams[x][y]]][x]][y] for x in range(n)) for y in range(n)]
    lam = family_flags_oracle(dot, circ, lams)
    rho = family_flags_oracle(dot, circ, rhos)
    report, solution = report_sections(b)
    assert report["lambda_hom"] == (
        f"hom={lam[0]} antihom={lam[1]} rho_hom={rho[0]} rho_antihom={rho[1]}"
    ), (dot, circ)
    assert report["bi_skew"] == str(brace_law_oracle(circ, dot) is None), (dot, circ)
    opposite = yb.verify_brace(tuple(zip(*dot)), circ)
    five = {
        report["two_reductive"] == "True",
        lam[2] and rho[2],
        at_most_2(solution["mp_level"]),
        at_most_2(report["nilpotency"]),
        at_most_2(yb.socle_series(opposite).describe()),
    }
    assert len(five) == 1, (dot, circ)
    return tuple(kv.split("=")[1] == "True" for kv in report["reductivity"].split())


def test_family_flags_match_the_pair_loop(brace_catalog):
    for _, b in brace_catalog:
        check_report_by_definitions(b.dot.table, b.circle.table)


# every skew brace of orders 1..8 by its dot group (Guarnieri and Vendramin,
# Math. Comp. 86, 2017, count 1, 1, 1, 4, 1, 6, 1, 47)
BRACES_BY_DOT_GROUP = {
    1: {"Z1": 1},
    2: {"Z2": 1},
    3: {"Z3": 1},
    4: {"Z4": 2, "Z2xZ2": 2},
    5: {"Z5": 1},
    6: {"Z6": 2, "S3": 4},
    7: {"Z7": 1},
    8: {"Z8": 5, "Z2xZ4": 14, "Z2xZ2xZ2": 8, "D4": 12, "Q8": 8},
}


def check_every_skew_brace(n):
    """Pins the braces of order n per dot group and checks the report of
    each by definitions; returns the set of (red1, ..., red4) seen."""
    found = skew_braces_by_definition(n)
    assert {name: len(reps) for name, reps in found.items()} == BRACES_BY_DOT_GROUP[n], n
    dots = dict(yb.small_groups(8))
    return {
        check_report_by_definitions(dots[name].table, circ)
        for name, reps in found.items() for circ in reps
    }


def test_every_skew_brace_up_to_order_7():
    reds = {n: check_every_skew_brace(n) for n in range(1, 8)}
    # at order 6 each of red1-red4 holds on some brace and fails on another
    assert {(i, red[i]) for red in reds[6] for i in range(4)} == {
        (i, flag) for i in range(4) for flag in (True, False)
    }


@pytest.mark.slow
def test_every_skew_brace_of_order_8():
    check_every_skew_brace(8)


def test_involutive_and_condition_star_match_the_pair_loop():
    # every pair of tables with permutation rows, n <= 3, solutions or not,
    # and a 300-point union (tuple rows) with its r^-1-twisted partner
    verdicts = set()
    for n in (1, 2, 3):
        perms = list(itertools.permutations(range(n)))
        for sigma in itertools.product(perms, repeat=n):
            for tau in itertools.product(perms, repeat=n):
                s = FiniteSolution(n=n, sigma=sigma, tau=tau)
                inv, star = involutive_oracle(sigma, tau), condition_star_oracle(sigma, tau)
                assert yb.is_involutive(s) == inv, (sigma, tau)
                assert yb.satisfies_condition_star(s) == star, (sigma, tau)
                verdicts.add((inv, star))
    assert len(verdicts) == 4
    z150 = yb.abelian_group([150])
    for c, d in (([[1, 2], [3, 0]], [[0, 5], [7, 1]]), ([[1, 0], [0, 1]], [[149, 0], [0, 149]])):
        s = yb.union_to_solution(yb.abelian_union([z150, z150], c, d))
        assert yb.is_involutive(s) == involutive_oracle(s.sigma, s.tau)
        assert yb.satisfies_condition_star(s) == condition_star_oracle(s.sigma, s.tau)


def test_generating_set_verdicts_above_256_points():
    # tuple rows: Z258 passes both verdicts; a cycle-switched Z258 and a
    # relabelled pair fail at triples that fail, with none before them
    rng = random.Random(258)
    z = yb.cyclic_group(258)
    n = z.n
    assert finite_group(z.table).table == z.table
    assert _brace_law_failure(z, z) is None
    rows = cycle_switch(z.table, rng)
    with pytest.raises(ValueError, match="associativity") as exc:
        finite_group(rows)
    a, b, c = map(int, exc.value.args[0].split("(")[1].rstrip(")").split(","))

    def assoc(a, b, c):
        return rows[rows[a][b]][c] == rows[a][rows[b][c]]

    assert not assoc(a, b, c)
    assert all(assoc(*t) for t in itertools.islice(itertools.product(range(n), repeat=3),
                                                    (a * n + b) * n + c))
    circ = finite_group(relabel_table(z.table, fixing_zero(rng, n)))
    dot, ct = z.table, circ.table
    a, b, c = _brace_law_failure(z, circ)

    def law(a, b, c):
        return ct[a][dot[b][c]] == dot[dot[ct[a][b]][z.inv[a]]][ct[a][c]]

    assert not law(a, b, c)
    assert all(law(*t) for t in itertools.islice(itertools.product(range(n), repeat=3),
                                                  (a * n + b) * n + c))
