"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line and then
asserts, with stated runtime bounds.  The independent oracles live in
tests/oracles.py, which imports nothing from the library, so they cannot
share code with the paths they check.

The census figures of criteria 1-2 rest on two routes that share no code
with the census: a count by hand, cell by cell, of the union classes
(recorded beside each figure), and criterion 3's scan, which finds every
2-reductive solution of size n <= 4 from the definitions alone.  They
replace reference figures (14 and 96 classes, 3 square-free) that neither
route reproduces; the README lists the alternative readings tried.
"""

from __future__ import annotations

import functools
import itertools
import time
from collections import Counter

import yangbaxter as yb
from oracles import (
    class_key,
    distributive_oracle,
    family_flags_oracle,
    involutive_oracle,
    lambdas_rhos,
    perms_commute,
    two_reductive_oracle,
    validate_oracle,
)


def _report(num: int, name: str, ok: bool, detail: str = "") -> str:
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    return line


# ---------------------------------------------------------------------------
# 1. census counts


# Hand count of the union classes of size 4, one cell per orbit type.  The
# entries of column j of (C, D) lie in block j and must generate it; two
# unions are isomorphic under block permutations within a type and block
# automorphisms.  Criterion 3's scan from the definitions gives the same
# figures.
CENSUS_4_BY_TYPE = {
    # (c, d) in Z4^2 with an odd entry: 12 pairs, none fixed by -1, so 6.
    "Z4": 6,
    # (c, d) a basis of Z2xZ2: 6 pairs, one orbit under GL2(F2).
    "Z2xZ2": 1,
    # column 0 is 4 entries of Z3, not all 0: 80 columns modulo -1.
    "Z3+Z1": 40,
    # each column is 4 entries of Z2, not all 0: 15^2 pairs, of which 15 are
    # fixed by swapping the blocks, so (15^2 + 15) / 2.
    "Z2+Z2": 120,
    # column 0: the Z2 row (4 choices) and an unordered pair of Z1 rows
    # (10 choices), less the zero column: 4 * 10 - 1.
    "Z2+Z1+Z1": 39,
    "Z1+Z1+Z1+Z1": 1,
}


def test_criterion_1_census_counts():
    t0 = time.perf_counter()
    c3 = yb.enumerate_2reductive(3)
    c4 = yb.enumerate_2reductive(4)
    elapsed = time.perf_counter() - t0
    by_type = Counter(u.orbit_type_label() for u in c4)
    # n=3 by hand: Z3 has 8 nonzero (c, d) modulo -1, so 4; Z2+Z1 has 15
    # nonzero columns of 4 entries of Z2; Z1+Z1+Z1 has 1.  4 + 15 + 1 = 20.
    # n=4 is the sum of CENSUS_4_BY_TYPE: 207.  Criterion 3's scan gives both.
    ok = (
        len(c3) == 20
        and len(c4) == 207
        and dict(by_type) == CENSUS_4_BY_TYPE
        and elapsed < 10.0
    )
    detail = (
        f"n=3: {len(c3)} (expected 20), n=4: {len(c4)} (expected 207), "
        f"breakdown {dict(by_type)}, {elapsed:.2f}s"
    )
    _report(1, "census counts", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 2. census refinement


def test_criterion_2_census_refinement():
    c3 = yb.enumerate_2reductive(3)
    preds = [yb.union_predicates(u) for u in c3]
    involutive = sum(p.involutive for p in preds)
    square_free = sum(p.square_free for p in preds)
    # Involutive means D = -C.  By hand: 1 on Z3 (d = -c, c != 0, modulo -1),
    # 3 on Z2+Z1 (d = c in column 0, which is nonzero) and the trivial
    # solution, so 5, as in Etingof-Schedler-Soloviev's classification.
    # Square-free means a zero diagonal.  By hand: none on Z3 (its column
    # would be zero), 3 on Z2+Z1 (the Z1 row of column 0 is nonzero) and the
    # trivial solution, so 4.  Criterion 3's scan gives both.
    ok = involutive == 5 and square_free == 4
    detail = f"involutive {involutive} (expected 5), square-free {square_free} (expected 4)"
    _report(2, "census refinement", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 3. completeness oracle


def _reductive_rows(n):
    """Every table of n permutation rows with T[T[x][y]] == T[y], the
    identity that 2-reductivity asks of sigma alone and of tau alone."""
    perms = list(itertools.permutations(range(n)))
    tables = []

    def extend(rows):
        m = len(rows)
        if m == n:
            tables.append(tuple(rows))
            return
        for p in perms:
            rows.append(p)
            # check the pairs (x, y) whose three rows are all chosen
            if all(
                rows[rows[x][y]] == rows[y]
                for x in range(m + 1)
                for y in range(m + 1)
                if rows[x][y] <= m
            ):
                extend(rows)
            rows.pop()

    extend([])
    return tables


def _scan_2reductive(n):
    """One (sigma, tau) per isomorphism class of 2-reductive solutions of
    size n, from the definitions alone: permutation rows (non-degeneracy),
    r bijective on pairs and the braid relation (validate_oracle), and the
    four identities (two_reductive_oracle)."""
    rows = _reductive_rows(n)
    return {
        class_key(sigma, tau)
        for sigma in rows
        for tau in rows
        if all(two_reductive_oracle(sigma, tau)) and validate_oracle(sigma, tau) is None
    }


def _perm_order(g):
    k, power = 1, g
    while power != tuple(range(len(g))):
        power, k = tuple(g[i] for i in power), k + 1
    return k


def _orbit_type_label(gens, n):
    """Census-style orbit type of the group the permutations generate.

    The group acts regularly on each orbit (abelian and transitive there),
    so it induces a group of the orbit's size; below order 8 the only
    non-cyclic abelian group is Z2xZ2.
    """
    blocks = []
    placed = set()
    for start in range(n):
        if start in placed:
            continue
        orbit, frontier = {start}, [start]
        while frontier:
            x = frontier.pop()
            for g in gens:
                if g[x] not in orbit:
                    orbit.add(g[x])
                    frontier.append(g[x])
        placed |= orbit
        pts = sorted(orbit)
        m = len(pts)
        pos = {x: i for i, x in enumerate(pts)}
        local = {tuple(pos[g[x]] for x in pts) for g in gens}
        ident = tuple(range(m))
        group, frontier = {ident}, [ident]
        while frontier:
            h = frontier.pop()
            for g in local:
                gh = tuple(g[i] for i in h)
                if gh not in group:
                    group.add(gh)
                    frontier.append(gh)
        assert len(group) == m < 8, f"orbit {pts}: induced group of order {len(group)}"
        cyclic = any(_perm_order(g) == m for g in group)
        label = f"Z{m}" if cyclic else "Z2xZ2"
        blocks.append((-m, label))
    return "+".join(label for _, label in sorted(blocks))


def _scan_profile(classes, n):
    """Orbit-type breakdown, involutive and square-free counts of a scan."""
    by_type, involutive, square_free = Counter(), 0, 0
    for sigma, tau in classes:
        by_type[_orbit_type_label(sigma + tau, n)] += 1
        involutive += involutive_oracle(sigma, tau)
        square_free += all(sigma[x][x] == tau[x][x] == x for x in range(n))
    return dict(by_type), involutive, square_free


def _census_profile(census):
    preds = [yb.union_predicates(u) for u in census]
    return (
        dict(Counter(u.orbit_type_label() for u in census)),
        sum(p.involutive for p in preds),
        sum(p.square_free for p in preds),
    )


@functools.lru_cache(maxsize=None)
def census_keys(n):
    """class_key of each census solution of size n, in census order; shared
    by criteria 3 and 4."""
    return [class_key(s.sigma, s.tau)
            for s in map(yb.union_to_solution, yb.enumerate_2reductive(n))]


def test_criterion_3_completeness_oracle(small_solutions):
    t0 = time.perf_counter()
    ok = True
    details = []
    # The library's own verifier and identities pick out the census classes
    # among all table pairs (small_solutions: one solution per class).
    for n in (2, 3):
        classes = [s for s in small_solutions if s.n == n and yb.is_2reductive(s).holds]
        census = len(yb.enumerate_2reductive(n))
        details.append(f"n={n}: brute force {len(classes)}, census {census}")
        ok = ok and len(classes) == census
    # A search that uses no library code finds the same classes, with the
    # same orbit types and involutive and square-free subcounts.  As the
    # census has as many entries as the scan has keys, its keys are
    # pairwise distinct: its entries are pairwise non-isomorphic.
    for n in range(1, 5):
        scanned = _scan_2reductive(n)
        census = yb.enumerate_2reductive(n)
        listed = set(census_keys(n))
        scan_profile = _scan_profile(scanned, n)
        census_profile = _census_profile(census)
        details.append(
            f"n={n}: definitions scan {len(scanned)} {scan_profile}, "
            f"census {len(census)} {census_profile}"
        )
        ok = (
            ok
            and len(census) == len(scanned)
            and listed == scanned
            and scan_profile == census_profile
        )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    detail = "; ".join(details) + f"; {elapsed:.1f}s"
    _report(3, "completeness oracle", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 4. round trip and isomorphism agreement


def test_criterion_4_round_trip_and_isomorphism():
    mismatches = []
    for n in range(1, 6):
        for idx, u in enumerate(yb.enumerate_2reductive(n)):
            s = yb.union_to_solution(u)
            dec = yb.solution_to_union(s)
            if yb.unions_isomorphic(dec.union, u) is None:
                mismatches.append(f"round-trip n={n} entry {idx}")
    for n in range(1, 5):
        census = yb.enumerate_2reductive(n)
        keys = census_keys(n)
        # every ordered pair: the verdict must not depend on the order
        for i in range(len(census)):
            for j in range(len(census)):
                union_verdict = yb.unions_isomorphic(census[i], census[j]) is not None
                brute_verdict = keys[i] == keys[j]
                if union_verdict != brute_verdict:
                    mismatches.append(f"iso-agreement n={n} pair ({i}, {j})")
    ok = not mismatches
    _report(4, "round-trip property", ok, f"{len(mismatches)} mismatches")
    assert ok, mismatches[:5]


# ---------------------------------------------------------------------------
# 5. retraction properties


def test_criterion_5_retraction_properties():
    violations = []
    for n in range(1, 6):
        for idx, u in enumerate(yb.enumerate_2reductive(n)):
            s = yb.union_to_solution(u)
            tag = f"n={n} entry {idx}"
            if not yb.is_projection(yb.retraction(s).solution):
                violations.append(f"{tag}: retraction not a projection")
            if not perms_commute(yb.permutation_groups(s).full.generators):
                violations.append(f"{tag}: permutation group not abelian")
            level = yb.multipermutation_level(s).level
            expected = 0 if s.n == 1 else (1 if yb.is_permutational(s) else 2)
            if level != expected:
                violations.append(f"{tag}: level {level} != {expected}")
    ok = not violations
    _report(5, "retraction properties", ok, f"{len(violations)} violations")
    assert ok, violations[:5]


# ---------------------------------------------------------------------------
# 6. brace catalog suite


def test_criterion_6_brace_catalog(brace_catalog):
    t0 = time.perf_counter()
    violations = []
    for name, b in brace_catalog:
        n = b.n
        dot, circ = b.dot, b.circle
        lams, rhos = lambdas_rhos(dot.table, circ.table)
        lam, rho = (family_flags_oracle(dot.table, circ.table, fam) for fam in (lams, rhos))
        ident = tuple(range(n))

        def is_dot_automorphism(p):
            return all(
                p[dot.mul(x, y)] == dot.mul(p[x], p[y])
                for x in range(n)
                for y in range(n)
            )

        if not all(is_dot_automorphism(lams[a]) for a in range(n)) or not all(
            lams[circ.mul(a, c)] == tuple(lams[a][lams[c][x]] for x in range(n))
            for a in range(n)
            for c in range(n)
        ):
            violations.append(f"{name}: (a) lambda homomorphism")
        if not all(
            rhos[circ.mul(a, c)] == tuple(rhos[c][rhos[a][x]] for x in range(n))
            for a in range(n)
            for c in range(n)
        ):
            violations.append(f"{name}: (b) rho anti-homomorphism")
        soc = set(yb.socle(b).elements)
        ker_lam = {a for a in range(n) if lams[a] == ident}
        ker_rho = {a for a in range(n) if rhos[a] == ident}
        if soc != ker_lam & ker_rho:
            violations.append(f"{name}: (c) socle != ker intersection")
        s = yb.associated_solution(b)
        sig, tau = s.sigma, s.tau
        if not yb.is_biskew(b) == lam[1] == distributive_oracle(sig):
            violations.append(f"{name}: (d) bi-skew routes disagree")
        if yb.associated_solution(yb.opposite_brace(b)) != yb.inverse_solution(s):
            violations.append(f"{name}: (e) opposite vs inverse")
        prof = yb.reductivity_profile(b)
        red = two_reductive_oracle(sig, tau)
        homs = (lam[0], rho[0], lam[1], rho[1])
        two_sided = lam[2] and rho[2]
        fields = tuple(prof.reductivity)
        if red != homs or red != fields:
            violations.append(f"{name}: (f) identities {red} vs homs {homs}")
        # the class of b and of its opposite, each from its own socle series
        class_le2, opposite_class_le2 = (
            yb.socle_series(side).nilpotency_class in (0, 1, 2)
            for side in (b, yb.opposite_brace(b))
        )
        if not (
            all(red) == prof.reductivity.holds == two_sided
            == (prof.multipermutation.level in (0, 1, 2))
            == class_le2 == opposite_class_le2
        ):
            violations.append(f"{name}: (f) five-way equivalence")
        ret = yb.retraction(s).solution
        quotient, _ = yb.quotient_brace(b, yb.socle(b).elements)
        expected = yb.associated_solution(quotient)
        if ret != expected and yb.solutions_isomorphic(ret, expected) is None:
            violations.append(f"{name}: (g) retraction vs socle quotient")
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 30.0
    detail = f"{len(brace_catalog)} braces, {len(violations)} violations, {elapsed:.1f}s"
    _report(6, "brace catalog suite", ok, detail)
    assert ok, (violations[:5], detail)


# ---------------------------------------------------------------------------
# 7. named examples


def test_criterion_7_named_examples():
    failures = []

    z6 = yb.z2n_brace(3)
    s = yb.associated_solution(z6)
    if not (yb.is_left_distributive(s) and not yb.is_right_distributive(s)):
        failures.append("Z6 distributivity")
    if yb.multipermutation_level(s).level is not None:
        failures.append("Z6 should be irretractable")
    if yb.socle(z6).elements != (0,):
        failures.append("Z6 socle")
    kernels = yb.kernel_ideals(z6)
    if kernels.ker_rho != (0, 3) or yb.is_normal(z6.dot, kernels.ker_rho):
        failures.append("Z6 ker rho")

    bd = yb.dihedral_example_brace()
    sd = yb.associated_solution(bd)
    e1, f, f_e1, f_e3 = 1, 4, 5, 7
    if sd.tau[f_e1][e1] != f_e3 or bd.dot.mul(f_e1, f) == f_e3:
        failures.append("dihedral example witness")

    u = yb.abelian_union(
        [yb.abelian_group([2]), yb.abelian_group([])],
        [[0, 0], [0, 0]],
        [[0, 0], [1, 0]],
    )
    report = yb.injectivity_checks(u)
    if not (report.diagonal_ok and not report.order_ok):
        failures.append("injectivity order condition")

    ok = not failures
    _report(7, "named examples", ok, ", ".join(failures) or "all matched")
    assert ok, failures


# ---------------------------------------------------------------------------
# 8. seven-identity suite


def test_criterion_8_seven_identities(brace_catalog):
    violations = []
    covered = 0
    for name, b in brace_catalog:
        if not yb.is_2reductive(yb.associated_solution(b)).holds:
            continue
        covered += 1
        n = b.n
        dot, circ = b.dot, b.circle
        inv_d, bar = dot.inv, circ.inv
        _, rhos = lambdas_rhos(dot.table, circ.table)
        for y in range(n):
            if circ.mul(y, y) != dot.mul(y, bar[inv_d[y]]):
                violations.append(f"{name}: (i) at {y}")
            if dot.mul(bar[y], y) != dot.mul(y, bar[y]):
                violations.append(f"{name}: (iii) at {y}")
            if dot.mul(inv_d[y], inv_d[bar[y]]) != circ.mul(inv_d[y], y):
                violations.append(f"{name}: (iv) at {y}")
            if circ.mul(y, y) != circ.mul(bar[inv_d[y]], inv_d[bar[y]]):
                violations.append(f"{name}: (v) at {y}")
            w = dot.mul(bar[y], y)
            if not (bar[w] == inv_d[w] == circ.mul(inv_d[y], y)):
                violations.append(f"{name}: (vi) at {y}")
            for x in range(n):
                lhs = dot.mul(circ.mul(inv_d[y], x), y)
                mid = dot.mul(circ.mul(bar[y], x), inv_d[bar[y]])
                if not (lhs == mid == rhos[y][x]):
                    violations.append(f"{name}: (ii) at ({x}, {y})")
                comm = circ.mul(circ.mul(circ.mul(x, y), bar[x]), bar[y])
                if comm != dot.mul(circ.mul(x, y), inv_d[circ.mul(y, x)]):
                    violations.append(f"{name}: (vii) at ({x}, {y})")
    ok = not violations and covered > 0
    detail = f"{covered} braces with 2-reductive solutions, {len(violations)} violations"
    _report(8, "seven-identity suite", ok, detail)
    assert ok, (violations[:5], detail)
