"""Row classes, congruences, quotients, towers, permutation groups."""

from __future__ import annotations

import itertools
import random

import yangbaxter as yb
from oracles import (
    classes_by_key,
    congruence_oracle,
    distributive_oracle,
    moving_perm,
    orbits,
    perms_commute,
    quotient_oracle,
)
from yangbaxter.retraction import _approx_classes
from yangbaxter.solution import FiniteSolution, validate_tables


def test_relation_on_permutational_solution_is_single_block():
    s = yb.permutational_solution((1, 2, 0), (1, 2, 0))
    assert s.sigma_classes == s.tau_classes == _approx_classes(s) == ([0], [0, 0, 0])


def test_z6_brace_solution_relations():
    s = yb.associated_solution(yb.z2n_brace(3))
    assert s.sigma_classes[1] == [0, 1, 0, 1, 0, 1]
    # x cosim y iff 2x = 2y mod 6, i.e. x = y mod 3
    assert s.tau_classes[1] == [0, 1, 2, 0, 1, 2]
    assert _approx_classes(s) == (list(range(6)), list(range(6)))


def test_approx_is_meet_of_sim_and_cosim(small_solutions):
    for s in small_solutions:
        sim, cosim, approx = s.sigma_classes[1], s.tau_classes[1], _approx_classes(s)[1]
        assert approx == classes_by_key(zip(s.sigma, s.tau))
        for x in range(s.n):
            for y in range(s.n):
                both = sim[x] == sim[y] and cosim[x] == cosim[y]
                assert both == (approx[x] == approx[y])


def test_approx_is_always_a_congruence(small_solutions):
    for s in small_solutions:
        assert congruence_oracle(s.sigma, s.tau, classes_by_key(zip(s.sigma, s.tau)))


def test_single_block_partition_is_congruence(small_solutions):
    for s in small_solutions[:10]:
        assert congruence_oracle(s.sigma, s.tau, [0] * s.n)


def test_cosim_of_z6_brace_solution_is_not_a_congruence():
    # sim is a congruence here (Z6 is left distributive); cosim is not
    s = yb.associated_solution(yb.z2n_brace(3))
    assert congruence_oracle(s.sigma, s.tau, classes_by_key(s.sigma))
    assert not congruence_oracle(s.sigma, s.tau, classes_by_key(s.tau))


def test_left_distributive_implies_sim_congruence(small_solutions):
    for s in small_solutions:
        if yb.is_left_distributive(s):
            assert congruence_oracle(s.sigma, s.tau, classes_by_key(s.sigma))
        if yb.is_right_distributive(s):
            assert congruence_oracle(s.sigma, s.tau, classes_by_key(s.tau))


def test_2reductive_implies_sim_and_cosim_congruences(census):
    for u in census[3] + census[4]:
        s = yb.union_to_solution(u)
        assert congruence_oracle(s.sigma, s.tau, classes_by_key(s.sigma))
        assert congruence_oracle(s.sigma, s.tau, classes_by_key(s.tau))


def test_retraction_of_2reductive_is_projection(census):
    for u in census[4]:
        s = yb.union_to_solution(u)
        ret = yb.retraction(s).solution
        assert yb.is_projection(ret)


def test_retraction_of_projection_is_singleton():
    s = yb.projection_solution(4)
    assert yb.retraction(s).solution.n == 1


def test_retraction_of_brace_solution_is_quotient_brace_solution(brace_catalog):
    for name, b in brace_catalog:
        if b.n > 12:
            continue
        s = yb.associated_solution(b)
        ret = yb.retraction(s).solution
        quotient, _ = yb.quotient_brace(b, yb.socle(b).elements)
        assert ret == yb.associated_solution(quotient), name


def test_multipermutation_levels():
    assert yb.multipermutation_level(yb.projection_solution(1)).level == 0
    assert yb.multipermutation_level(yb.projection_solution(4)).level == 1
    perm = yb.permutational_solution((1, 2, 0), (2, 0, 1))
    assert yb.multipermutation_level(perm).level == 1
    z6 = yb.associated_solution(yb.z2n_brace(3))
    mp = yb.multipermutation_level(z6)
    assert mp.level is None
    assert mp.stabilized_size == 6
    assert "irretractable" in mp.describe()


def test_census_levels_are_at_most_2(census):
    for u in census[3]:
        s = yb.union_to_solution(u)
        mp = yb.multipermutation_level(s)
        assert mp.level is not None and mp.level <= 2
        if not yb.is_permutational(s):
            assert mp.level == 2


def test_multipermutation_level_is_isomorphism_invariant(small_solutions):
    rng = random.Random(99)
    for s in small_solutions:
        base = yb.multipermutation_level(s)
        for _ in range(3):
            phi = list(range(s.n))
            rng.shuffle(phi)
            t = yb.relabel(s, phi)
            mp = yb.multipermutation_level(t)
            assert mp.level == base.level
            assert mp.tower_sizes == base.tower_sizes


def test_retraction_tower_quotients_are_solutions(small_solutions, census_solutions):
    # retraction builds its tables without verification: the quotient
    # of a solution by a congruence is a solution
    corpus = small_solutions + [s for n in range(1, 5) for s in census_solutions[n]]
    for s in corpus:
        sizes, current = [s.n], s
        while current.n > 1:
            q = yb.retraction(current).solution
            if q.n == current.n:
                break
            assert validate_tables(q.sigma, q.tau) is None
            sizes.append(q.n)
            current = q
        assert tuple(sizes) == yb.multipermutation_level(s).tower_sizes


def test_towers_quotient_by_congruences(small_solutions, census_solutions, brace_catalog):
    # retraction and multipermutation_level quotient by the approx classes
    # without checking that they are a congruence; here every step is
    # checked by the element test and compared with the quotient built from
    # the definitions.  The products of Z6 with Z2 and with Q8 retract in
    # one and two steps without reaching one point
    z6 = yb.z2n_brace(3)
    products = [yb.product_brace(z6, yb.trivial_brace(g))
                for g in (yb.cyclic_group(2), yb.quaternion_group())]
    corpus = [
        *small_solutions,
        *(s for n in range(1, 5) for s in census_solutions[n]),
        *(yb.associated_solution(b) for _, b in brace_catalog),
        *map(yb.associated_solution, products),
    ]
    for s in corpus:
        sizes, current = [s.n], s
        while current.n > 1:
            approx = classes_by_key(zip(current.sigma, current.tau))
            assert congruence_oracle(current.sigma, current.tau, approx)
            if max(approx) == current.n - 1:
                break
            q = yb.retraction(current)
            assert q.projection == tuple(approx)
            assert (q.solution.sigma, q.solution.tau) == quotient_oracle(
                current.sigma, current.tau, approx)
            current = q.solution
            sizes.append(current.n)
        result = yb.multipermutation_level(s)
        assert result.tower_sizes == tuple(sizes)
        assert result.level == (len(sizes) - 1 if current.n == 1 else None)
    assert [yb.multipermutation_level(s).tower_sizes for s in corpus[-2:]] == [
        (12, 6), (48, 24, 6)]


def _report_corpus(small_solutions, census_solutions, brace_catalog):
    """Solutions a report may be given: the small ones (some not
    2-reductive), the census with n <= 4, and every catalog brace's
    solution with its inverse."""
    braced = [yb.associated_solution(b) for _, b in brace_catalog]
    return [
        *small_solutions,
        *(s for n in range(1, 5) for s in census_solutions[n]),
        *braced,
        *map(yb.inverse_solution, braced),
    ]


def test_distributivity_is_red3_and_red4_on_solutions(small_solutions, census_solutions,
                                                     brace_catalog):
    # braid identity (i), sigma_x sigma_y = sigma_{sigma_x(y)} sigma_{tau_y(x)},
    # makes left distributivity sigma_{tau_y(x)} = sigma_x, which is red3;
    # (ii) makes right distributivity red4.  The report prints the identities
    corpus = _report_corpus(small_solutions, census_solutions, brace_catalog)
    seen = set()
    for s in corpus:
        red = yb.is_2reductive(s)
        assert distributive_oracle(s.sigma) == red.red3, s
        assert distributive_oracle(s.tau) == red.red4, s
        seen.add((red.red3, red.red4))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def _tower_oracle(sigma, tau):
    """The retraction tower's sizes by the definitions: points with equal
    (sigma-row, tau-row) pairs merged, until one point is left or no two
    points merge."""
    sizes = [len(sigma)]
    while sizes[-1] > 1:
        block_of = classes_by_key(zip(sigma, tau))
        if len(set(block_of)) == sizes[-1]:
            break
        sigma, tau = quotient_oracle(sigma, tau, block_of)
        sizes.append(len(sigma))
    return tuple(sizes)


def test_closed_form_level_equals_the_retraction_tower(small_solutions, census_solutions,
                                                       brace_catalog):
    # with red1-red4 the retraction is a projection solution on the approx
    # classes; that uses no braid relation, so permutational tables whose
    # rows do not commute, which are no solutions, are covered too.  The
    # solutions that fail red1-red4 check the loop route: towers that
    # stabilize at once or, for Z6-twist x Triv(Z2), after one step, and
    # Triv(D16)'s and Triv(D32)'s, of levels 3 and 4
    perms = list(itertools.permutations(range(3)))
    tables = [FiniteSolution(3, (f,) * 3, (g,) * 3) for f in perms for g in perms]
    assert validate_tables(((1, 0, 2),) * 3, ((0, 2, 1),) * 3) is not None
    looping = [yb.product_brace(yb.z2n_brace(3), yb.trivial_brace(yb.cyclic_group(2)))]
    looping += [yb.trivial_brace(yb.dihedral_group(k)) for k in (8, 16)]
    solutions = _report_corpus(small_solutions, census_solutions, brace_catalog)
    solutions += map(yb.associated_solution, looping)
    towers, looped = set(), set()
    for s in solutions + [t for t in tables if yb.is_2reductive(t).holds]:
        mp, sizes = yb.multipermutation_level(s), _tower_oracle(s.sigma, s.tau)
        assert mp == (len(sizes) - 1 if sizes[-1] == 1 else None, sizes), s
        (towers if yb.is_2reductive(s).holds else looped).add(len(sizes))
    assert towers == {1, 2, 3} and looped == {1, 2, 4, 5}


def test_permutation_groups_examples():
    proj = yb.projection_solution(3)
    groups = yb.permutation_groups(proj)
    assert [len(g.elements) for g in groups] == [1, 1, 1]

    u = yb.abelian_union(
        [yb.abelian_group([2]), yb.abelian_group([])],
        [[1, 0], [0, 0]],
        [[0, 0], [0, 0]],
    )
    s = yb.union_to_solution(u)
    groups = yb.permutation_groups(s)
    assert len(groups.full.elements) == 2 and perms_commute(groups.full.generators)
    assert orbits(3, groups.full.generators) == ((0, 1), (2,))


def test_permutation_group_abelianness_by_identity_pairs(small_solutions):
    for s in small_solutions:
        red = yb.is_2reductive(s)
        if red.red1 and red.red3:
            assert perms_commute(yb.permutation_groups(s).left.generators)


def test_sim_blocks_match_equal_c_rows(census):
    for u in census[3] + census[4]:
        s = yb.union_to_solution(u)
        off = u.offsets
        # block each carrier point by its block's row of C (and of D for cosim)
        row_of = []
        for i, g in enumerate(u.groups):
            row_of.extend([i] * g.n)
        c_key = [tuple(u.c[row_of[x]]) for x in range(s.n)]
        d_key = [tuple(u.d[row_of[x]]) for x in range(s.n)]
        sim, cosim = s.sigma_classes[1], s.tau_classes[1]
        for x in range(s.n):
            for y in range(s.n):
                assert (sim[x] == sim[y]) == (c_key[x] == c_key[y])
                assert (cosim[x] == cosim[y]) == (d_key[x] == d_key[y])


def test_retraction_reindexes_by_block_minimum(census):
    # the classes are numbered by their least points, on census solutions
    # moved so that some classes interleave
    moved = [yb.relabel(yb.union_to_solution(u), moving_perm(4, 0, seed))
             for seed, u in enumerate(census[4])]
    interleaved = 0
    for s in moved:
        approx = classes_by_key(zip(s.sigma, s.tau))
        q = yb.retraction(s)
        assert q.solution.n == max(approx) + 1
        assert q.projection == tuple(approx)
        interleaved += approx != sorted(approx)
    assert interleaved
