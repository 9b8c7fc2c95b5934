"""Relations, congruences, quotients, towers, permutation groups."""

from __future__ import annotations

import itertools
import random

import pytest

import yangbaxter as yb
from yangbaxter.groups import invert_perm
from yangbaxter.retraction import _reductive_level, partition_from_blocks, relation
from yangbaxter.solution import FiniteSolution, validate_tables


def test_relation_on_permutational_solution_is_single_block():
    s = yb.permutational_solution((1, 2, 0), (1, 2, 0))
    for kind in ("sim", "cosim", "approx"):
        assert relation(s, kind).blocks == ((0, 1, 2),)


def test_relation_unknown_kind():
    s = yb.projection_solution(2)
    with pytest.raises(ValueError):
        relation(s, "weird")


def test_z6_brace_solution_relations():
    s = yb.associated_solution(yb.z2n_brace(3))
    assert relation(s, "sim").blocks == ((0, 2, 4), (1, 3, 5))
    # x cosim y iff 2x = 2y mod 6, i.e. x = y mod 3
    assert relation(s, "cosim").blocks == ((0, 3), (1, 4), (2, 5))
    assert relation(s, "approx").is_trivial()


def test_approx_is_meet_of_sim_and_cosim(small_solutions):
    for s in small_solutions:
        sim = relation(s, "sim").block_of
        cosim = relation(s, "cosim").block_of
        approx = relation(s, "approx").block_of
        for x in range(s.n):
            for y in range(s.n):
                both = sim[x] == sim[y] and cosim[x] == cosim[y]
                assert both == (approx[x] == approx[y])


def test_approx_is_always_a_congruence(small_solutions):
    for s in small_solutions:
        assert yb.is_congruence(s, relation(s, "approx"))


def test_single_block_partition_is_congruence(small_solutions):
    for s in small_solutions[:10]:
        p = partition_from_blocks(s, [list(range(s.n))])
        assert yb.is_congruence(s, p)


def test_cosim_of_z6_brace_solution_is_not_a_congruence():
    # cosim is not a congruence here, nor is a partition of a smaller or a
    # larger carrier
    s, p3 = yb.associated_solution(yb.z2n_brace(3)), yb.projection_solution(3)
    cases = [(s, relation(s, "cosim"))] + [
        (p3, partition_from_blocks(yb.projection_solution(m), [range(m)])) for m in (2, 4)
    ]
    for target, p in cases:
        assert not yb.is_congruence(target, p)
        with pytest.raises(ValueError, match="is not a congruence"):
            yb.quotient_solution(target, p)


def _congruence_by_elements(s, p):
    """The element-by-element congruence test: rows of a block's points
    agree under the block map, and each row is constant on every block."""
    blk = p.block_of
    maps = (s.sigma, tuple(map(invert_perm, s.sigma)), s.tau, tuple(map(invert_perm, s.tau)))
    for block in p.blocks:
        x0 = block[0]
        for x in block[1:]:
            for m in maps:
                r0, r1 = m[x0], m[x]
                if any(blk[r0[y]] != blk[r1[y]] for y in range(s.n)):
                    return False
    for x in range(s.n):
        for m in maps:
            row = m[x]
            for block in p.blocks:
                b0 = blk[row[block[0]]]
                if any(blk[row[y]] != b0 for y in block[1:]):
                    return False
    return True


def _random_partitions(s, rng, count):
    """Relations, their coarsenings, and random partitions of s's carrier."""
    out = [relation(s, kind) for kind in ("sim", "cosim", "approx")]
    for _ in range(count):
        base = rng.choice(out[:3]).blocks
        labels = [rng.randrange(len(base)) for _ in base]
        merged = {}
        for label, block in zip(labels, base):
            merged.setdefault(label, []).extend(block)
        out.append(partition_from_blocks(s, list(merged.values())))
        parts = rng.randrange(1, s.n + 1)
        by_label = {}
        for x in range(s.n):
            by_label.setdefault(rng.randrange(parts), []).append(x)
        out.append(partition_from_blocks(s, list(by_label.values())))
    return out


def test_congruence_agrees_with_the_element_test(small_solutions, census_solutions, brace_catalog):
    rng = random.Random(2039)
    solutions = (
        small_solutions
        + census_solutions[4][::7]
        + [yb.associated_solution(b) for _, b in brace_catalog]
    )
    verdicts = []
    for s in solutions:
        for p in _random_partitions(s, rng, 3):
            verdict = yb.is_congruence(s, p)
            assert verdict == _congruence_by_elements(s, p), (s, p.blocks)
            verdicts.append(verdict)
    assert verdicts.count(True) > 100 and verdicts.count(False) > 100


def test_congruence_reads_sigma_and_tau_only(small_solutions, census_solutions):
    # a row mapping blocks into blocks permutes them, so its inverse need not
    # be checked: the verdicts are the element test's, which checks both
    rng = random.Random(4417)
    cases = [
        (s, p)
        for s in small_solutions + census_solutions[4][::5]
        for p in _random_partitions(s, rng, 3)
    ]
    expected = [_congruence_by_elements(s, p) for s, p in cases]
    assert [yb.is_congruence(s, p) for s, p in cases] == expected
    assert True in expected and False in expected


def test_congruence_above_256_points():
    # past 256 points rows are tuples and composed in Python.  In each Z130
    # block the row of x adds an entry of C or D whose parity depends only
    # on x's block: the even cosets of each block form a congruence; the
    # parity classes across both blocks are unions of them, but rows of
    # the two blocks disagree on them; a pair {0, 1} is not moved as a whole
    z130 = yb.abelian_group([130])
    u = yb.abelian_union([z130, z130], [[1, 5], [0, 2]], [[3, 1], [0, 2]])
    s = yb.union_to_solution(u)
    cosets, parity = {}, {}
    for x in range(s.n):
        cosets.setdefault((x // 130, x % 2), []).append(x)
        parity.setdefault(x % 2, []).append(x)
    partitions = [
        partition_from_blocks(s, list(cosets.values())),
        partition_from_blocks(s, list(parity.values())),
        partition_from_blocks(s, [[0, 1]] + [[x] for x in range(2, s.n)]),
    ] + _random_partitions(s, random.Random(521), 1)
    verdicts = [yb.is_congruence(s, p) for p in partitions]
    assert verdicts == [_congruence_by_elements(s, p) for p in partitions]
    assert verdicts[:3] == [True, False, False]
    # a partition of one point fewer or more is not a congruence
    for m in (s.n - 1, s.n + 1):
        assert not yb.is_congruence(s, yb.SolutionPartition(m, tuple((x,) for x in range(m))))


def test_left_distributive_implies_sim_congruence(small_solutions):
    for s in small_solutions:
        if yb.is_left_distributive(s):
            assert yb.is_congruence(s, relation(s, "sim"))
        if yb.is_right_distributive(s):
            assert yb.is_congruence(s, relation(s, "cosim"))


def test_2reductive_implies_sim_and_cosim_congruences(census):
    for u in census[3] + census[4]:
        s = yb.union_to_solution(u)
        assert yb.is_congruence(s, relation(s, "sim"))
        assert yb.is_congruence(s, relation(s, "cosim"))


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
    # quotient_solution builds its tables without verification: the quotient
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
    # retraction and multipermutation_level quotient by the approx relation
    # without checking that it is a congruence; here every step is checked,
    # and the tower is rebuilt through quotient_solution, the checked path
    corpus = [
        *small_solutions,
        *(s for n in range(1, 5) for s in census_solutions[n]),
        *(yb.associated_solution(b) for _, b in brace_catalog),
    ]
    for s in corpus:
        sizes, current = [s.n], s
        while current.n > 1:
            p = relation(current, "approx")
            assert yb.is_congruence(current, p)
            if p.is_trivial():
                break
            q = yb.quotient_solution(current, p)
            assert q == yb.retraction(current)
            current = q.solution
            sizes.append(current.n)
        result = yb.multipermutation_level(s)
        assert result.tower_sizes == tuple(sizes)
        assert result.level == (len(sizes) - 1 if current.n == 1 else None)


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
        assert yb.is_left_distributive(s) == red.red3, s
        assert yb.is_right_distributive(s) == red.red4, s
        seen.add((red.red3, red.red4))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_closed_form_level_equals_the_retraction_tower(small_solutions, census_solutions,
                                                       brace_catalog):
    # with red1-red4 the retraction is a projection solution on the approx
    # classes; that uses no braid relation, so permutational tables whose
    # rows do not commute, which are no solutions, are covered too
    perms = list(itertools.permutations(range(3)))
    tables = [FiniteSolution(3, (f,) * 3, (g,) * 3) for f in perms for g in perms]
    assert validate_tables(((1, 0, 2),) * 3, ((0, 2, 1),) * 3) is not None
    corpus = _report_corpus(small_solutions, census_solutions, brace_catalog) + tables
    towers = set()
    for s in corpus:
        if yb.is_2reductive(s).holds:
            level = _reductive_level(s)
            assert level == yb.multipermutation_level(s), s
            towers.add(len(level.tower_sizes))
    assert towers == {1, 2, 3}


def test_permutation_groups_examples():
    proj = yb.projection_solution(3)
    groups = yb.permutation_groups(proj)
    assert groups.left.order == groups.right.order == groups.full.order == 1

    u = yb.abelian_union(
        [yb.abelian_group([2]), yb.abelian_group([])],
        [[1, 0], [0, 0]],
        [[0, 0], [0, 0]],
    )
    s = yb.union_to_solution(u)
    groups = yb.permutation_groups(s)
    assert groups.full.order == 2 and groups.full.is_abelian
    assert yb.orbits(groups.full) == ((0, 1), (2,))


def test_permutation_group_abelianness_by_identity_pairs(small_solutions):
    for s in small_solutions:
        red = yb.is_2reductive(s)
        if red.red1 and red.red3:
            assert yb.permutation_groups(s).left.is_abelian


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
        sim = relation(s, "sim").block_of
        cosim = relation(s, "cosim").block_of
        for x in range(s.n):
            for y in range(s.n):
                assert (sim[x] == sim[y]) == (c_key[x] == c_key[y])
                assert (cosim[x] == cosim[y]) == (d_key[x] == d_key[y])


def test_partition_validation():
    s = yb.projection_solution(3)
    with pytest.raises(ValueError):
        partition_from_blocks(s, [[0, 1]])  # does not cover
    with pytest.raises(ValueError):
        partition_from_blocks(s, [[0, 1], [1, 2]])  # overlap
    p = partition_from_blocks(s, [[2, 0], [1]])
    assert p.blocks == ((0, 2), (1,))


def test_quotient_solution_reindexes_by_block_minimum(census):
    u = census[4][0]
    s = yb.union_to_solution(u)
    q = yb.quotient_solution(s, relation(s, "approx"))
    assert q.solution.n == len(relation(s, "approx").blocks)
    assert len(q.projection) == s.n
