"""Union construction, decomposition, isomorphism, canonical forms, census."""

from __future__ import annotations

import itertools
import random

import pytest

import yangbaxter as yb
from yangbaxter.solution import validate_tables
from yangbaxter.unions import AbelianUnion, _valid_columns, census_cells, enumerate_cell


Z1 = yb.abelian_group([])
Z2 = yb.abelian_group([2])
Z3 = yb.abelian_group([3])


def test_union_to_solution_projection():
    u = yb.abelian_union([Z1, Z1, Z1], [[0] * 3] * 3, [[0] * 3] * 3)
    assert yb.is_projection(yb.union_to_solution(u))


def test_union_to_solution_one_orbit():
    u = yb.abelian_union([Z3], [[1]], [[1]])
    s = yb.union_to_solution(u)
    assert s.sigma == ((1, 2, 0),) * 3
    assert s.tau == ((1, 2, 0),) * 3


def test_union_to_solution_two_orbits():
    u = yb.abelian_union([Z2, Z1], [[1, 0], [0, 0]], [[0, 0], [0, 0]])
    s = yb.union_to_solution(u)
    ident = (0, 1, 2)
    assert all(row == ident for row in s.tau)
    assert s.sigma[0] == s.sigma[1] == (1, 0, 2)
    assert s.sigma[2] == ident


def test_union_validation_errors():
    with pytest.raises(ValueError):
        yb.abelian_union([Z3], [[3]], [[0]])  # constant out of range
    with pytest.raises(ValueError):
        yb.abelian_union([Z3], [[0]], [[0]])  # generation fails
    u = yb.abelian_union([Z3], [[0]], [[0]], require_generating=False)
    s = yb.union_to_solution(u)
    assert yb.is_projection(s)
    # honest re-decomposition splits the non-generating block into orbits
    assert yb.solution_to_union(s).union.orbit_type() == ((), (), ())


def test_solution_to_union_requires_2reductive():
    with pytest.raises(ValueError):
        yb.solution_to_union(
            yb.associated_solution(yb.trivial_brace(yb.symmetric_group(3)))
        )


def test_round_trip_with_carrier_map(census):
    for n in (2, 3, 4):
        for u in census[n]:
            s = yb.union_to_solution(u)
            dec = yb.solution_to_union(s)
            assert yb.relabel(s, dec.carrier_map) == yb.union_to_solution(dec.union)
            witness = yb.unions_isomorphic(dec.union, u)
            assert witness is not None


def test_unions_isomorphic_identity(census):
    for u in census[3]:
        w = yb.unions_isomorphic(u, u)
        assert w is not None
        assert w.pi == tuple(range(u.k))


def test_unions_isomorphic_spec_pairs():
    u_01 = yb.abelian_union([Z3], [[0]], [[1]])
    u_10 = yb.abelian_union([Z3], [[1]], [[0]])
    assert yb.unions_isomorphic(u_01, u_10) is None
    u_11 = yb.abelian_union([Z3], [[1]], [[1]])
    u_22 = yb.abelian_union([Z3], [[2]], [[2]])
    w = yb.unions_isomorphic(u_11, u_22)
    assert w is not None
    assert w.psis[0] == (0, 2, 1)  # x -> 2x on Z3


def test_unions_isomorphic_agrees_with_solution_isomorphism(census):
    sols = [yb.union_to_solution(u) for u in census[3]]
    keys = [yb.canonical_key(s) for s in sols]
    assert len(set(keys)) == len(keys)  # census entries pairwise non-isomorphic
    for i, u in enumerate(census[3]):
        for j, v in enumerate(census[3]):
            assert (yb.unions_isomorphic(u, v) is not None) == (keys[i] == keys[j])


def test_canonical_form_idempotent(census):
    for u in itertools.chain.from_iterable(census.values()):
        cf = yb.canonical_form(u)
        assert yb.canonical_form(cf) == cf
        assert cf == u  # census output is already canonical


def test_canonical_form_spec_example():
    u = yb.abelian_union([Z3], [[2]], [[2]])
    cf = yb.canonical_form(u)
    assert cf.c == ((1,),) and cf.d == ((1,),)


def test_canonical_form_is_a_class_function(census):
    rng = random.Random(31337)
    for u in census[4][::10] + census[3]:
        s = yb.union_to_solution(u)
        for _ in range(3):
            phi = list(range(s.n))
            rng.shuffle(phi)
            scrambled = yb.solution_to_union(yb.relabel(s, phi)).union
            assert yb.canonical_form(scrambled) == yb.canonical_form(u)


def test_census_counts_ground_truth(census):
    # Frozen from two independent routes: exhaustive (sigma, tau) scans with
    # all-bijections deduplication, and closed-form orbit counting of the
    # (pi, psi) action (Burnside) on valid constant matrices.
    assert len(census[1]) == 1
    assert len(census[2]) == 4
    assert len(census[3]) == 20
    assert len(census[4]) == 207
    assert len(census[5]) == 3061


def test_census_breakdown_n4(census):
    from collections import Counter

    by_type = Counter(u.orbit_type_label() for u in census[4])
    assert by_type == {
        "Z4": 6,
        "Z2xZ2": 1,
        "Z3+Z1": 40,
        "Z2+Z2": 120,
        "Z2+Z1+Z1": 39,
        "Z1+Z1+Z1+Z1": 1,
    }


def test_census_soundness(census):
    for n in (1, 2, 3, 4):
        for u in census[n]:
            s = yb.union_to_solution(u)
            groups = yb.permutation_groups(s)
            orbit_sizes = sorted(len(o) for o in yb.orbits(groups.full))
            assert orbit_sizes == sorted(g.n for g in u.groups)


def test_union_solutions_are_2reductive_solutions(census_solutions, small_solutions):
    # every union of abelian groups with constant matrices builds a
    # 2-reductive solution; union_to_solution relies on it and checks neither
    rebuilt = [
        yb.union_to_solution(yb.solution_to_union(s).union)
        for s in small_solutions
        if yb.is_2reductive(s).holds
    ]
    assert rebuilt
    for s in rebuilt + [s for n in census_solutions for s in census_solutions[n]]:
        assert validate_tables(s.sigma, s.tau) is None
        assert yb.is_2reductive(s).holds


def test_census_rejects_bad_sizes():
    with pytest.raises(ValueError):
        yb.enumerate_2reductive(0)
    with pytest.raises(ValueError):
        yb.enumerate_2reductive(-3)


def test_census_deterministic_and_parallel(census):
    again = yb.enumerate_2reductive(4)
    assert again == census[4]
    parallel = yb.enumerate_2reductive(4, jobs=2)
    assert parallel == census[4]


def test_census_cells_partition_structure():
    cells = census_cells(4)
    assert (((4,),)) in cells
    assert (((2, 2),)) in cells
    assert ((2,), (2,)) in cells
    assert ((), (), (), ()) in cells
    # cells sorted and unique
    assert len(set(cells)) == len(cells)
    entries = enumerate_cell(((2,), ()))
    assert len(entries) == 15


def test_enumerate_cell_agrees_with_canonical_form():
    # enumerate_cell minimizes by compiled index gathers; canonical_form by
    # _transform, one union at a time: both must give the same classes
    for n in range(1, 6):
        for types in census_cells(n):
            groups = tuple(yb.abelian_group(list(t)) for t in types)
            k = len(groups)
            expected = set()
            for combo in itertools.product(*(_valid_columns(g, k) for g in groups)):
                c = tuple(tuple(combo[j][0][i] for j in range(k)) for i in range(k))
                d = tuple(tuple(combo[j][1][i] for j in range(k)) for i in range(k))
                cf = yb.canonical_form(AbelianUnion(groups=groups, c=c, d=d))
                expected.add((sum(cf.c, ()), sum(cf.d, ())))
            assert enumerate_cell(types) == sorted(expected), types


def test_union_predicates_match_solution_predicates(census):
    for n in (3, 4):
        for u in census[n]:
            s = yb.union_to_solution(u)
            p = yb.union_predicates(u)
            assert p.involutive == yb.is_involutive(s)
            assert p.square_free == yb.is_square_free(s)
            assert p.condition_star == yb.satisfies_condition_star(s)


def test_census_predicate_counts(census):
    # Ground truth (frozen from the exhaustive scans): of the 20 classes at
    # n=3, 5 are involutive and 4 square free; of the 207 at n=4, 17 and 20.
    p3 = [yb.union_predicates(u) for u in census[3]]
    assert sum(p.involutive for p in p3) == 5
    assert sum(p.square_free for p in p3) == 4
    p4 = [yb.union_predicates(u) for u in census[4]]
    assert sum(p.involutive for p in p4) == 17
    assert sum(p.square_free for p in p4) == 20


def test_opposite_union_properties(census):
    for u in census[3]:
        opp = yb.opposite_union(u)
        if yb.union_predicates(u).involutive:
            assert opp == u
        assert yb.opposite_union(opp) == u
        assert yb.union_to_solution(opp) == yb.inverse_solution(yb.union_to_solution(u))


def test_opposite_union_spec_example():
    u = yb.abelian_union([Z2, Z1], [[1, 0], [0, 0]], [[0, 0], [0, 0]])
    opp = yb.opposite_union(u)
    assert opp.c == ((0, 0), (0, 0))
    assert opp.d == ((1, 0), (0, 0))


def test_z2n_dual_brace_solution_decomposes_as_displayed():
    # the dual twisted brace on Z6 decomposes into blocks Z2, Z2, Z1, Z1 with
    # constant matrices filled 0 on half the rows and 1 on the others
    b = yb.z2n_dual_brace(3)
    s = yb.associated_solution(b)
    dec = yb.solution_to_union(s)
    assert dec.union.orbit_type() == ((2,), (2,), (), ())
    displayed = yb.abelian_union(
        [Z1, Z2, Z1, Z2],
        [[0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 0, 1]],
        [[0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 0, 1]],
    )
    assert yb.canonical_form(dec.union) == yb.canonical_form(displayed)
    assert yb.unions_isomorphic(dec.union, displayed) is not None


def test_union_serialization_round_trip(census):
    for u in census[3]:
        assert yb.union_from_dict(u.to_dict()) == u


def test_union_from_dict_requires_invariant_factor_form():
    with pytest.raises(ValueError):
        yb.union_from_dict({"groups": [[3, 2]], "C": [[1]], "D": [[0]]})
    u = yb.union_from_dict({"groups": [[6]], "C": [[1]], "D": [[0]]})
    assert u.groups[0].factors == (6,)
