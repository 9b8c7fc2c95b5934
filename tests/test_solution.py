"""Verification, inverse solutions, and the predicate suite."""

from __future__ import annotations

import itertools
import json
import random

import pytest

import yangbaxter as yb
from oracles import (
    class_key,
    distributive_oracle,
    least_isomorphism,
    moving_perm,
    perms_commute,
    relabel_table,
    validate_oracle,
)
from yangbaxter.groups import invert_perm
from yangbaxter.solution import (
    _braid_mismatch,
    parse_solution_text,
    solution_to_text,
    validate_tables,
)


def birack_holds(sigma, tau):
    """The braid relation as the three birack identities, on all triples."""
    n = len(sigma)
    for x, y, z in itertools.product(range(n), repeat=3):
        sxy, tyx = sigma[x][y], tau[y][x]
        if sigma[x][sigma[y][z]] != sigma[sxy][sigma[tyx][z]]:
            return False
        if tau[sigma[tyx][z]][sxy] != sigma[tau[sigma[y][z]][x]][tau[z][y]]:
            return False
        if tau[x][tau[y][z]] != tau[tau[x][y]][tau[sigma[y][x]][z]]:
            return False
    return True


# ---------------------------------------------------------------------------
# verify


def test_projection_accepted():
    s = yb.verify(*[[[0, 1, 2]] * 3] * 2)
    assert yb.is_involutive(s)
    assert yb.is_square_free(s)
    assert yb.is_permutational(s)
    assert yb.is_projection(s)
    assert yb.has_lri(s)


def test_lyubashenko_example():
    f = (1, 2, 3, 0)
    g = (2, 3, 0, 1)
    s = yb.permutational_solution(f, g)
    assert yb.is_permutational(s)
    assert yb.is_left_distributive(s) and yb.is_right_distributive(s)
    with pytest.raises(yb.VerificationError):
        # non-commuting f, g break the braid relation
        yb.permutational_solution((1, 0, 2, 3), (0, 2, 1, 3))


def test_verify_agrees_with_braid_oracle_on_all_n2_tables():
    perms = [(0, 1), (1, 0)]
    accepted = []
    for s0, s1, t0, t1 in itertools.product(perms, repeat=4):
        sigma, tau = (s0, s1), (t0, t1)
        mine = validate_tables(sigma, tau) is None
        assert mine == (validate_oracle(sigma, tau) is None)
        if mine:
            accepted.append((sigma, tau))
    assert len(accepted) == 4
    # the specific case: sigma rows both (0 1), tau = (id, (0 1)) is rejected
    v = validate_tables(((1, 0), (1, 0)), ((0, 1), (1, 0)))
    assert v is not None and v.check == "birack:2"


def test_braid_and_birack_routes_agree_on_all_small_tables():
    # the verifier's braid route against the three birack identities, on
    # every pair of tables with permutation rows, bijective or not
    for n in (1, 2, 3):
        perms = list(itertools.permutations(range(n)))
        for sigma in itertools.product(perms, repeat=n):
            for tau in itertools.product(perms, repeat=n):
                braid = _braid_mismatch(sigma, tau, n) is None
                assert braid == birack_holds(sigma, tau), (sigma, tau)


def test_verify_differential_random_tables():
    rng = random.Random(20240817)
    for n in (2, 3, 4):
        perms = [tuple(p) for p in itertools.permutations(range(n))]
        for _ in range(300):
            sigma = tuple(rng.choice(perms) for _ in range(n))
            tau = tuple(rng.choice(perms) for _ in range(n))
            assert validate_tables(sigma, tau) == validate_oracle(sigma, tau)


def test_violation_reports():
    v = validate_tables([[0, 0], [0, 1]], [[0, 1], [0, 1]])
    assert v.check == "sigma-row" and v.witness == (0,)
    v = validate_tables(((1, 0), (0, 1)), ((0, 1), (0, 1)))
    assert v is not None
    assert v.check.startswith("birack:")
    with pytest.raises(yb.VerificationError):
        yb.verify(((1, 0), (0, 1)), ((0, 1), (0, 1)))
    v = validate_tables([[0, 1], [0, 1]], [[0, 1]])
    assert (v.check, v.witness) == ("tau-row", ("row count", 1, 2))


def test_violation_minimal_witness():
    # sigma = ((0 1), id), tau = id: first failing triple in lex order
    v = validate_tables(((1, 0), (0, 1)), ((0, 1), (0, 1)))
    assert v.witness == (0, 0, 0)


# ---------------------------------------------------------------------------
# inverse solution


def test_inverse_fixed_point_for_involutive(census):
    for u in census[3]:
        s = yb.union_to_solution(u)
        if yb.is_involutive(s):
            assert yb.inverse_solution(s) == s


def test_inverse_solution_inverts_r(small_solutions, census_solutions):
    corpus = small_solutions + [s for n in census_solutions for s in census_solutions[n]]
    for s in corpus:
        inv = yb.inverse_solution(s)
        # built without verification: the inverse of a solution is one
        assert validate_tables(inv.sigma, inv.tau) is None
        for x in range(s.n):
            for y in range(s.n):
                assert s.r(*inv.r(x, y)) == (x, y)
                assert inv.r(*s.r(x, y)) == (x, y)


def test_inverse_is_an_involution_on_solutions(small_solutions):
    for s in small_solutions:
        assert yb.inverse_solution(yb.inverse_solution(s)) == s


def test_inverse_of_trivial_brace_solution_is_opposite_brace_solution():
    s3 = yb.symmetric_group(3)
    triv = yb.trivial_brace(s3)
    s = yb.associated_solution(triv)
    inv = yb.inverse_solution(s)
    assert inv == yb.associated_solution(yb.opposite_brace(triv))
    # explicit shape: sigma-hat_a(b) = a b a^-1 and tau-hat = id
    for a in range(6):
        for b in range(6):
            assert inv.sigma[a][b] == s3.mul(s3.mul(a, b), s3.inv[a])
            assert inv.tau[b][a] == a


def test_inverse_of_almost_trivial_brace_solution():
    s3 = yb.symmetric_group(3)
    s = yb.associated_solution(yb.almost_trivial_brace(s3))
    inv = yb.inverse_solution(s)
    for a in range(6):
        for b in range(6):
            assert inv.sigma[a][b] == b
            assert inv.tau[b][a] == s3.mul(s3.mul(b, a), s3.inv[b])


def test_inverse_of_union_is_opposite_union(census):
    for u in census[3]:
        s = yb.union_to_solution(u)
        assert yb.inverse_solution(s) == yb.union_to_solution(yb.opposite_union(u))


# ---------------------------------------------------------------------------
# predicates


def test_involutive_iff_d_is_minus_c(census):
    for n in (2, 3, 4):
        for u in census[n]:
            s = yb.union_to_solution(u)
            matrix_level = all(
                u.d[i][j] == u.groups[j].neg(u.c[i][j])
                for i in range(u.k)
                for j in range(u.k)
            )
            assert yb.is_involutive(s) == matrix_level


def test_square_free_iff_zero_diagonals(census):
    for u in census[3] + census[4]:
        s = yb.union_to_solution(u)
        assert yb.is_square_free(s) == all(
            u.c[i][i] == 0 and u.d[i][i] == 0 for i in range(u.k)
        )


def predicates_oracle(s):
    """(has_lri, is_projection, is_square_free) as plain loops over x, y."""
    n, sigma, tau = s
    pairs = list(itertools.product(range(n), repeat=2))
    return (all(sigma[x][tau[x][y]] == y for x, y in pairs),
            all(sigma[x][y] == y == tau[x][y] for x, y in pairs),
            all(sigma[x][x] == x == tau[x][x] for x in range(n)))


def test_predicates_match_the_loops_on_every_2_point_table_and_random_3_point_ones():
    # the predicates read row classes and the class kernel; permutation
    # rows or not, entries in 0..n-1
    rows2 = list(itertools.product(range(2), repeat=2))
    tables = [(2, sig, ta) for sig in itertools.product(rows2, repeat=2)
              for ta in itertools.product(rows2, repeat=2)]
    rng, perms3 = random.Random(3), list(itertools.permutations(range(3)))
    for _ in range(300):
        pool = perms3 if rng.random() < 0.7 else list(itertools.product(range(3), repeat=3))
        sig = tuple(rng.choice(pool) for _ in range(3))
        # tau_x = sigma_x^-1 for some x, so some tables have LRI
        tables.append((3, sig, tuple(invert_perm(row) if rng.random() < 0.8 and row in perms3
                                     else rng.choice(perms3) for row in sig)))
    seen = set()
    for n, sig, ta in tables:
        s = yb.FiniteSolution(n, sig, ta)
        expected = predicates_oracle(s)
        assert (yb.has_lri(s), yb.is_projection(s), yb.is_square_free(s)) == expected, s
        seen.add(expected)
    assert {flags[i] for flags in seen for i in range(3)} == {False, True}


@pytest.mark.parametrize("s, expected", [
    # an entry above 255 or below 0 is no permutation row; the bytes
    # encoding would raise ValueError on either
    (yb.FiniteSolution(2, ((0, 300), (1, 0)), ((0, 1), (0, 1))), (False, False, False)),
    (yb.FiniteSolution(2, ((0, -1), (1, 0)), ((0, 1), (0, 1))), (False, False, False)),
    # -1 is no point, though sigma_0[-1] reads as sigma_0(1) = 1
    (yb.FiniteSolution(2, ((0, 1), (0, 1)), ((0, -1), (0, 1))), (False, False, True)),
    # the empty record holds every identity vacuously
    (yb.FiniteSolution(0, (), ()), (True, True, True)),
], ids=["above-255", "negative-sigma", "negative-tau", "empty"])
def test_predicates_keep_their_contract_on_unverified_records(s, expected):
    assert (yb.has_lri(s), yb.is_projection(s), yb.is_square_free(s)) == expected


def test_2reductive_breakdown_of_z6_brace():
    s = yb.associated_solution(yb.z2n_brace(3))
    red = yb.is_2reductive(s)
    assert (red.red1, red.red2, red.red3, red.red4) == (True, False, True, False)
    assert not red.holds


def test_lri_2reductive_solutions_are_exactly_the_involutive_ones(census):
    for u in census[3] + census[4]:
        s = yb.union_to_solution(u)
        assert (yb.has_lri(s)) == yb.is_involutive(s)


def _is_solution_automorphism(s, phi):
    return all(
        phi[s.sigma[x][y]] == s.sigma[phi[x]][phi[y]]
        and phi[s.tau[x][y]] == s.tau[phi[x]][phi[y]]
        for x in range(s.n)
        for y in range(s.n)
    )


def test_left_distributivity_five_equivalent_formulations(small_solutions, brace_catalog):
    sols = list(small_solutions) + [
        yb.associated_solution(b) for _, b in brace_catalog if b.n <= 10
    ]
    for s in sols:
        inv = yb.inverse_solution(s)
        via_identity = distributive_oracle(s.sigma)
        via_red3 = yb.is_2reductive(s).red3
        via_solbi = all(
            s.sigma[inv.sigma[x][y]] == s.sigma[y]
            for x in range(s.n)
            for y in range(s.n)
        )
        via_hat_tau = all(
            inv.tau[x] == invert_perm(s.sigma[x]) for x in range(s.n)
        )
        via_aut = all(_is_solution_automorphism(s, s.sigma[x]) for x in range(s.n))
        assert via_identity == via_red3 == via_solbi == via_hat_tau == via_aut


def test_right_distributivity_equivalent_formulations(small_solutions):
    for s in small_solutions:
        inv = yb.inverse_solution(s)
        via_identity = distributive_oracle(s.tau)
        via_red4 = yb.is_2reductive(s).red4
        via_solbir = all(
            s.tau[inv.tau[x][y]] == s.tau[y] for x in range(s.n) for y in range(s.n)
        )
        via_hat_sigma = all(inv.sigma[x] == invert_perm(s.tau[x]) for x in range(s.n))
        via_aut = all(_is_solution_automorphism(s, s.tau[x]) for x in range(s.n))
        assert via_identity == via_red4 == via_solbir == via_hat_sigma == via_aut


def test_left_distributive_iff_inverse_right_distributive(small_solutions):
    for s in small_solutions:
        assert yb.is_left_distributive(s) == yb.is_right_distributive(
            yb.inverse_solution(s)
        )


def test_2reductive_implies_abelian_permutation_group(small_solutions):
    for s in small_solutions:
        red = yb.is_2reductive(s)
        groups = yb.permutation_groups(s)
        if red.red1 and red.red3:
            assert perms_commute(groups.left.generators)
        if red.red2 and red.red4:
            assert perms_commute(groups.right.generators)
        if red.holds:
            assert perms_commute(groups.full.generators)


def test_2reductive_with_condition_star_has_level_at_most_2(small_solutions):
    for s in small_solutions:
        if yb.is_2reductive(s).holds and yb.satisfies_condition_star(s):
            level = yb.multipermutation_level(s).level
            assert level is not None and level <= 2


def test_condition_star_examples(census):
    for u in census[3]:
        s = yb.union_to_solution(u)
        if yb.is_square_free(s):
            assert yb.satisfies_condition_star(s)
    one_orbit = yb.union_to_solution(
        yb.abelian_union([yb.abelian_group([3])], [[1]], [[1]])
    )
    assert not yb.satisfies_condition_star(one_orbit)
    brace_sol = yb.associated_solution(yb.trivial_brace(yb.symmetric_group(3)))
    assert yb.satisfies_condition_star(brace_sol)


def test_condition_star_matches_matrix_remark(census):
    for u in census[3] + census[4]:
        s = yb.union_to_solution(u)
        assert yb.satisfies_condition_star(s) == yb.union_predicates(u).condition_star


def test_injectivity_checks_examples():
    z2, z1, z3 = yb.abelian_group([2]), yb.abelian_group([]), yb.abelian_group([3])
    u = yb.abelian_union([z2, z1], [[0, 0], [0, 0]], [[0, 0], [1, 0]])
    report = yb.injectivity_checks(u)
    assert report.diagonal_ok and not report.order_ok
    assert not report.possibly_injective

    invol = yb.abelian_union([z2, z1], [[1, 0], [1, 0]], [[1, 0], [1, 0]])
    report = yb.injectivity_checks(invol)  # D = -C in Z2
    assert report.diagonal_ok and report.order_ok

    single = yb.abelian_union([z3], [[1]], [[1]])
    report = yb.injectivity_checks(single)
    assert not report.diagonal_ok  # 1 != -1 mod 3

    # a solution's checks are its decomposition's
    report2 = yb.injectivity_checks(yb.solution_to_union(yb.union_to_solution(u)).union)
    assert (report2.diagonal_ok, report2.order_ok) == (True, False)


# ---------------------------------------------------------------------------
# isomorphism search


def test_solutions_isomorphic_matches_canonical_keys(small_solutions):
    rng = random.Random(5)
    sols = small_solutions
    keys = [class_key(s.sigma, s.tau) for s in sols]
    pairs = [(i, j) for i in range(len(sols)) for j in range(len(sols)) if sols[i].n == sols[j].n]
    for i, j in rng.sample(pairs, 60):
        phi = yb.solutions_isomorphic(sols[i], sols[j])
        assert (phi is not None) == (keys[i] == keys[j])
        if phi is not None:
            assert yb.relabel(sols[i], phi) == sols[j]


def test_solutions_isomorphic_finds_relabelings(small_solutions):
    rng = random.Random(13)
    for s in small_solutions:
        phi = list(range(s.n))
        rng.shuffle(phi)
        t = yb.relabel(s, phi)
        assert (t.sigma, t.tau) == (relabel_table(s.sigma, phi), relabel_table(s.tau, phi))
        found = yb.solutions_isomorphic(s, t)
        assert found is not None
        assert yb.relabel(s, found) == t
        assert yb.solutions_isomorphic(s, yb.projection_solution(s.n + 1)) is None


def test_solutions_isomorphic_returns_the_least_isomorphism(small_solutions):
    """The witness is the lex-least isomorphism, the first of a scan of all
    bijections, on every ordered same-size pair of small solutions and on
    seeded relabellings of the order-6 brace solutions."""
    pairs = [(s, t) for s in small_solutions for t in small_solutions if s.n == t.n]
    six = [yb.associated_solution(b) for b in (
        yb.z2n_brace(3), yb.z2n_dual_brace(3),
        yb.trivial_brace(yb.symmetric_group(3)), yb.almost_trivial_brace(yb.symmetric_group(3)),
    )]
    pairs += itertools.product(six, repeat=2)
    for k, s in enumerate(six):
        for seed in range(3):
            t = yb.relabel(s, moving_perm(6, 0, 10 * k + seed))
            pairs += [(s, t), (t, s)]
    found = [yb.solutions_isomorphic(s, t) for s, t in pairs]
    assert found == [least_isomorphism((s.sigma, s.tau), (t.sigma, t.tau)) for s, t in pairs]
    assert None in found


def test_solutions_isomorphic_decides_order_24_and_catalog_relabellings(brace_catalog):
    """The trivial braces of S3xZ4 and D12 (n = 24) have solutions that are not
    isomorphic, though neither is 2-reductive; a seeded relabelling of the
    first, and of every catalog brace's solution, is found."""
    s3z4 = yb.associated_solution(yb.trivial_brace(
        yb.direct_product_group(yb.symmetric_group(3), yb.cyclic_group(4))))
    d12 = yb.associated_solution(yb.trivial_brace(yb.dihedral_group(12)))
    assert (s3z4.n, d12.n) == (24, 24)
    assert not (yb.is_2reductive(s3z4).holds or yb.is_2reductive(d12).holds)
    assert yb.solutions_isomorphic(s3z4, d12) is None
    rng = random.Random(24)
    for s in [s3z4] + [yb.associated_solution(b) for _, b in brace_catalog]:
        t = yb.relabel(s, rng.sample(range(s.n), s.n))
        phi = yb.solutions_isomorphic(s, t)
        assert phi is not None and yb.relabel(s, phi) == t


# the last two sort like 0..2, but a bool or a float is not an int label
@pytest.mark.parametrize("phi", [[0, 0, 1], [0, 1], [0, 1, 5], [True, False, 2], [0.0, 1, 2]])
def test_relabel_rejects_a_map_that_is_not_a_permutation(census_solutions, phi):
    with pytest.raises(ValueError, match="not a permutation of 0..2"):
        yb.relabel(census_solutions[3][0], phi)


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip():
    s = yb.union_to_solution(
        yb.abelian_union([yb.abelian_group([2]), yb.abelian_group([])],
                         [[1, 0], [0, 0]], [[0, 0], [0, 0]])
    )
    data = json.loads(json.dumps(s.to_dict()))
    assert yb.solution_from_dict(data) == s


def test_text_round_trip():
    s = yb.projection_solution(3)
    assert parse_solution_text(solution_to_text(s)) == s
    with pytest.raises(ValueError):
        parse_solution_text("0 1\n1 0\n")  # missing second block
