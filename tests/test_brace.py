"""Skew left braces: axioms, translations, associated solutions, socle,
nilpotency, kernels, and the reductivity profile."""

from __future__ import annotations

import pytest

import yangbaxter as yb
from oracles import center, classes_by_key, congruence_oracle, lambdas_rhos, quotient_oracle
from yangbaxter import brace as brace_module
from yangbaxter.brace import BraceError, BraceViolation
from yangbaxter.groups import identity_perm
from yangbaxter.solution import VerificationError, Violation, validate_tables


def test_verify_brace_examples():
    s3 = yb.symmetric_group(3)
    assert yb.trivial_brace(s3).n == 6
    assert yb.almost_trivial_brace(s3).n == 6
    assert yb.z2n_brace(3).n == 6


def test_brace_law_violation_witness():
    s3 = yb.symmetric_group(3)
    z6 = yb.cyclic_group(6)
    with pytest.raises(BraceError) as exc:
        yb.verify_brace(s3.table, z6.table)
    assert exc.value.violation.check == "brace-law"
    assert exc.value.violation.witness == (1, 1, 1)


def test_brace_violations_are_solution_violations():
    # one contract for both objects: a brace's violation is a Violation, and
    # its error a VerificationError told apart only by its type
    assert BraceViolation is Violation and issubclass(BraceError, VerificationError)
    assert not any(callable(v) for v in vars(BraceError).values())
    with pytest.raises(VerificationError) as exc:
        yb.verify_brace([[0, 1], [1, 0]], [[0]])
    assert type(exc.value) is BraceError
    assert exc.value.violation == Violation("carrier", (2, 1))
    assert str(exc.value) == "carrier fails at (2, 1)"


def test_verify_brace_rejects_non_groups():
    with pytest.raises(BraceError) as exc:
        yb.verify_brace([[0, 1], [1, 0]], [[0, 1], [1, 1]])
    assert exc.value.violation.check == "circle-group"


def test_lemma_identities_follow_from_brace_law(brace_catalog):
    # a o (b^-1 . c) = a . (a o b)^-1 . (a o c) and the mirrored form
    for name, b in brace_catalog:
        if b.n > 10:
            continue
        dot, circ = b.dot, b.circle
        for a in range(b.n):
            for x in range(b.n):
                for c in range(b.n):
                    lhs = circ.mul(a, dot.mul(dot.inv[x], c))
                    rhs = dot.mul(
                        dot.mul(a, dot.inv[circ.mul(a, x)]), circ.mul(a, c)
                    )
                    assert lhs == rhs, name
                    lhs2 = circ.mul(a, dot.mul(x, dot.inv[c]))
                    rhs2 = dot.mul(
                        dot.mul(circ.mul(a, x), dot.inv[circ.mul(a, c)]), a
                    )
                    assert lhs2 == rhs2, name


def test_lambda_examples():
    s3 = yb.symmetric_group(3)
    triv = yb.trivial_brace(s3)
    assert all(lam == identity_perm(6) for lam in triv.lambdas)
    alm = yb.almost_trivial_brace(s3)
    for a in range(6):
        for x in range(6):
            assert alm.lambdas[a][x] == s3.mul(s3.mul(s3.inv[a], x), a)
    z6 = yb.z2n_brace(3)
    for a in range(6):
        for x in range(6):
            expected = x if a % 2 == 0 else (-x) % 6
            assert z6.lambdas[a][x] == expected


def test_associated_solution_examples():
    s3 = yb.symmetric_group(3)
    triv = yb.trivial_brace(s3)
    sol = yb.associated_solution(triv)
    for a in range(6):
        for x in range(6):
            assert sol.tau[a][x] == s3.mul(s3.mul(s3.inv[a], x), a)
    alm_ab = yb.almost_trivial_brace(yb.cyclic_group(4))
    assert yb.is_projection(yb.associated_solution(alm_ab))
    z6 = yb.z2n_brace(3)
    sz6 = yb.associated_solution(z6)
    for x in range(6):
        for y in range(6):
            sign = 1 if (y + 1) % 2 == 0 else -1
            assert sz6.tau[x][y] == (sign * x + x + y) % 6


def test_opposite_brace_properties(brace_catalog):
    for name, b in brace_catalog:
        if b.dot.is_abelian:
            assert yb.opposite_brace(b) == b, name
        assert yb.opposite_brace(yb.opposite_brace(b)) == b, name


def test_opposite_of_trivial_is_conjugation_shape():
    s3 = yb.symmetric_group(3)
    opp = yb.opposite_brace(yb.trivial_brace(s3))
    sol = yb.associated_solution(opp)
    for a in range(6):
        for x in range(6):
            assert sol.sigma[a][x] == s3.mul(s3.mul(a, x), s3.inv[a])
            assert sol.tau[a][x] == x


def test_is_biskew_examples():
    assert yb.is_biskew(yb.trivial_brace(yb.symmetric_group(3)))
    assert yb.is_biskew(yb.z2n_brace(3))
    assert not yb.is_biskew(yb.dihedral_example_brace())


def test_socle_examples():
    s3 = yb.symmetric_group(3)
    assert yb.socle(yb.almost_trivial_brace(s3)).elements == (0,)
    assert yb.socle(yb.z2n_brace(3)).elements == (0,)
    z4 = yb.cyclic_group(4)
    assert yb.socle(yb.trivial_brace(z4)).elements == (0, 1, 2, 3)
    q8 = yb.quaternion_group()
    assert list(yb.socle(yb.almost_trivial_brace(q8)).elements) == center(q8.table)


def test_socle_series_examples():
    z4 = yb.cyclic_group(4)
    assert yb.socle_series(yb.trivial_brace(z4)).nilpotency_class == 1
    q8 = yb.quaternion_group()
    series = yb.socle_series(yb.almost_trivial_brace(q8))
    assert series.nilpotency_class == 2
    assert [q.n for q in series.quotients] == [8, 4, 1]
    z6 = yb.z2n_brace(3)
    series = yb.socle_series(z6)
    assert not series.is_nilpotent
    assert series.stabilized.n == 6
    assert "not nilpotent" in series.describe()


def test_socle_series_decides_no_ideal(monkeypatch, brace_catalog):
    # each socle is Ker lambda .cap. Ker rho, an ideal by theorem: the series
    # reads the two kernels and runs no normality or ideal check on them
    expected = {name: yb.socle_series(b) for name, b in brace_catalog}

    def refuse(*args):
        raise AssertionError("ideal verdict in socle_series")

    for name in ("is_normal", "is_ideal", "kernel_ideals"):
        monkeypatch.setattr(brace_module, name, refuse)
    for name, b in brace_catalog:
        assert yb.socle_series(b) == expected[name], name


def test_kernel_ideals_z6():
    b = yb.z2n_brace(3)
    report = yb.kernel_ideals(b)
    assert report.ker_lambda == (0, 2, 4)
    assert report.ker_lambda_is_ideal
    assert report.ker_rho == (0, 3)
    assert not report.ker_rho_is_ideal
    assert not yb.is_normal(b.dot, report.ker_rho)


def test_kernel_ideals_trivial_brace():
    b = yb.trivial_brace(yb.cyclic_group(5))
    report = yb.kernel_ideals(b)
    assert report.ker_lambda == (0, 1, 2, 3, 4)
    assert report.ker_lambda_is_ideal


def test_biskew_left_retract_is_quotient_by_ker_lambda():
    # for a bi-skew brace, LRet(solution) is the solution of B / Ker(lambda)
    b = yb.z2n_brace(3)
    assert yb.is_biskew(b)
    s = yb.associated_solution(b)
    sim = classes_by_key(s.sigma)
    assert congruence_oracle(s.sigma, s.tau, sim)
    quotient = yb.associated_solution(yb.quotient_brace(b, yb.kernel_ideals(b).ker_lambda)[0])
    assert quotient_oracle(s.sigma, s.tau, sim) == (quotient.sigma, quotient.tau)


def test_quotient_brace_validates_ideal():
    b = yb.z2n_brace(3)
    with pytest.raises(ValueError):
        yb.quotient_brace(b, yb.kernel_ideals(b).ker_rho)


def test_right_distributive_rho_formula(brace_catalog):
    # when the associated solution is right distributive:
    # rho_y(x) = ybar o (x . y) and every rho_x is an automorphism of the dot
    # group (conjugation on a trivial brace is the model case)
    found = 0
    for name, b in brace_catalog:
        s = yb.associated_solution(b)
        if not yb.is_right_distributive(s):
            continue
        found += 1
        dot, circ = b.dot, b.circle
        for y in range(b.n):
            for x in range(b.n):
                assert b.rhos[y][x] == circ.mul(circ.inv[y], dot.mul(x, y)), name
        for x in range(b.n):
            rho = b.rhos[x]
            for a in range(b.n):
                for c in range(b.n):
                    assert rho[dot.mul(a, c)] == dot.mul(rho[a], rho[c]), name
    assert found > 0


def test_reductivity_profiles():
    q8 = yb.quaternion_group()
    b = yb.almost_trivial_brace(q8)
    prof = yb.reductivity_profile(b)
    assert prof.reductivity.holds and prof.multipermutation.level == 2
    assert yb.socle_series(b).nilpotency_class == 2

    prof = yb.reductivity_profile(yb.z2n_brace(3))
    assert prof.reductivity == (True, False, True, False)

    # trivial brace on S3: lambda = id makes red1, red3, red4 hold; red2 needs
    # conjugation classes mod the center, which fails for S3
    b = yb.trivial_brace(yb.symmetric_group(3))
    prof = yb.reductivity_profile(b)
    assert prof.reductivity == (True, False, True, True)
    assert prof.multipermutation.level is None
    assert yb.socle_series(b).nilpotency_class is None


def test_brace_theorems_on_catalog(brace_catalog):
    # theorems the library relies on without checking them at run time
    for name, b in brace_catalog:
        n, dot, circ = b.n, b.dot, b.circle
        lams, rhos = lambdas_rhos(dot.table, circ.table)
        # the map of a skew brace is a solution, involutive iff dot is abelian
        s = yb.associated_solution(b)
        assert validate_tables(s.sigma, s.tau) is None, name
        assert yb.is_involutive(s) == dot.is_abelian, name
        # rho_y(x) = lambda_{lambda_x(y)}^-1((x o y)^-1 . x . (x o y))
        for x in range(n):
            for y in range(n):
                xy = circ.mul(x, y)
                conj = dot.mul(dot.mul(dot.inv[xy], x), xy)
                assert lams[lams[x][y]][rhos[y][x]] == conj, name
        # Soc(B) = Ker lambda .cap. Z(B, .), and it is an ideal
        soc = yb.socle(b).elements
        ident = identity_perm(n)
        ker_lam = {a for a in range(n) if lams[a] == ident}
        assert set(soc) == ker_lam & set(center(dot.table)), name
        assert yb.is_ideal(b, soc), name
        # the dot cosets of an ideal are its circle cosets, and the quotient
        # by an ideal is a brace onto which both groups project
        kernels = yb.kernel_ideals(b)
        for ideal in (soc, kernels.ker_lambda, kernels.ker_rho):
            if not yb.is_ideal(b, ideal):
                continue
            for a in range(n):
                dot_coset = {dot.mul(a, x) for x in ideal}
                assert dot_coset == {circ.mul(a, x) for x in ideal}, name
            q, proj = yb.quotient_brace(b, ideal)
            assert yb.verify_brace(q.dot.table, q.circle.table) == q, name
            for x in range(n):
                for y in range(n):
                    assert proj[dot.mul(x, y)] == q.dot.mul(proj[x], proj[y]), name
                    assert proj[circ.mul(x, y)] == q.circle.mul(proj[x], proj[y]), name
        # the opposite is a brace, and so is every socle-series quotient of
        # b and of its opposite; each step is the quotient by the socle,
        # which is an ideal, so socle_series skips quotient_brace's check
        opp = yb.opposite_brace(b)
        assert yb.verify_brace(opp.dot.table, opp.circle.table) == opp, name
        for side in (b, opp):
            series = yb.socle_series(side)
            quotients = series.quotients
            assert series.socles == tuple(map(yb.socle, quotients)), name
            for prev, q in zip(quotients, quotients[1:]):
                soc = yb.socle(prev).elements
                assert yb.is_ideal(prev, soc), name
                assert yb.quotient_brace(prev, soc)[0] == q, name
                assert yb.verify_brace(q.dot.table, q.circle.table) == q, name
        # bi-skew is the full brace check with the two groups swapped
        try:
            yb.verify_brace(circ.table, dot.table)
            swapped = True
        except BraceError:
            swapped = False
        assert yb.is_biskew(b) == swapped, name


def test_product_brace_lambda_formula():
    s3 = yb.symmetric_group(3)
    prod = yb.product_brace(yb.trivial_brace(s3), yb.almost_trivial_brace(s3))
    n2 = 6
    sol = yb.associated_solution(prod)
    for x in range(6):
        for y in range(6):
            for u in range(6):
                for w in range(6):
                    a = x * n2 + y
                    bb = u * n2 + w
                    expected = u * n2 + s3.mul(s3.mul(s3.inv[y], w), y)
                    assert sol.sigma[a][bb] == expected


def test_dihedral_example_witness():
    b = yb.dihedral_example_brace()
    s = yb.associated_solution(b)
    e1, f, f_e1, f_e3 = 1, 4, 5, 7
    assert s.tau[f_e1][f_e1] == f_e1
    assert s.tau[f_e1][f] == f
    assert s.tau[f_e1][e1] == f_e3
    assert b.dot.mul(f_e1, f) != f_e3  # rho_{f+e1} is not an endomorphism


def test_z2n_builders():
    assert yb.z2n_brace(1).n == 2
    assert yb.z2n_dual_brace(1).n == 2
    with pytest.raises(ValueError):
        yb.z2n_brace(2)
    with pytest.raises(ValueError):
        yb.z2n_dual_brace(0)


def test_rhos_at_edge_sizes():
    # order 1; 255 and 256, the largest byte rows, padded by one byte and by
    # none; 257 and 258, tuple rows: the twisted Z258 and the almost-trivial
    # dihedral brace, whose 258 lambdas (the conjugations of a centreless
    # group) are all distinct.  Every group of order 255 or 257 is cyclic,
    # so those braces are trivial
    for b in (yb.trivial_brace(yb.cyclic_group(1)), yb.trivial_brace(yb.cyclic_group(255)),
              yb.almost_trivial_brace(yb.dihedral_group(128)),
              yb.trivial_brace(yb.cyclic_group(257)), yb.z2n_brace(129),
              yb.almost_trivial_brace(yb.dihedral_group(129))):
        lams, rhos = lambdas_rhos(b.dot.table, b.circle.table)
        assert (b.lambdas, b.rhos) == (lams, rhos), b.n
        assert all(type(row) is tuple for row in b.lambdas + b.rhos), b.n
        assert {type(x) for row in b.lambdas + b.rhos for x in row} == {int}, b.n


def test_lambdas_and_rhos_match_the_definitions(brace_catalog):
    # both are composed on row kernels; the oracle reads every entry
    for name, b in brace_catalog:
        for side in (b, yb.opposite_brace(b)):
            lams, rhos = lambdas_rhos(side.dot.table, side.circle.table)
            assert (side.lambdas, side.rhos) == (lams, rhos), name


def test_ker_lambda_is_an_ideal_iff_dot_normal(brace_catalog):
    # kernel_ideals decides Ker lambda by dot-normality alone (the theorem
    # in its docstring); is_ideal checks both groups and every lambda_a
    verdicts = []
    for name, b in brace_catalog:
        for side in (b, yb.opposite_brace(b)):
            kernels = yb.kernel_ideals(side)
            assert kernels.ker_lambda_is_ideal == yb.is_ideal(side, kernels.ker_lambda), name
            assert kernels.ker_rho_is_ideal == yb.is_ideal(side, kernels.ker_rho), name
            verdicts.append(kernels.ker_lambda_is_ideal)
    assert any(verdicts) and not all(verdicts)


def test_z2n_dual_is_2reductive():
    for n in (1, 3, 5):
        b = yb.z2n_dual_brace(n)
        assert yb.is_2reductive(yb.associated_solution(b)).holds


def test_meta_triviality_via_socle_for_2reductive(brace_catalog):
    # when the associated solution is 2-reductive, the socle quotient is a
    # trivial brace (dot = circle) and the socle itself is a trivial sub-brace
    for name, b in brace_catalog:
        if not yb.is_2reductive(yb.associated_solution(b)).holds:
            continue
        soc = yb.socle(b).elements
        for a in soc:
            for x in soc:
                assert b.dot.mul(a, x) == b.circle.mul(a, x), name
        quotient, _ = yb.quotient_brace(b, soc)
        assert quotient.dot.table == quotient.circle.table, name


def test_nilpotent_brace_has_nilpotent_dot_group(brace_catalog):
    # lower central series of the dot group must terminate when the brace is
    # nilpotent (socle series reaches size one)
    def group_is_nilpotent(g):
        current = list(range(g.n))
        while True:
            commutators = {
                g.mul(g.mul(g.inv[a], g.inv[x]), g.mul(a, x))
                for a in range(g.n)
                for x in current
            }
            nxt = yb.subgroup_generated(g, commutators)
            if set(nxt) == set(current):
                return len(nxt) == 1
            current = list(nxt)

    for name, b in brace_catalog:
        if yb.socle_series(b).is_nilpotent:
            assert group_is_nilpotent(b.dot), name


def test_brace_serialization(brace_catalog):
    for name, b in brace_catalog[:5]:
        assert yb.brace_from_dict(b.to_dict()) == b


def test_verified_brace_carries_the_lambdas_it_was_checked_with():
    z6 = yb.z2n_brace(3)
    # the brace law reads the lambdas' row kernel, and the lambdas are read off it
    b = yb.verify_brace(z6.dot.table, z6.circle.table)
    assert "lambda_kernel" in vars(b)
    assert b.lambdas == lambdas_rhos(b.dot.table, b.circle.table)[0]
    assert b.lambdas == tuple(map(tuple, vars(b)["lambda_kernel"].rows))


def test_builders_from_groups_pass_verify_brace(brace_catalog):
    # trivial, almost trivial and product braces are built without the
    # brace-law check; verify_brace on their tables gives them back
    built = [yb.trivial_brace(g) for _, g in yb.small_groups(8)]
    built += [yb.almost_trivial_brace(g) for _, g in yb.small_groups(8)]
    built += [b for name, b in brace_catalog if ")x" in name]
    assert len(built) == 2 * len(yb.small_groups(8)) + 2
    for b in built:
        assert yb.verify_brace(b.dot.table, b.circle.table) == b


def test_2reductive_brace_has_class_at_most_2_dot_group(brace_catalog):
    # class <= 2 is equivalent to the center-quotient being abelian
    for name, b in brace_catalog:
        if not yb.is_2reductive(yb.associated_solution(b)).holds:
            continue
        quotient, _ = yb.quotient(b.dot, center(b.dot.table))
        assert quotient.is_abelian, name
