"""Group substrate: invariant factors, Cayley tables, permutation groups."""

from __future__ import annotations

import itertools
import random

import pytest

import yangbaxter as yb
from oracles import (
    automorphisms,
    block_table,
    center,
    element_orders,
    isomorphisms_oracle,
    orbits,
    perms_commute,
)
from yangbaxter.groups import (
    compose,
    finite_group,
    group_from_perm_generators,
    invert_perm,
    is_subgroup,
)


def test_abelian_group_trivial():
    g = yb.abelian_group([])
    assert g.factors == ()
    assert g.n == 1
    assert g.as_finite_group.table == ((0,),)


def test_abelian_group_z2():
    g = yb.abelian_group([2])
    assert g.as_finite_group.table == ((0, 1), (1, 0))


def test_invariant_factor_normalization():
    assert yb.invariant_factors([2, 3]) == (6,)
    assert yb.invariant_factors([4, 2]) == (2, 4)
    assert yb.invariant_factors([6, 4]) == (2, 12)
    assert yb.invariant_factors([1, 1, 5]) == (5,)
    assert yb.abelian_group([2, 4]).factors != yb.abelian_group([8]).factors


def test_abelian_group_rejects_nonpositive():
    with pytest.raises(ValueError):
        yb.abelian_group([0])
    with pytest.raises(ValueError):
        yb.abelian_group([-2])


def test_abelian_groups_of_order_small():
    assert [g.factors for g in yb.abelian_groups_of_order(1)] == [()]
    assert [g.factors for g in yb.abelian_groups_of_order(4)] == [(4,), (2, 2)]
    with pytest.raises(ValueError):
        yb.abelian_groups_of_order(0)


def test_abelian_groups_of_order_8_against_oracle():
    # Oracle: every abelian group is a direct product of cyclic groups, so
    # enumerate all multisets of cyclic orders >= 2 with product 8, build the
    # tables in mixed radix, and deduplicate by isomorphisms from generator
    # images.
    def multisets(target, cap):
        if target == 1:
            yield ()
            return
        for d in range(min(cap, target), 1, -1):
            if target % d == 0:
                for rest in multisets(target // d, d):
                    yield (d,) + rest

    reps = []
    for orders in multisets(8, 8):
        if not any(next(isomorphisms_oracle(orders, r), None) for r in reps):
            reps.append(block_table(orders))
    assert len(reps) == 3
    assert len(yb.abelian_groups_of_order(8)) == 3


def test_abelian_table_symmetry():
    for factors in ([3], [2, 2], [2, 4], [2, 2, 2], [6]):
        t = yb.abelian_group(factors).as_finite_group.table
        n = len(t)
        assert all(t[a][b] == t[b][a] for a in range(n) for b in range(n))


def test_automorphism_counts():
    assert len(yb.abelian_group([3]).automorphisms) == 2
    assert len(yb.abelian_group([4]).automorphisms) == 2
    assert len(yb.abelian_group([2, 2]).automorphisms) == 6
    assert len(yb.abelian_group([2, 4]).automorphisms) == 8
    assert len(yb.abelian_group([2, 2, 2]).automorphisms) == 168  # |GL(3, 2)|


def test_automorphisms_are_automorphisms():
    g = yb.abelian_group([2, 4])
    for phi in g.automorphisms:
        assert sorted(phi) == list(range(g.n))
        for a in range(g.n):
            for b in range(g.n):
                assert phi[g.add(a, b)] == g.add(phi[a], phi[b])


def test_automorphisms_match_the_generator_image_oracle():
    # every abelian group of order <= 32 but Z2^4, Z2^3xZ4 and Z2^5, whose
    # 20,160, 21,504 and 9,999,360 automorphisms take the oracle ~0.5 s,
    # ~0.8 s and minutes; Z2^4's are the filter's in test_kernels
    skipped = {(2, 2, 2, 2), (2, 2, 2, 4), (2, 2, 2, 2, 2)}
    checked = 0
    for n in range(1, 33):
        for g in yb.abelian_groups_of_order(n):
            if g.factors not in skipped:
                assert g.automorphisms == automorphisms(g.factors), g.factors
                checked += 1
    assert checked == 55 - len(skipped)


def test_block_queries_match_the_oracle_on_non_cyclic_blocks():
    # least_image and automorphisms_sending, as unions calls them, against
    # the oracle's sorted automorphisms filtered by hand: every non-cyclic
    # type of order <= 16 but Z2^4 (20,160 automorphisms), random tuples of
    # elements sent to their images under a random automorphism (the maps
    # that fit are a coset of a stabiliser) and to random images (mostly none)
    rng = random.Random(1616)
    types, fits = [], {True: 0, False: 0}
    for n in range(1, 17):
        for g in yb.abelian_groups_of_order(n):
            if len(g.factors) < 2 or g.factors == (2, 2, 2, 2):
                continue
            types.append(g.factors)
            auts = automorphisms(g.factors)
            assert list(g.automorphisms_sending((), ())) == list(auts), g.factors
            for size in (1, 1, 2, 2, 3, 5):
                elems = [rng.randrange(n) for _ in range(size)]
                least = min(tuple(psi[x] for x in elems) for psi in auts)
                assert g.least_image(tuple(elems)) == least, (g.factors, elems)
                psi = rng.choice(auts)
                for images in ([psi[x] for x in elems], [rng.randrange(n) for _ in elems]):
                    want = [phi for phi in auts if all(phi[x] == y for x, y in zip(elems, images))]
                    got = list(g.automorphisms_sending(elems, images))
                    assert got == want, (g.factors, elems, images)
                    fits[bool(got)] += 1
    assert types == [(2, 2), (2, 4), (2, 2, 2), (3, 3), (2, 6), (2, 8), (4, 4), (2, 2, 4)]
    assert min(fits.values()) > 30, fits


def test_perm_group_closure_examples():
    g = yb.perm_group_closure([(1, 0)])
    assert len(g.elements) == 2
    s3 = yb.perm_group_closure([(1, 0, 2), (1, 2, 0)])
    assert len(s3.elements) == 6
    assert not perms_commute(s3.elements)


def test_perm_group_closure_degree_mismatch():
    with pytest.raises(ValueError):
        yb.perm_group_closure([(1, 0), (1, 2, 0)])


def test_closure_independent_of_generator_order():
    gens = [(1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)]
    base = set(yb.perm_group_closure(gens).elements)
    rng = random.Random(7)
    for _ in range(5):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert set(yb.perm_group_closure(shuffled).elements) == base


def _orbits(g):
    """The orbits of a permutation group, as its elements' images of each point."""
    return tuple(sorted({tuple(sorted({p[x] for p in g.elements})) for x in range(g.degree)}))


def test_orbits_examples():
    trivial = yb.perm_group_closure([], degree=3)
    assert _orbits(trivial) == ((0,), (1,), (2,))
    g = yb.perm_group_closure([(1, 0, 2)])
    assert _orbits(g) == ((0, 1), (2,))


def test_orbits_match_graph_components():
    rng = random.Random(11)
    for _ in range(20):
        degree = rng.randrange(2, 7)
        gens = [
            tuple(rng.sample(range(degree), degree)) for _ in range(rng.randrange(1, 4))
        ]
        # the closure's orbits are the components of the generators' graphs
        assert _orbits(yb.perm_group_closure(gens, degree)) == orbits(degree, gens)


def test_center_and_element_order():
    assert center(yb.symmetric_group(3).table) == [0]
    z6 = yb.cyclic_group(6)
    assert yb.element_order(z6, 2) == 3
    assert yb.element_order(z6, 1) == 6


def test_quotient_z6():
    z6 = yb.cyclic_group(6)
    q, proj = yb.quotient(z6, [0, 3])
    assert q.n == 3
    assert len(set(proj)) == 3
    for a in range(6):
        for b in range(6):
            assert proj[z6.mul(a, b)] == q.mul(proj[a], proj[b])


def test_quotient_order_and_homomorphism():
    q8 = yb.quaternion_group()
    centre = center(q8.table)
    q, proj = yb.quotient(q8, centre)
    assert q.n == q8.n // len(centre)
    for a in range(8):
        for b in range(8):
            assert proj[q8.mul(a, b)] == q.mul(proj[a], proj[b])
    # built without validation: the cosets of a normal subgroup form a group;
    # checked for every normal cyclic subgroup of the groups of order <= 8
    for name, g in yb.small_groups(8):
        for x in range(g.n):
            sub = yb.subgroup_generated(g, [x])
            if not yb.is_normal(g, sub):
                continue
            q, proj = yb.quotient(g, sub)
            assert finite_group(q.table) == q, name
            assert q.n * len(sub) == g.n, name
            for a in range(g.n):
                for b in range(g.n):
                    assert proj[g.mul(a, b)] == q.mul(proj[a], proj[b]), name


def test_quotient_rejects_non_normal():
    s3 = yb.symmetric_group(3)
    sub = next(
        s for s in (yb.subgroup_generated(s3, [x]) for x in range(6))
        if len(s) == 2
    )
    assert is_subgroup(s3, sub)
    assert not yb.is_normal(s3, sub)
    with pytest.raises(ValueError):
        yb.quotient(s3, sub)


@pytest.mark.parametrize("n", [0, -3])
def test_cyclic_group_rejects_a_nonpositive_order(n):
    with pytest.raises(ValueError, match=f"order must be positive, got {n}"):
        yb.cyclic_group(n)


def test_subgroup_generated():
    z6 = yb.cyclic_group(6)
    assert yb.subgroup_generated(z6, [2]) == (0, 2, 4)
    assert yb.subgroup_generated(z6, []) == (0,)


def test_finite_group_rejects_bad_tables():
    with pytest.raises(ValueError):
        finite_group([[0, 0], [0, 1]])  # row not a permutation
    with pytest.raises(ValueError):
        finite_group([[0, 1, 2], [1, 2, 0], [2, 1, 0]])  # column/latin failure
    # associativity failure with rows and columns both latin
    with pytest.raises(ValueError):
        finite_group([
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 3, 4, 0, 1],
            [3, 4, 1, 2, 0],
            [4, 2, 0, 1, 3],
        ])


def _first_line_fault(rows):
    """finite_group's message for a table that breaks a row or a column, by
    a plain scan: rows by their sorted entries, then columns; None if none."""
    n = len(rows)
    perm = list(range(n))
    for i, row in enumerate(rows):
        if sorted(row) != perm:
            return f"table row {i} is not a permutation of 0..{n - 1}"
    for j in range(n):
        if sorted(row[j] for row in rows) != perm:
            return f"table column {j} is not a permutation of 0..{n - 1}"
    return None


def _put(row, j, value):
    return row[:j] + (value,) + row[j + 1:]


# each case changes row r of Z_n's table, which holds 0 at column j
_ROW_CHANGES = {
    "entry-n": lambda row, j, n: _put(row, j, n),
    "entry-255": lambda row, j, n: _put(row, j, 255),
    "entry-256": lambda row, j, n: _put(row, j, 256),
    "entry-minus-1": lambda row, j, n: _put(row, j, -1),
    "repeated": lambda row, j, n: _put(row, j, row[j - 1]),
    "short": lambda row, j, n: row[:-1],
    "long": lambda row, j, n: row + (row[0],),
    "float": lambda row, j, n: _put(row, j, 0.5),
    "bool-for-0": lambda row, j, n: _put(row, j, True),
    # the same values: a bool for each 0 or 1 is an int to both encodings
    "bool-equal": lambda row, j, n: tuple(bool(x) if x < 2 else x for x in row),
    # still a permutation, but columns j - 1 and j repeat a value
    "swapped": lambda row, j, n: _put(_put(row, j, row[j - 1]), (j - 1) % n, row[j]),
}


@pytest.mark.parametrize("n", [1, 2, 255, 256, 257])
@pytest.mark.parametrize("case", sorted(_ROW_CHANGES))
def test_permutation_check_names_the_first_fault(n, case):
    # rows are checked on their encoding, bytes up to n = 256 and tuples
    # above; either way the first fault is the plain scan's, and a table
    # whose values are Z_n's is the group Z_n
    cyclic = [tuple((i + k) % n for k in range(n)) for i in range(n)]
    r = n // 2
    rows = cyclic[:]
    rows[r] = _ROW_CHANGES[case](rows[r], (n - r) % n, n)
    expected = _first_line_fault(rows)
    assert (expected is None) == (rows == cyclic)
    if expected is None:
        assert finite_group(rows).table == tuple(cyclic)
        assert yb.perm_group_closure(rows, n).degree == n
        return
    with pytest.raises(ValueError) as exc:
        finite_group(rows)
    assert str(exc.value) == expected
    # as generators, the first row that is not a permutation is named
    bad = next((row for row in rows if sorted(row) != list(range(n))), None)
    if bad is None:
        assert yb.perm_group_closure(rows, n).degree == n
        return
    with pytest.raises(ValueError) as exc:
        yb.perm_group_closure(rows, n)
    assert str(exc.value) == (
        f"generator degree {len(bad)} does not match {n}" if len(bad) != n
        else f"generator {bad} is not a permutation"
    )


def test_group_from_perm_generators_composition_convention():
    a = (1, 0, 2)
    b = (0, 2, 1)
    assert compose(a, b) == (1, 2, 0)  # b first
    assert invert_perm((1, 2, 0)) == (2, 0, 1)
    g = group_from_perm_generators([a, b], 3)
    assert g.n == 6


def test_small_groups_catalog():
    cat = yb.small_groups(8)
    assert len(cat) == 14
    by_order: dict[int, list[str]] = {}
    for name, g in cat:
        by_order.setdefault(g.n, []).append(name)
        assert g.id == 0
    assert sorted(by_order[8]) == ["D4", "Q8", "Z2xZ2xZ2", "Z2xZ4", "Z8"]
    # pairwise non-isomorphic within an order: element-order profiles differ
    for order, names in by_order.items():
        tables = [g.table for name, g in cat if g.n == order]
        profiles = [tuple(sorted(element_orders(t))) for t in tables]
        assert len(set(profiles)) == len(profiles)


def test_opposite_group():
    s3 = yb.symmetric_group(3)
    op = s3.opposite()
    for a in range(6):
        for b in range(6):
            assert op.mul(a, b) == s3.mul(b, a)
    z4 = yb.cyclic_group(4)
    assert z4.opposite().table == z4.table


def test_abelian_block_tables_are_coordinatewise_addition():
    # the union-file format: element x of Z_d1 x ... x Z_dk is the x-th digit
    # tuple in mixed-radix order, the first factor most significant
    types = []

    def chains(prefix, order):
        types.append(tuple(prefix))
        last = prefix[-1] if prefix else 1
        for d in range(max(2, last), 17):
            if d % last == 0 and order * d <= 16:
                chains(prefix + [d], order * d)

    chains([], 1)
    blocks = [g for m in range(1, 17) for g in yb.abelian_groups_of_order(m)]
    assert sorted(g.factors for g in blocks) == sorted(types)
    for g in blocks:
        coords = list(itertools.product(*(range(d) for d in g.factors)))
        index = {x: i for i, x in enumerate(coords)}
        fg = g.as_finite_group
        assert fg.n == g.n == len(coords) and fg.id == 0
        for a, ca in enumerate(coords):
            neg = index[tuple(-x % d for x, d in zip(ca, g.factors))]
            assert fg.inv[a] == g.neg(a) == neg, g.factors
            for b, cb in enumerate(coords):
                total = index[tuple((x + y) % d for x, y, d in zip(ca, cb, g.factors))]
                assert fg.table[a][b] == g.add(a, b) == total, g.factors


def test_direct_product_tables_follow_the_pair_formula():
    # (a1, a2)(b1, b2) = (a1 b1, a2 b2), the pair (a, b) packed as a * |g2| + b
    catalog = yb.small_groups(6)
    for (_, g1), (_, g2) in itertools.product(catalog, repeat=2):
        p, m = yb.direct_product_group(g1, g2), g2.n
        assert p.n == g1.n * m and p.id == g1.id * m + g2.id
        for a1, a2 in itertools.product(range(g1.n), range(m)):
            assert p.inv[a1 * m + a2] == g1.inv[a1] * m + g2.inv[a2]
            assert p.table[a1 * m + a2] == tuple(
                g1.table[a1][b1] * m + g2.table[a2][b2]
                for b1, b2 in itertools.product(range(g1.n), range(m))
            )


@pytest.mark.parametrize("call, message", [
    (lambda: yb.abelian_union([yb.abelian_group([2])] * 2, [[1, 0], [0]], [[0, 0], [0, 1]]),
     "C: must be a 2 x 2 matrix"),
    (lambda: yb.union_from_dict({"groups": [[2]], "C": [[1]]}), "missing key 'D' in union data"),
    (lambda: yb.solution_from_dict({"sigma": [[0]]}), "missing key 'tau' in solution data"),
    (lambda: finite_group([]), "group carrier must be non-empty"),
    (lambda: yb.element_order(yb.cyclic_group(3), 3), "element 3 out of range"),
], ids=["non-square-union-matrix", "union-missing-key", "solution-missing-key",
        "empty-group-table", "element-out-of-range"])
def test_library_contract_errors(call, message):
    # each library entry point refuses outside input with one line that no
    # CLI run reaches, as the loaders check first
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
