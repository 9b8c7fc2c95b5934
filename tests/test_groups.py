"""Group substrate: invariant factors, Cayley tables, permutation groups."""

from __future__ import annotations

import itertools
import random

import pytest

import yangbaxter as yb
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


def _order_profile(table):
    n = len(table)
    prof = []
    for x in range(n):
        k, acc = 1, x
        while acc != 0:
            acc = table[acc][x]
            k += 1
        prof.append(k)
    return tuple(sorted(prof))


def test_abelian_groups_of_order_8_against_oracle():
    # Oracle: every abelian group is a direct product of cyclic groups, so
    # enumerate all multisets of cyclic orders >= 2 with product 8, build the
    # tables, and deduplicate by brute-force table isomorphism.
    def multisets(target, cap):
        if target == 1:
            yield ()
            return
        for d in range(min(cap, target), 1, -1):
            if target % d == 0:
                for rest in multisets(target // d, d):
                    yield (d,) + rest

    def product_table(orders):
        size = 1
        for d in orders:
            size *= d

        def decode(x):
            coords = []
            for d in reversed(orders):
                coords.append(x % d)
                x //= d
            return list(reversed(coords))

        def encode(cs):
            x = 0
            for c, d in zip(cs, orders):
                x = x * d + c % d
            return x

        return [
            [encode([a + b for a, b in zip(decode(x), decode(y))]) for y in range(size)]
            for x in range(size)
        ]

    def tables_isomorphic(t1, t2):
        if _order_profile(t1) != _order_profile(t2):
            return False
        n = len(t1)
        for phi in itertools.permutations(range(n)):
            if phi[0] != 0:
                continue
            if all(
                phi[t1[a][b]] == t2[phi[a]][phi[b]] for a in range(n) for b in range(n)
            ):
                return True
        return False

    reps = []
    for orders in multisets(8, 8):
        t = product_table(orders)
        if not any(tables_isomorphic(t, r) for r in reps):
            reps.append(t)
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


def test_perm_group_closure_examples():
    g = yb.perm_group_closure([(1, 0)])
    assert g.order == 2
    s3 = yb.perm_group_closure([(1, 0, 2), (1, 2, 0)])
    assert s3.order == 6
    assert not s3.is_abelian


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


def test_orbits_examples():
    trivial = yb.perm_group_closure([], degree=3)
    assert yb.orbits(trivial) == ((0,), (1,), (2,))
    g = yb.perm_group_closure([(1, 0, 2)])
    assert yb.orbits(g) == ((0, 1), (2,))


def test_orbits_match_graph_components():
    rng = random.Random(11)
    for _ in range(20):
        degree = rng.randrange(2, 7)
        gens = [
            tuple(rng.sample(range(degree), degree)) for _ in range(rng.randrange(1, 4))
        ]
        g = yb.perm_group_closure(gens, degree)
        # connected components of the union of the generators' functional graphs
        adj = {x: set() for x in range(degree)}
        for p in gens:
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
                if v in seen:
                    continue
                seen.add(v)
                comp.append(v)
                stack.extend(adj[v])
            comps.append(tuple(sorted(comp)))
        assert yb.orbits(g) == tuple(sorted(comps))


def test_center_and_element_order():
    s3 = yb.symmetric_group(3)
    assert yb.center(s3) == (0,)
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
    centre = yb.center(q8)
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
        profiles = [_order_profile(t) for t in tables]
        assert len(set(profiles)) == len(profiles)


def test_opposite_group():
    s3 = yb.symmetric_group(3)
    op = s3.opposite()
    for a in range(6):
        for b in range(6):
            assert op.mul(a, b) == s3.mul(b, a)
    z4 = yb.cyclic_group(4)
    assert z4.opposite().table == z4.table


def test_group_serialization_round_trip():
    from yangbaxter.groups import group_from_dict

    q8 = yb.quaternion_group()
    assert group_from_dict(q8.to_dict()) == q8
    with pytest.raises(ValueError):
        group_from_dict({"n": 2})


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
