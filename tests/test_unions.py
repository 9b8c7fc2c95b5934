"""Union construction, decomposition, isomorphism, canonical forms, census."""

from __future__ import annotations

import contextlib
import gc
import itertools
import operator
import random
import signal
import tracemalloc
from math import prod

import pytest

import yangbaxter as yb
from oracles import (
    abelian_group_count,
    automorphisms,
    block_table,
    canonical_union,
    class_key,
    generates,
    isomorphisms_oracle,
    relabel_table,
    span,
    transform,
    union_tables,
    witness_scan,
)
from yangbaxter import cli
from yangbaxter import groups as groups_module
from yangbaxter import unions as unions_module
from yangbaxter.groups import _gather, invert_perm
from yangbaxter.solution import FiniteSolution, validate_tables
from yangbaxter.unions import (
    AbelianUnion,
    _cell_positions,
    _torsor_isomorphism,
    cell_keys,
    census_cells,
    census_keys,
    enumerate_cell,
    unions_of_cells,
)


Z1 = yb.abelian_group([])
Z2 = yb.abelian_group([2])
Z3 = yb.abelian_group([3])


def _plain(u):
    """The union as the oracles read it: (block types, C, D)."""
    return tuple(g.factors for g in u.groups), u.c, u.d


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
    u = AbelianUnion(groups=(Z3,), c=((0,),), d=((0,),))  # a non-generating union
    s = yb.union_to_solution(u)
    assert yb.is_projection(s)
    # honest re-decomposition splits the non-generating block into orbits
    assert yb.solution_to_union(s).union.orbit_type() == ((), (), ())


def test_solution_to_union_requires_2reductive():
    with pytest.raises(ValueError):
        yb.solution_to_union(
            yb.associated_solution(yb.trivial_brace(yb.symmetric_group(3)))
        )


@contextlib.contextmanager
def _within(seconds):
    """Raises TimeoutError in the block once it has run the given wall
    seconds, so that a call that never returns fails the test."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("sigma_row, tau_row, violation", [
    # red1-red4 hold, but the rows do not commute
    ((1, 0, 2), (0, 2, 1), "birack:2 fails at (0, 0, 0)"),
    # red1-red4 hold, but a row is not a permutation
    ((0, 0), (0, 1), "sigma-row fails at (0,)"),
], ids=["not-braided", "not-a-permutation"])
def test_decomposition_rejects_tables_that_are_not_a_solution(sigma_row, tau_row, violation):
    # tables built without verify: the decomposition checks its
    # precondition instead of walking orbits that are not torsors
    n = len(sigma_row)
    s = FiniteSolution(n=n, sigma=(sigma_row,) * n, tau=(tau_row,) * n)
    assert yb.is_2reductive(s).holds
    assert str(validate_tables(s.sigma, s.tau)) == violation
    for decompose in (yb.solution_to_union, yb.injectivity_necessary_checks):
        with _within(5), pytest.raises(ValueError, match="^tables are not a solution"):
            decompose(s)


def test_round_trip_with_carrier_map(census, small_solutions):
    for n in (2, 3, 4):
        for u in census[n]:
            s = yb.union_to_solution(u)
            dec = yb.solution_to_union(s)
            assert yb.relabel(s, dec.carrier_map) == yb.union_to_solution(dec.union)
            witness = yb.unions_isomorphic(dec.union, u)
            assert witness is not None
    # solution_to_union builds its union without validating it; the
    # validating constructor accepts every decomposition
    for s in [yb.union_to_solution(u) for n in (2, 3, 4) for u in census[n]] + [
        s for s in small_solutions if yb.is_2reductive(s).holds
    ]:
        u = yb.solution_to_union(s).union
        assert yb.abelian_union(u.groups, u.c, u.d) == u


def _wide_unions():
    """Unions with blocks outside the small census, up to 260 points."""
    z2x4, z3x3, z2_4 = yb.abelian_group([2, 4]), yb.abelian_group([3, 3]), yb.abelian_group([2] * 4)
    z130 = yb.abelian_group([130])
    return [
        yb.abelian_union([z2_4, Z3], [[8, 1], [4, 0]], [[2, 2], [1, 0]]),
        yb.abelian_union([z3x3, z2x4, Z1], [[1, 5, 0], [3, 2, 0], [0, 0, 0]],
                         [[4, 1, 0], [0, 7, 0], [2, 3, 0]]),
        yb.abelian_union([z2x4, z2x4, Z2], [[1, 0, 1], [0, 3, 0], [6, 2, 1]],
                         [[2, 0, 0], [0, 4, 0], [0, 1, 1]]),
        yb.abelian_union([z130, Z3, z130], [[1, 2, 0], [0, 0, 7], [5, 1, 1]],
                         [[0, 0, 3], [4, 1, 0], [0, 0, 0]]),
        yb.abelian_union([z130, z130], [[1, 0], [0, 1]], [[0, 3], [5, 0]]),
    ]


def test_union_to_solution_matches_the_entry_formula(census):
    # one sigma-row and one tau-row per block, shared by the block's points
    for u in [v for n in range(1, 6) for v in census[n]] + _wide_unions():
        s = yb.union_to_solution(u)
        assert (s.n, (s.sigma, s.tau)) == (u.n, union_tables(_plain(u))), u
        assert len({id(row) for row in s.sigma}) == len({id(row) for row in s.tau}) == u.k


def test_decomposition_of_interleaved_orbits(census):
    # relabelled so that the blocks' points interleave; the blocks come back
    # as the orbits, and the carrier map rebuilds the decomposed union
    rng = random.Random(6203)
    for u in [*census[4][::9], *census[5][::41], *_wide_unions()]:
        n = u.n
        # the i-th points of all blocks first, then the (i + 1)-th, a few
        # of them swapped at random
        local = [(y, j) for j, g in enumerate(u.groups) for y in range(g.n)]
        phi = list(invert_perm(sorted(range(n), key=local.__getitem__)))
        for _ in range(n // 10):
            a, b = rng.randrange(n), rng.randrange(n)
            phi[a], phi[b] = phi[b], phi[a]
        s = yb.relabel(yb.union_to_solution(u), phi)
        dec = yb.solution_to_union(s)
        orbits = sorted(
            tuple(sorted(phi[x] for x in range(off, off + g.n)))
            for off, g in zip(u.offsets, u.groups)
        )
        assert dec.blocks == tuple(orbits)
        assert yb.relabel(s, dec.carrier_map) == yb.union_to_solution(dec.union)
        assert dec.union.orbit_type() == u.orbit_type()
        if n <= 16:
            assert yb.unions_isomorphic(dec.union, u) is not None


def test_decomposition_closes_no_permutation_group(monkeypatch, census):
    # each orbit is walked once over the distinct rows: no closure of the
    # permutation group, of the whole carrier or of one orbit, is built
    def closed(*args):
        raise AssertionError("a permutation group was closed")

    monkeypatch.setattr(groups_module, "perm_group_closure", closed)
    monkeypatch.setattr(unions_module, "perm_group_closure", closed, raising=False)
    monkeypatch.setattr(vars(groups_module.PermGroup)["elements"], "func", closed)
    for u in [*census[4][::5], *_wide_unions()]:
        s = yb.union_to_solution(u)
        dec = yb.solution_to_union(s)
        assert yb.relabel(s, dec.carrier_map) == yb.union_to_solution(dec.union)


def test_block_identification_matches_the_generator_image_oracle():
    # every abelian type of order <= 16, relabelled fixing 0: the type, and
    # the inverse of the oracle's first isomorphism onto the table, which
    # for Z_m is the multiples of the least element of order m
    rng = random.Random(16)
    for m in range(1, 17):
        for g in yb.abelian_groups_of_order(m):
            for _ in range(3):
                table = relabel_table(block_table(g.factors), (0, *rng.sample(range(1, m), m - 1)))
                phi = next(isomorphisms_oracle(g.factors, table))
                grp, to_canon = _torsor_isomorphism(table, m)
                assert grp.factors == g.factors, table
                assert to_canon == tuple(sorted(range(m), key=phi.__getitem__)), table


def test_decomposition_searches_only_non_cyclic_blocks(monkeypatch):
    # a cyclic or trivial block is read off its least generator's multiples;
    # only the Z2xZ2 block runs the isomorphism search, once
    calls = {"_isomorphisms": 0, "element_order": 0}
    for name in calls:
        def counted(*args, _name=name, _orig=getattr(unions_module, name)):
            calls[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(unions_module, name, counted)
    z6_z4_z1 = {"groups": [[6], [4], []], "C": [[1, 1, 0], [0, 0, 0], [0, 0, 0]],
                "D": [[0, 0, 0], [1, 1, 0], [0, 0, 0]]}
    with_z2_z2 = {"groups": [[6], [4], [2, 2], []],
                  "C": [[1, 1, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
                  "D": [[0, 0, 0, 0], [1, 1, 2, 0], [0, 0, 0, 0], [0, 0, 0, 0]]}
    rng = random.Random(64)
    for data, searches in ((z6_z4_z1, 0), (with_z2_z2, 1)):
        u = yb.union_from_dict(data)
        s = yb.relabel(yb.union_to_solution(u), rng.sample(range(u.n), u.n))
        calls.update(dict.fromkeys(calls, 0))
        dec = yb.solution_to_union(s)
        assert calls == {"_isomorphisms": searches, "element_order": 0}
        assert yb.relabel(s, dec.carrier_map) == yb.union_to_solution(dec.union)
        assert yb.unions_isomorphic(dec.union, u) is not None


def test_forms_and_isomorphisms_search_only_non_cyclic_blocks(monkeypatch):
    # Aut(Z_m) is x -> u x over the units of m: canonical_form and
    # unions_isomorphic search no cyclic or trivial block and build no table
    # for it; a Z2xZ2 block is searched, and its table read, alone
    z6_z4_z1 = {"groups": [[6], [4], []], "C": [[1, 1, 0], [0, 0, 0], [0, 0, 0]],
                "D": [[0, 0, 0], [1, 1, 0], [0, 0, 0]]}
    with_z2_z2 = {"groups": [[6], [4], [2, 2], []],
                  "C": [[1, 1, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
                  "D": [[0, 0, 0, 0], [1, 1, 2, 0], [0, 0, 0, 0], [0, 0, 0, 0]]}
    rng = random.Random(128)
    pairs = []
    for data in (z6_z4_z1, with_z2_z2):
        u = yb.union_from_dict(data)
        s = yb.relabel(yb.union_to_solution(u), rng.sample(range(u.n), u.n))
        pairs.append((yb.solution_to_union(s).union, u))
    # Z2500+Z2500 and a twin with its columns scaled by the units 7 and 3
    big = yb.union_from_dict({"groups": [[2500], [2500]], "C": [[1, 0], [0, 1]],
                              "D": [[1, 0], [0, 1]]})
    twin = AbelianUnion(groups=big.groups, c=((7, 0), (0, 3)), d=((7, 0), (0, 3)))
    pairs.append((big, twin))
    searched, tables = [], []

    def search(source, *args, _orig=unions_module._isomorphisms):
        searched.append(source.factors)
        return _orig(source, *args)

    def table(group, _build=vars(yb.AbelianGroup)["as_finite_group"].func):
        tables.append(group.factors)
        return _build(group)

    monkeypatch.setattr(unions_module, "_isomorphisms", search)
    monkeypatch.setattr(yb.AbelianGroup, "as_finite_group", property(table))
    for (one, other), blocks in zip(pairs, [set(), {(2, 2)}, set()]):
        searched.clear()
        tables.clear()
        assert yb.canonical_form(one) == yb.canonical_form(other)
        assert yb.unions_isomorphic(one, other) is not None
        assert set(searched) == set(tables) == blocks, one.orbit_type_label()
    witness = yb.unions_isomorphic(big, twin)
    assert witness.pi == (0, 1)
    assert witness.psis == (big.groups[0].scaled(7), big.groups[1].scaled(3))
    # 7 * 2143 = 3 * 1667 = 1 mod 2500: the inverse units
    assert [psi[1] for psi in yb.unions_isomorphic(twin, big).psis] == [2143, 1667]
    stray = AbelianUnion(groups=big.groups, c=big.c, d=((2, 0), (0, 1)))
    assert yb.unions_isomorphic(big, stray) is None and not searched and not tables
    assert yb.canonical_form(big).c == ((1, 0), (0, 1))


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
    keys = [class_key(s.sigma, s.tau) for s in sols]
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


def test_census_is_deterministic(census):
    again = yb.enumerate_2reductive(4)
    assert again == census[4]


def test_census_leaves_the_collector_as_found():
    # census_keys and unions_of_cells pause the cyclic collector while they
    # build; each must hand it back in the state it found it
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            cells = census_keys(3)
            assert gc.isenabled() is enabled
            unions_of_cells(cells)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_census_cells_partition_structure():
    cells = census_cells(4)
    assert (((4,),)) in cells
    assert (((2, 2),)) in cells
    assert ((2,), (2,)) in cells
    assert ((), (), (), ()) in cells
    # cells sorted and unique
    assert len(set(cells)) == len(cells)
    entries = list(cell_keys(((2,), ()), enumerate_cell(((2,), ()))))
    assert len(entries) == 15


def test_census_cells_match_the_count_of_abelian_group_multisets():
    # a cell is a multiset of abelian groups whose orders sum to n, so the
    # cells are counted by the Euler transform of the number of abelian
    # groups of each order; the blocks of a cell run in type-key order,
    # the order decreasing and then the factors increasing
    top = 12
    cells = [1] + [0] * top
    for m in range(1, top + 1):
        for _ in range(abelian_group_count(m)):
            for total in range(m, top + 1):
                cells[total] += cells[total - m]
    assert cells[1:] == [1, 2, 3, 6, 8, 13, 18, 30, 41, 60, 82, 121]
    for n in range(1, top + 1):
        found = census_cells(n)
        assert len(found) == len(set(found)) == cells[n], n
        for types in found:
            assert sum(map(prod, types)) == n, types
            assert list(types) == sorted(types, key=lambda t: (-prod(t), t)), types


def _generating_columns(t, length):
    """Every tuple of length elements of the block of type t that generates it."""
    return [col for col in itertools.product(range(prod(t)), repeat=length) if generates(t, col)]


def test_enumerate_cell_agrees_with_canonical_form():
    # enumerate_cell and canonical_form share their compiled gathers; the
    # oracle loops over (pi, psis) one union at a time, over every combo of
    # columns that generate their blocks
    for n in range(1, 6):
        for types in census_cells(n):
            k = len(types)
            columns = [_generating_columns(t, 2 * k) for t in types]
            expected = set()
            for combo in itertools.product(*columns):
                c = tuple(tuple(combo[j][i] for j in range(k)) for i in range(k))
                d = tuple(tuple(combo[j][k + i] for j in range(k)) for i in range(k))
                expected.add(canonical_union((types, c, d)))
            assert list(cell_keys(types, enumerate_cell(types))) == sorted(expected), types


def _spread(m, auts):
    """A matrix laid out as _cell_positions documents: column j under each
    automorphism of block j in turn."""
    k = len(auts)
    return tuple(psi[m[i][j]] for j in range(k) for psi in auts[j] for i in range(k))


def _every_gather(types):
    """The automorphisms of a sorted cell's blocks, and every symmetry
    (pi, psis) of the cell, a type-preserving permutation of the blocks and
    one automorphism per block, as a function of a _spread matrix that
    returns the flattened M' with M'[pi(i)][pi(j)] = psi_j(M[i][j]).  The
    first is the identity (the identity automorphism is the least tuple)."""
    auts = [automorphisms(t) for t in types]
    k = len(types)
    starts = list(itertools.accumulate((k * len(a) for a in auts), initial=0))
    gathers = []
    for pi in itertools.permutations(range(k)):
        if any(types[pi[i]] != types[i] for i in range(k)):
            continue
        for ts in itertools.product(*(range(len(a)) for a in auts)):
            pos = [0] * (k * k)
            for i, j in itertools.product(range(k), repeat=2):
                pos[pi[i] * k + pi[j]] = starts[j] + k * ts[j] + i
            get = operator.itemgetter(*pos)
            gathers.append(get if k > 1 else lambda m, get=get: (get(m),))
    return auts, gathers


def _one_stage_cell(types):
    """The cell's keys by a one-stage orderly test: a combo of columns that
    generate their blocks is kept when no symmetry of the cell maps its
    whole (C, D) below the identity's image."""
    auts, (ident, *others) = _every_gather(types)
    k = len(types)
    # each generating column of block j, as its C half and D half spread
    columns = [
        [
            (
                tuple(psi[x] for psi in a for x in col[:k]),
                tuple(psi[x] for psi in a for x in col[k:]),
            )
            for col in _generating_columns(t, 2 * k)
        ]
        for t, a in zip(types, auts)
    ]
    kept = []
    for combo in itertools.product(*columns):
        sc = sum((cc for cc, _ in combo), ())
        sd = sum((dc for _, dc in combo), ())
        own = (ident(sc), ident(sd))
        # (C', D') >= (C, D): C' > C, or C' = C and D' >= D
        if all((cg := g(sc)) > own[0] or (cg == own[0] and g(sd) >= own[1]) for g in others):
            kept.append(own)
    return sorted(kept)


def test_two_stage_cells_match_the_one_stage_test():
    # enumerate_cell tests C against every symmetry and D only against C's
    # stabiliser; the one-stage test compares whole (C, D) images
    for n in range(1, 7):
        for types in census_cells(n):
            keys = list(cell_keys(types, enumerate_cell(types)))
            assert keys == _one_stage_cell(types), types


def test_trivial_runs_match_the_one_stage_test():
    # the n = 7 cells whose trivial blocks have 5! and 7! permutations,
    # which enumerate_cell sorts rows for and the oracle walks
    for types in [((2,),) + ((),) * 5, ((),) * 7]:
        keys = list(cell_keys(types, enumerate_cell(types)))
        assert keys == _one_stage_cell(types), types


def _counting_getter(monkeypatch, limit=None):
    """Count the gathers unions._gather compiles; raise past limit."""
    calls = []

    def getter(pos):
        calls.append(pos)
        if limit is not None and len(calls) > limit:
            raise AssertionError(f"more than {limit} gathers")
        return original(pos)

    original = unions_module._gather
    monkeypatch.setattr(unions_module, "_gather", getter)
    return calls


def test_all_trivial_cells_sort_rows_instead_of_walking_m_factorial(monkeypatch):
    # Z1^k has one class, C = D = 0; walking S_k would compile 5,040 /
    # 40,320 / 479,001,600 gathers, so the spy stops such a walk at once
    _counting_getter(monkeypatch, limit=4)
    for k in (7, 8, 12):
        assert enumerate_cell(((),) * k) == [((0,) * (k * k), bytes(k * k))], k


def test_census_at_6_compiles_44_gathers(monkeypatch):
    # one gather per symmetry fixing every trivial block: 44 over the
    # cells of n = 6, where the whole groups, S_m included, have 806
    calls = _counting_getter(monkeypatch)
    census_keys(6)
    assert len(calls) == 44


def test_census_at_6_runs_the_d_stage_once_per_key(monkeypatch):
    # a C-run's D's depend on C only through the subgroups C's columns
    # generate and C's stabiliser: the 452 C-runs of n = 6 have 80 such
    # keys, and the runs of one key are one bytes object
    calls = []

    def least_ds(*args):
        calls.append(args)
        return original(*args)

    original = unions_module._least_ds
    monkeypatch.setattr(unions_module, "_least_ds", least_ds)
    cells = census_keys(6)
    assert sum(len(runs) for _, runs in cells) == 452
    assert len(calls) <= 80
    for types, runs in cells:
        auts, gathers = _every_gather(types)
        k = len(types)
        shared = {}
        for cflat, run in runs:
            c = [cflat[i * k:(i + 1) * k] for i in range(k)]
            subgroups = tuple(frozenset(span(t, col)) for t, col in zip(types, zip(*c)))
            spread = _spread(c, auts)
            stabiliser = frozenset(i for i, g in enumerate(gathers) if g(spread) == cflat)
            assert shared.setdefault((subgroups, stabiliser), run) is run, (types, cflat)


def test_enumerate_cell_shares_its_runs():
    # n = 7's Z2+Z2+Z2+Z1 holds 2,771,680 classes in 752 C-runs; packed
    # apart they traced 44 MB, shared per (subgroups, stabiliser) ~2 MB
    tracemalloc.start()
    try:
        runs = enumerate_cell(((2,), (2,), (2,), ()))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(run) for _, run in runs) == 2_771_680 * 16
    assert peak < 8_000_000


def test_cell_runs_are_sorted_and_packed():
    # enumerate_cell returns one run per kept C, C increasing; a run packs
    # that C's D's, k^2 bytes each, increasing, and holds at least the
    # least D of the C
    for n in range(1, 7):
        for types in census_cells(n):
            runs = enumerate_cell(types)
            width = len(types) ** 2
            cs = [c for c, _ in runs]
            assert all(a < b for a, b in zip(cs, cs[1:])), types
            for c, run in runs:
                assert len(c) == width and run and len(run) % width == 0, types
                ds = [run[at:at + width] for at in range(0, len(run), width)]
                assert all(a < b for a, b in zip(ds, ds[1:])), types


def test_enumerate_cell_holds_no_pair_list():
    # the Z3 block has 3^10 (C-column, D-column) pairs; a list of them
    # traces ~13 MB, a table of each C-column's completions under 1 MB
    tracemalloc.start()
    try:
        enumerate_cell(((3,), (), (), (), ()))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_first_cell_gather_is_the_identity():
    # enumerate_cell compares every gather's image with the first one's, as
    # a matrix's own layout; C and D are spread alike, and the first gather
    # returns flattened C from C's spread and flattened D from D's
    rng = random.Random(8191)
    for n in range(1, 7):
        for types in census_cells(n):
            groups, auts, positions = _cell_positions(types)
            first = _gather(next(positions))
            k = len(groups)
            for _ in range(3):
                c, d = (
                    [[rng.randrange(g.n) for g in groups] for _ in range(k)]
                    for _ in range(2)
                )
                assert first(_spread(c, auts)) == sum(map(tuple, c), ()), types
                assert first(_spread(d, auts)) == sum(map(tuple, d), ()), types


def test_canonical_form_is_the_least_image_over_all_gathers():
    # canonical_form keeps D only over the gathers that tie on C; the
    # reference takes the least whole (C, D) image, on random unions and on
    # unions whose C has a large stabiliser (C = 0, or every entry equal)
    cells = [t for n in range(1, 7) for t in census_cells(n)] + [
        ((8,), (8,)), ((2, 2), (2, 2)), ((2, 2, 2), (2, 2, 2)), ((3, 3), (3, 3), (3,)),
        ((8,), (8,), (8,)), ((2, 2), (2, 2), ()),
    ]
    rng = random.Random(16381)
    for types in cells:
        groups = [yb.abelian_group(list(t)) for t in types]
        auts, gathers = _every_gather(types)
        k = len(groups)
        entry = rng.randrange(min(g.n for g in groups))
        randoms = [
            [[rng.randrange(g.n) for g in groups] for _ in range(k)] for _ in range(4)
        ]
        zero = [[0] * k for _ in range(k)]
        flat = [[entry] * k for _ in range(k)]
        for c, d in [
            (randoms[0], randoms[1]), (zero, randoms[2]), (flat, randoms[3]), (zero, zero)
        ]:
            sc, sd = _spread(c, auts), _spread(d, auts)
            least = min((g(sc), g(sd)) for g in gathers)
            cf = yb.canonical_form(
                AbelianUnion(groups=tuple(groups), c=tuple(map(tuple, c)), d=tuple(map(tuple, d)))
            )
            assert (sum(cf.c, ()), sum(cf.d, ())) == least, types


def test_canonical_form_on_blocks_outside_the_small_census():
    # Z8, Z2xZ4, Z3xZ3 and Z2^3 (168 automorphisms) never occur at n <= 5,
    # nor do repeated blocks other than Z2 and Z1
    cells = [
        ((8,),), ((2, 4),), ((3, 3),), ((2, 2, 2),),
        ((8,), (8,)), ((2, 4), (2, 4)), ((3, 3), (3, 3)), ((2, 2, 2), (2, 2, 2)),
        ((2,), (2, 2, 2)), ((3, 3), (8,), (2, 4)), ((2, 4), (), (2, 4)),
        ((3, 3), (3,), (3, 3)), ((8,), (8,), (8,)),
    ]
    rng = random.Random(4099)
    for types in cells:
        groups = tuple(yb.abelian_group(list(t)) for t in types)
        k = len(groups)
        for _ in range(2):
            c, d = (
                tuple(tuple(rng.randrange(g.n) for g in groups) for _ in range(k))
                for _ in range(2)
            )
            cf = yb.canonical_form(AbelianUnion(groups=groups, c=c, d=d))
            assert (sum(cf.c, ()), sum(cf.d, ())) == canonical_union((types, c, d)), types
            for _ in range(3):
                pi = rng.sample(range(k), k)
                psis = [rng.choice(automorphisms(t)) for t in types]
                nc, nd = transform(c, d, pi, psis)
                moved = [None] * k
                for i in range(k):
                    moved[pi[i]] = groups[i]
                scrambled = AbelianUnion(
                    groups=tuple(moved),
                    c=tuple(nc[i * k:(i + 1) * k] for i in range(k)),
                    d=tuple(nd[i * k:(i + 1) * k] for i in range(k)),
                )
                assert yb.canonical_form(scrambled) == cf, types


def test_canonical_form_tells_equal_columns_of_other_block_types_apart():
    # canonical_form keeps the least image of each column per block type;
    # blocks of one order but of other types get equal columns here, whose
    # least images differ (3 is least in Z9, not in Z3xZ3)
    cells = [((9,), (3, 3)), ((9,), (3, 3), (9,)), ((8,), (2, 4)), ((4,), (2, 2))]
    rng = random.Random(257)
    for types in cells:
        groups = tuple(yb.abelian_group(list(t)) for t in types)
        k = len(groups)
        for entry in rng.sample(range(1, groups[0].n), 3):
            col = [rng.randrange(groups[0].n) for _ in range(k)]
            for c, d in [
                ([[entry] * k] * k, [[entry] * k] * k),
                ([[x] * k for x in col], [[entry] * k] * k),
            ]:
                u = AbelianUnion(groups=groups, c=tuple(map(tuple, c)), d=tuple(map(tuple, d)))
                cf = yb.canonical_form(u)
                assert (sum(cf.c, ()), sum(cf.d, ())) == canonical_union(_plain(u)), (types, c, d)


def test_unions_isomorphic_returns_the_scan_witness():
    # the witness of unions_isomorphic is the scan's, on columns that
    # generate their blocks, columns that do not (C = D = 0, every entry
    # equal), repeated Z2^3, Z3xZ3 and Z8 blocks, scrambled copies and
    # twins that differ from a copy in one entry
    cells = [
        ((2, 2, 2), (2, 2, 2)), ((3, 3), (3, 3)), ((8,), (8,), (8,)), ((2, 2, 2),),
        ((2, 4), (2,), (2, 4)), ((4,), (2, 2)), ((3,), (3,), ()), ((6,),),
        ((2, 2), (2, 2), (2, 2)), ((3, 3), (9,)),
    ]
    rng = random.Random(65537)
    verdicts = {True: 0, False: 0}
    generating = {True: 0, False: 0}
    for types in cells:
        groups = tuple(yb.abelian_group(list(t)) for t in types)
        k = len(groups)
        zero = [[0] * k for _ in range(k)]
        entry = rng.randrange(min(g.n for g in groups))
        flat = [[entry] * k for _ in range(k)]
        randoms = [
            [[rng.randrange(g.n) for g in groups] for _ in range(k)] for _ in range(4)
        ]
        for c, d in [
            (randoms[0], randoms[1]), (randoms[2], randoms[3]), (zero, zero), (flat, flat),
            (flat, randoms[0]),
        ]:
            u = AbelianUnion(groups=groups, c=tuple(map(tuple, c)), d=tuple(map(tuple, d)))
            for j, t in enumerate(types):
                generating[generates(t, [row[j] for row in c] + [row[j] for row in d])] += 1
            for _ in range(3):
                pi = rng.sample(range(k), k)
                psis = [rng.choice(automorphisms(t)) for t in types]
                nc, nd = transform(c, d, pi, psis)
                moved = [None] * k
                for i in range(k):
                    moved[pi[i]] = groups[i]
                twin_c = list(nc)
                at = rng.randrange(k * k)
                twin_c[at] = (twin_c[at] + 1) % moved[at % k].n
                for cflat in (nc, twin_c):
                    v = AbelianUnion(
                        groups=tuple(moved),
                        c=tuple(tuple(cflat[i * k:(i + 1) * k]) for i in range(k)),
                        d=tuple(tuple(nd[i * k:(i + 1) * k]) for i in range(k)),
                    )
                    witness = yb.unions_isomorphic(u, v)
                    assert witness == witness_scan(_plain(u), _plain(v)), (types, c, d)
                    verdicts[witness is not None] += 1
    assert min(verdicts.values()) > 20 and min(generating.values()) > 20, (verdicts, generating)


def test_union_isomorphism_and_forms_list_no_automorphisms(monkeypatch):
    # the benchmark's fixed request Z2^4 + Z3, on groups of its own: the
    # pinned canonical form, found without the 20,160 automorphisms of Z2^4
    blocks = (yb.AbelianGroup((2, 2, 2, 2)), yb.AbelianGroup((3,)))
    u = AbelianUnion(groups=blocks, c=((8, 1), (4, 0)), d=((2, 2), (1, 0)))
    cf = yb.canonical_form(u)
    assert cf.c == ((1, 1), (2, 0)) and cf.d == ((4, 2), (8, 0))
    assert yb.unions_isomorphic(u, cf) is not None
    dec = yb.solution_to_union(yb.union_to_solution(u))
    assert yb.unions_isomorphic(u, dec.union) is not None
    assert all("automorphisms" not in vars(g) for g in blocks)
    # the decomposition's blocks are the shared ones, which other callers
    # may have listed; here no call may read a list
    def listed(group):
        raise AssertionError(f"automorphisms of {group.label()} read")

    monkeypatch.setattr(yb.AbelianGroup, "automorphisms", property(listed))
    s = yb.relabel(yb.union_to_solution(u), tuple(reversed(range(u.n))))
    dec = yb.solution_to_union(s)
    assert yb.canonical_form(dec.union) == cf
    assert yb.unions_isomorphic(dec.union, u) is not None
    assert yb.unions_isomorphic(dec.union, cf) is not None


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


def test_loading_a_cyclic_block_builds_no_table(tmp_path, monkeypatch):
    # C and D generate Z_m iff their entries' gcd with m is 1: a Z_2000
    # block loads without its 4,000,000-entry table
    def spy(block):
        raise AssertionError(f"{block.label()} table built")

    monkeypatch.setattr(yb.AbelianGroup, "as_finite_group", property(spy))
    path = tmp_path / "u.json"
    path.write_text('{"groups": [[2000]], "C": [[1]], "D": [[1]]}')
    kind, u = cli.load_payload(str(path))
    assert kind == "union" and u.groups == (yb.abelian_group([2000]),)
    with pytest.raises(ValueError, match="^C, D: column 0 entries do not generate block 0$"):
        yb.union_from_dict({"groups": [[2000]], "C": [[2]], "D": [[1000]]})


def test_cyclic_generates_by_gcd_matches_the_table():
    for m in range(1, 31):
        g = yb.abelian_group([m])
        table = g.as_finite_group
        for gens in itertools.chain([()], itertools.product(range(m), repeat=2)):
            assert g.generates(gens) == (len(yb.subgroup_generated(table, gens)) == m), (m, gens)
    # an element out of range is refused, as by the table route
    with pytest.raises(ValueError, match="^element 5 out of range$"):
        yb.abelian_group([5]).generates([1, 5])
