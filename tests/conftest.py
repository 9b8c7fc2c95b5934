"""Shared fixtures: censuses, the brace catalog, and a corpus of all small
solutions (one representative per isomorphism class, sizes 2 and 3)."""

from __future__ import annotations

import itertools

import pytest

import yangbaxter as yb
from solution_oracles import canonical_key
from yangbaxter.solution import validate_tables


@pytest.fixture(scope="session")
def census():
    return {n: yb.enumerate_2reductive(n) for n in range(1, 6)}


@pytest.fixture(scope="session")
def census_solutions(census):
    return {
        n: [yb.union_to_solution(u) for u in census[n]] for n in census
    }


@pytest.fixture(scope="session")
def small_solutions():
    """Every solution of size 2 or 3 up to isomorphism (30 in total),
    found by scanning all table pairs; includes non-2-reductive ones."""
    out = []
    for n in (2, 3):
        perms = [tuple(p) for p in itertools.permutations(range(n))]
        seen = {}
        for sigma in itertools.product(perms, repeat=n):
            for tau in itertools.product(perms, repeat=n):
                if validate_tables(sigma, tau) is None:
                    s = yb.verify(sigma, tau)
                    seen.setdefault(canonical_key(s), s)
        out.extend(seen.values())
    return out


def build_brace_catalog():
    cat = []
    for name, g in yb.small_groups(8):
        cat.append((f"Triv({name})", yb.trivial_brace(g)))
        cat.append((f"AlmTriv({name})", yb.almost_trivial_brace(g)))
    for n in (1, 3, 5):
        cat.append((f"Z{2 * n}-twist", yb.z2n_brace(n)))
        cat.append((f"Z{2 * n}-dual", yb.z2n_dual_brace(n)))
    s3 = yb.symmetric_group(3)
    cat.append(
        (
            "Triv(S3)xAlmTriv(S3)",
            yb.product_brace(yb.trivial_brace(s3), yb.almost_trivial_brace(s3)),
        )
    )
    cat.append(
        (
            "Triv(Z3)xAlmTriv(Z2)",
            yb.product_brace(
                yb.trivial_brace(yb.cyclic_group(3)),
                yb.almost_trivial_brace(yb.cyclic_group(2)),
            ),
        )
    )
    cat.append(("dihedral-example", yb.dihedral_example_brace()))
    return cat


@pytest.fixture(scope="session")
def brace_catalog():
    return build_brace_catalog()
