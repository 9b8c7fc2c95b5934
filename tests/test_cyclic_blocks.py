"""Cyclic blocks by their units: Aut(Z_m) = {x -> u x : gcd(u, m) = 1}.

AbelianGroup.automorphisms, unions._least_image and the psi_j that
unions_isomorphic picks for a Z_m block are read off the units of m; here
each is checked against the generic search groups._isomorphisms on Z_m's
Cayley table, for Z1 and every Z_m with m <= 64.  The module needs only
the standard library, so it runs without pytest as well:
``PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests');
import test_cyclic_blocks as t; t.test_cyclic_closed_forms_match_the_search()"``.
"""

from __future__ import annotations

import random

import yangbaxter as yb
from yangbaxter.groups import _isomorphisms
from yangbaxter.unions import AbelianUnion, UnionIsomorphism, _least_image


def _columns(rng: random.Random, m: int) -> list[list[int]]:
    """Four-entry columns of Z_m: random, with zeros, inside the subgroup
    of a random divisor (most do not generate), and all zero."""
    q = rng.choice([q for q in range(1, m + 1) if m % q == 0])
    return [
        [rng.randrange(m) for _ in range(4)],
        [0, rng.randrange(m), 0, rng.randrange(m)],
        [q * rng.randrange(m) % m for _ in range(4)],
        [0] * 4,
    ]


def test_cyclic_closed_forms_match_the_search():
    # groups of their own, so that the tables built here go with the test
    rng = random.Random(4093)
    z1 = yb.AbelianGroup(())
    fits = {True: 0, False: 0}
    for g in [z1] + [yb.AbelianGroup((m,)) for m in range(2, 65)]:
        m, table = g.n, g.as_finite_group
        assert g.automorphisms == tuple(sorted(_isomorphisms(g, table))), m
        units = [psi[1] for psi in g.automorphisms] if m > 1 else [0]
        cols = _columns(rng, m)
        for key in cols + [cols[0][:1], cols[0] + cols[2][:3]]:
            first = next(_isomorphisms(g, table, key))
            assert _least_image(g, tuple(key)) == tuple(map(first.__getitem__, key)), (m, key)
        for col in cols:
            # forced images: a unit's, a unit's with one entry moved, and random
            u = rng.choice(units)
            scaled = [u * x % m for x in col]
            moved = scaled[:]
            at = rng.randrange(4)
            moved[at] = (moved[at] + 1) % m
            for images in (scaled, moved, [rng.randrange(m) for _ in range(4)]):
                psi = next(_isomorphisms(g, table, [*col, *range(m)], images), None)
                # block 0 is g, its column col; block 1 is Z1 (or Z1 twice at m = 1)
                u1, u2 = (
                    AbelianUnion(groups=(g, z1), c=((a, 0), (b, 0)), d=((c, 0), (d, 0)))
                    for a, b, c, d in (col, images)
                )
                want = None if psi is None else UnionIsomorphism(pi=(0, 1), psis=(psi, (0,)))
                assert yb.unions_isomorphic(u1, u2) == want, (m, col, images)
                fits[psi is not None] += 1
    assert min(fits.values()) > 200, fits
