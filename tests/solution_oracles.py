"""Brute-force oracles on solutions, shared by the tests.

They share no code with the library's isomorphism search, so they can
check it; each walks all n! relabellings and is meant for small n only.
"""

from __future__ import annotations

import itertools

import yangbaxter as yb


def canonical_key(s: yb.FiniteSolution) -> tuple:
    """Minimum of (sigma, tau) over all relabellings; equal iff isomorphic."""
    best = None
    for phi in itertools.permutations(range(s.n)):
        t = yb.relabel(s, phi)
        key = (t.sigma, t.tau)
        if best is None or key < best:
            best = key
    return best
