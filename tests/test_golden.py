"""Golden digests of results that must not change under refactoring.

Each digest is the sha256 of a deterministic serialization: the census
JSON-lines bytes, the decompositions of relabelled census solutions (union
and carrier map), and the isomorphism witnesses found for them.  The
witnesses pin the order in which automorphisms and torsor isomorphisms are
tried, since the first match found is the one returned.
"""

from __future__ import annotations

import hashlib
import io
import json
import random

import pytest

import yangbaxter as yb
from yangbaxter.cli import build_census, write_census

CENSUS_SHA256 = {
    1: "6dad408ba364a74b4b93653c088d089d9ffbe0cc584fd7dd24f02feb16651f52",
    2: "8b1dd8f83e5a7dd92ae87e9570e93609c0356fa13420de10cf68fc195cf89d1b",
    3: "a998ede154fe2bbde3b099dc57c075c56e2da2b9eb009fa7454feb6d61889a93",
    4: "b621a9febcd4653acbbe64510e07ee695e1ee757b1cc08eb96aed4559051da80",
    5: "0ccb358d388cea42aba9b47f24c9d05e171ccee6c7003d214cf32e11c2ea314f",
}
DECOMPOSITION_SHA256 = "bce80af7881ae1ab20db79f8f6a76b92912e76441dd681a35434b60ba2dea07c"
WITNESS_SHA256 = "2303d50516f1258021e4ad600fd5e85f645dcff7a6c30d4ddf29e85ca81f006f"
RELABEL_SEED = 20261018


def _sha256(records) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(json.dumps(record, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("n", sorted(CENSUS_SHA256))
def test_census_bytes(n):
    buf = io.StringIO()
    write_census(build_census(n), buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == CENSUS_SHA256[n]


@pytest.fixture(scope="module")
def relabelled_decompositions(census):
    """(census union, decomposition of a randomly relabelled copy), n <= 4."""
    rng = random.Random(RELABEL_SEED)
    out = []
    for n in range(1, 5):
        for u in census[n]:
            phi = list(range(n))
            rng.shuffle(phi)
            s = yb.relabel(yb.union_to_solution(u), phi)
            out.append((u, yb.solution_to_union(s)))
    return out


def test_decomposition_digest(relabelled_decompositions):
    records = (
        [dec.union.to_dict(), list(dec.carrier_map)]
        for _, dec in relabelled_decompositions
    )
    assert _sha256(records) == DECOMPOSITION_SHA256


def test_isomorphism_witness_digest(relabelled_decompositions):
    records = []
    for u, dec in relabelled_decompositions:
        w = yb.unions_isomorphic(dec.union, u)
        records.append([list(w.pi), [list(p) for p in w.psis]])
    assert _sha256(records) == WITNESS_SHA256
