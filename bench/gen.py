"""Seeded input generators for the `classify` and `brace` workloads.

Every generator takes its own ``random.Random(seed)``, writes the input files
the program will read, and returns what the checks need to know about them.
Inputs are built before any timer starts.  Why the inputs look the way they
do is written down in WORKLOADS.md next to this file.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from math import factorial, prod

from algebra import (
    Block,
    fixed_pairs,
    is_commutative,
    relabel_tables,
    transform_union,
    union_tables,
    units_of,
)

# |Aut(G)| for every abelian group of order <= 16, by invariant factors.
# Used only to bound the size of a cell's symmetry group before choosing a
# union; the smoke test compares it with the library.
AUT_ORDER = {
    (): 1, (2,): 1, (3,): 2, (4,): 2, (2, 2): 6, (5,): 4, (6,): 2, (7,): 6,
    (8,): 4, (2, 4): 8, (2, 2, 2): 168, (9,): 6, (3, 3): 48, (10,): 4,
    (11,): 10, (12,): 4, (2, 6): 12, (13,): 12, (14,): 6, (15,): 8, (16,): 8,
    (2, 8): 16, (4, 4): 96, (2, 2, 4): 192, (2, 2, 2, 2): 20160,
}
WIDE_TYPE = (2, 2, 2, 2)
STREAM_TYPES = {}
for _t in AUT_ORDER:
    if _t != WIDE_TYPE:
        STREAM_TYPES.setdefault(prod(_t), []).append(_t)

CLASSIFY_SIZES = range(8, 33)       # carrier size n of a classify request
MAX_BLOCKS = 4
MAX_TRANSFORMS = 4096               # block permutations x automorphisms of a cell
NONISO_SHARE = 0.25
SHAPE_SEED = 2303
SHAPE_DECKS = 16


@dataclass
class ClassifyRequest:
    """verify A; classify A B; canonical_form of the union file U."""

    rid: int
    n: int
    iso: bool
    a_path: str
    b_path: str
    u_path: str
    a_tables: tuple = field(repr=False)
    b_tables: tuple = field(repr=False)
    union: tuple = field(repr=False)        # (factors per block, C, D) as written to U
    canonical: tuple = None                 # pinned (types, (C, D) flattened), if any

    def argv(self):
        return {"rid": self.rid, "a": self.a_path, "b": self.b_path, "u": self.u_path}


def _write_json(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, separators=(",", ":"))


def _solution_dict(tables):
    sig, ta = tables
    return {"n": len(sig), "sigma": sig, "tau": ta}


def _cell_size(types):
    runs = {}
    for t in types:
        runs[t] = runs.get(t, 0) + 1
    return prod(factorial(m) for m in runs.values()) * prod(AUT_ORDER[t] for t in types)


def _random_parts(rng, n):
    lo = -(-n // 16)
    while True:
        k = rng.randint(lo, min(MAX_BLOCKS, n))
        cuts = sorted(rng.sample(range(1, n), k - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        if max(parts) <= 16:
            return parts


def _random_matrices(rng, blocks, tries=200):
    """C and D whose column j generates block j, or None."""
    k = len(blocks)
    c = [[0] * k for _ in range(k)]
    d = [[0] * k for _ in range(k)]
    for j, blk in enumerate(blocks):
        for _ in range(tries):
            col = [rng.randrange(blk.n) for _ in range(2 * k)]
            if blk.generates(col):
                break
        else:
            return None
        for i in range(k):
            c[i][j], d[i][j] = col[i], col[k + i]
    return c, d


def random_types(rng, n):
    """Block types of a random union on n points: <= 4 blocks of order <= 16,
    never Z2^4, each block generable by its 2k column entries, and at most
    MAX_TRANSFORMS symmetries in the cell."""
    while True:
        types = [rng.choice(STREAM_TYPES[m]) for m in _random_parts(rng, n)]
        if (all(len(t) <= 2 * len(types) for t in types)
                and _cell_size(types) <= MAX_TRANSFORMS):
            return tuple(types)


def shape_catalog():
    """SHAPE_DECKS decks of (n, block types, iso) shapes, one per size n.

    The catalog is drawn once from a fixed seed, so every run serves the same
    shapes in the same decks; the run's seed only draws the labellings and
    the order within a deck (see classify_decks).  A quarter of each deck are
    non-isomorphic pairs, which need at least two blocks.
    """
    rng = random.Random(SHAPE_SEED)
    decks = []
    for _ in range(SHAPE_DECKS):
        shapes = {n: random_types(rng, n) for n in CLASSIFY_SIZES}
        multi = [n for n in CLASSIFY_SIZES if len(shapes[n]) > 1]
        noniso = set(rng.sample(multi, round(NONISO_SHARE * len(shapes))))
        decks.append([(n, shapes[n], n not in noniso) for n in CLASSIFY_SIZES])
    return decks


def _random_perm(rng, n):
    phi = list(range(n))
    rng.shuffle(phi)
    return phi


def _scrambled_union(rng, types, blocks, c, d):
    """The same union with its blocks shuffled and each block scaled by a unit."""
    k = len(types)
    pi = _random_perm(rng, k)
    scales = [rng.choice(units_of(b.exponent)) for b in blocks]
    cf, df = transform_union(blocks, c, d, pi, scales)
    inv = [0] * k
    for i, p in enumerate(pi):
        inv[p] = i
    ntypes = [types[inv[p]] for p in range(k)]
    nc = [list(cf[i * k:(i + 1) * k]) for i in range(k)]
    nd = [list(df[i * k:(i + 1) * k]) for i in range(k)]
    return ntypes, nc, nd


def _differing_twin(rng, blocks, fixed, tries=50):
    """Tables of a union on the same blocks whose fixed-pair count is not
    `fixed`, or None (a single block, for one, always has 0 fixed pairs)."""
    for _ in range(tries):
        mats = _random_matrices(rng, blocks)
        if mats is not None:
            other = union_tables(blocks, *mats)
            if fixed_pairs(*other) != fixed:
                return other
    return None


def _classify_request(rng, rid, workdir, types, blocks, c, d, tables, other):
    n = len(tables[0])
    a_tab = relabel_tables(tables, _random_perm(rng, n))
    b_tab = relabel_tables(other, _random_perm(rng, n))
    utypes, uc, ud = _scrambled_union(rng, types, blocks, c, d)
    base = os.path.join(workdir, f"c{rid:05d}")
    paths = (base + "a.json", base + "b.json", base + "u.json")
    _write_json(paths[0], _solution_dict(a_tab))
    _write_json(paths[1], _solution_dict(b_tab))
    _write_json(paths[2], {"groups": [list(t) for t in utypes], "C": uc, "D": ud})
    return ClassifyRequest(
        rid=rid, n=n, iso=other is tables, a_path=paths[0], b_path=paths[1], u_path=paths[2],
        a_tables=tuple(a_tab), b_tables=tuple(b_tab),
        union=(tuple(utypes), uc, ud),
    )


def classify_decks(seed, workdir, decks):
    """`decks` decks of the shape catalog, each shuffled.  The matrices of
    each catalog entry are fixed too; the seed draws the labellings, the
    scrambled union and the order within each deck."""
    rng = random.Random(seed)
    catalog = shape_catalog()
    blocks_by_type = {}
    out = []
    for deck in range(decks):
        shapes = catalog[deck % len(catalog)][:]
        rng.shuffle(shapes)
        for n, types, iso in shapes:
            blocks = [blocks_by_type.setdefault(t, Block(t)) for t in types]
            fixed = random.Random(SHAPE_SEED * 10**4 + deck % len(catalog) * 100 + n)
            for _ in range(20):
                mats = _random_matrices(fixed, blocks)
                if mats is None:
                    continue
                tables = union_tables(blocks, *mats)
                other = tables if iso else _differing_twin(fixed, blocks, fixed_pairs(*tables))
                if other is not None:
                    break
            else:
                raise RuntimeError(f"no input of shape {types} in catalog deck {deck}")
            out.append(_classify_request(rng, len(out), workdir, types, blocks, *mats,
                                         tables, other))
    return out


def wide_request(workdir):
    """The fixed request with a Z2^4 block: Z2^4 + Z3, the same every run."""
    rng = random.Random(16)
    types = [WIDE_TYPE, (3,)]
    blocks = [Block(t) for t in types]
    c = [[8, 1], [4, 0]]        # column 0 holds the basis 8, 4, 2, 1 of Z2^4
    d = [[2, 2], [1, 0]]
    tables = union_tables(blocks, c, d)
    req = _classify_request(rng, 99999, workdir, types, blocks, c, d, tables, tables)
    # algebra.canonical_union needs 8 s for the 20,160 automorphisms of Z2^4;
    # its answer, equal to the library's at the seed commit, is pinned instead
    req.canonical = ([WIDE_TYPE, (3,)], ([1, 1, 2, 0], [4, 2, 8, 0]))
    return req


# ---------------------------------------------------------------------------
# Braces


@dataclass
class BraceRequest:
    rid: int
    family: str
    n: int
    phi: tuple                  # builder label -> file label
    path: str
    out_path: str
    dot: list = field(repr=False)
    circle: list = field(repr=False)
    dot_abelian: bool = False

    def argv(self):
        return {"rid": self.rid, "file": self.path, "out": self.out_path}


def brace_bases(lib):
    """{label: builder} of the base braces, from the library's builders."""
    braces, groups = lib.brace, lib.groups
    bases = {}
    for name, g in groups.small_groups(8):
        if g.n < 2:
            continue
        bases[f"triv({name})"] = lambda g=g: braces.trivial_brace(g)
        if not g.is_abelian:
            bases[f"atriv({name})"] = lambda g=g: braces.almost_trivial_brace(g)
    for m in range(1, 22, 2):
        bases[f"z2n({m})"] = lambda m=m: braces.z2n_brace(m)
        if m > 1:
            bases[f"z2n_dual({m})"] = lambda m=m: braces.z2n_dual_brace(m)
    bases["dihedral"] = braces.dihedral_example_brace
    return bases


PRODUCT_PICKS = (
    # products spread over orders 8..42, densest around the median request
    ("triv(Z2)", "triv(Z4)"), ("triv(Z2)", "triv(Z2xZ2)"), ("triv(Z2)", "triv(Z5)"),
    ("triv(Z5)", "z2n(1)"), ("triv(Z2)", "atriv(S3)"), ("triv(Z3)", "triv(Z2xZ2)"),
    ("z2n(3)", "triv(Z2)"), ("triv(Z3)", "triv(Z4)"), ("triv(Z2)", "triv(Z7)"),
    ("triv(Z3)", "triv(Z5)"), ("triv(Z2)", "dihedral"), ("triv(Z2)", "triv(Q8)"),
    ("triv(Z4)", "triv(Z4)"), ("triv(Z2)", "atriv(D4)"), ("triv(Z2)", "triv(Z2xZ4)"),
    ("z2n_dual(3)", "triv(Z3)"), ("z2n(3)", "triv(Z3)"), ("atriv(S3)", "triv(Z3)"),
    ("triv(Z3)", "triv(Z6)"), ("z2n(1)", "z2n_dual(5)"), ("triv(Z2)", "z2n(5)"),
    ("triv(Z2)", "z2n_dual(5)"), ("atriv(S3)", "triv(Z4)"), ("triv(Z3)", "atriv(Q8)"),
    ("triv(Z2xZ2)", "atriv(S3)"), ("triv(Z2)", "z2n_dual(7)"), ("triv(Z7)", "triv(Z2xZ2)"),
    ("z2n_dual(5)", "triv(Z3)"), ("z2n(3)", "z2n_dual(3)"), ("triv(Z2xZ2)", "z2n(5)"),
)
SINGLE_PICKS = (
    "triv(Z8)", "triv(Z2xZ4)", "triv(Z2xZ2xZ2)", "triv(D4)", "atriv(Q8)", "dihedral",
    "z2n(5)", "z2n_dual(7)", "z2n(9)", "z2n_dual(11)", "z2n(15)", "z2n_dual(21)",
)
# the fixed heavy request: order 48, the top of the range, kept out of the
# stream so that its n^3 cost does not decide how many decks a run holds
HEAVY_PICK = ("z2n(3)", "triv(Q8)")


def build_catalog(lib):
    """{label: SkewBrace} of the stream's families.  The list does not depend
    on the seed, so every run sees the same mix of orders; only the labelling
    and the order of requests change."""
    bases = brace_bases(lib)
    out = {label: bases[label]() for label in SINGLE_PICKS}
    for a, b in PRODUCT_PICKS:
        out[f"{a}*{b}"] = lib.brace.product_brace(bases[a](), bases[b]())
    return out


def heavy_brace(lib):
    a, b = HEAVY_PICK
    bases = brace_bases(lib)
    return f"{a}*{b}", lib.brace.product_brace(bases[a](), bases[b]())


def brace_decks(seed, workdir, catalog, decks):
    """`decks` shuffled decks; each holds every catalog family once, randomly
    relabelled."""
    rng = random.Random(seed)
    labels = sorted(catalog)
    out = []
    for _ in range(decks):
        order = labels[:]
        rng.shuffle(order)
        for label in order:
            out.append(brace_request(rng, len(out), workdir, label, catalog[label]))
    return out


def brace_request(rng, rid, workdir, label, b):
    n = b.n
    phi = _random_perm(rng, n)
    dot, circ = relabel_tables(
        ([list(r) for r in b.dot.table], [list(r) for r in b.circle.table]), phi
    )
    base = os.path.join(workdir, f"b{rid:05d}")
    path, out_path = base + ".json", base + "o.json"
    _write_json(path, {"n": n, "dot": dot, "circle": circ})
    return BraceRequest(
        rid=rid, family=label, n=n, phi=tuple(phi), path=path, out_path=out_path,
        dot=dot, circle=circ, dot_abelian=is_commutative(b.dot.table),
    )
