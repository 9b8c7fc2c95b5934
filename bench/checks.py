"""Correctness gates.  Each returns None for a correct output or a one-line
reason; a reason counts the request as failed.

The verdicts are checked against how the inputs were built, with the
benchmark's own arithmetic (algebra.py).  Where an answer can only be read
against the library's own decomposition (a classify witness refers to the
unions `solution_to_union` built), the decomposition is checked first: its
carrier map must carry the input onto the union's solution.
"""

from __future__ import annotations

import hashlib
import json
import re

from algebra import (
    Block,
    brace_solution,
    canonical_union,
    is_involutive,
    is_square_free,
    union_tables,
)

# enumerate N --out at the seed commit: (classes, bytes, sha256 of the JSONL)
CENSUS = {
    3: (20, 1138, "a998ede154fe2bbde3b099dc57c075c56e2da2b9eb009fa7454feb6d61889a93"),
    6: (88108, 7998253, "713fba2cfcf6e2c6454fbf14217ffbeb5f88fe6af31826fd288b4d90e16aaf0e"),
}

WITNESS = re.compile(r"^isomorphic: pi=(\[.*?\]) psis=(\[.*\])$")


def report_lines(text):
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        out.setdefault(key, value)
    return out


def check_census(n, out, path):
    count, size, digest = CENSUS[n]
    if out["count"] != count:
        return f"census has {out['count']} classes, expected {count}"
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    if out["bytes"] != size or h.hexdigest() != digest:
        return f"census JSONL differs from the pinned digest ({out['bytes']} bytes)"
    return None


# ---------------------------------------------------------------------------
# classify


def _maps_onto(tables, union, carrier_map):
    """Does carrier_map carry the solution `tables` onto the union's solution?"""
    blocks = [Block(g.factors) for g in union.groups]
    usig, uta = union_tables(blocks, union.c, union.d)
    sig, ta = tables
    cm = carrier_map
    n = len(sig)
    return all(
        usig[cm[x]][cm[y]] == cm[sig[x][y]] and uta[cm[x]][cm[y]] == cm[ta[x][y]]
        for x in range(n) for y in range(n)
    )


def check_witness(line, req, decompose):
    m = WITNESS.match(line)
    if not m:
        return f"unparsable witness {line!r}"
    pi, psis = json.loads(m.group(1)), json.loads(m.group(2))
    d1, d2 = decompose(req.a_tables), decompose(req.b_tables)
    if not _maps_onto(req.a_tables, d1.union, d1.carrier_map):
        return "decomposition of A does not map A onto its union"
    if not _maps_onto(req.b_tables, d2.union, d2.carrier_map):
        return "decomposition of B does not map B onto its union"
    u1, u2 = d1.union, d2.union
    k = u1.k
    if sorted(pi) != list(range(k)) or len(psis) != k:
        return "witness pi is not a block bijection"
    for j in range(k):
        if u2.groups[pi[j]].factors != u1.groups[j].factors:
            return f"witness maps block {j} onto a block of another type"
        if not Block(u1.groups[j].factors).is_automorphism(psis[j]):
            return f"witness psi_{j} is not an automorphism"
    for i in range(k):
        for j in range(k):
            psi = psis[j]
            if (u2.c[pi[i]][pi[j]] != psi[u1.c[i][j]]
                    or u2.d[pi[i]][pi[j]] != psi[u1.d[i][j]]):
                return f"witness does not carry entry ({i}, {j}) of A's union onto B's"
    return None


def check_canonical(canon, req, blocks_by_type):
    """The library's canonical form must equal the benchmark's brute-force one."""
    types, c, d = req.union
    want_types, (want_c, want_d) = req.canonical or canonical_union(types, c, d, blocks_by_type)
    got_types = [tuple(f) for f in canon["groups"]]
    got_c = [v for row in canon["C"] for v in row]
    got_d = [v for row in canon["D"] for v in row]
    if got_types != list(want_types) or (got_c, got_d) != (list(want_c), list(want_d)):
        return "canonical form differs from the brute-force least relabelling"
    return None


def check_classify(req, out, decompose, blocks_by_type):
    rc_v, text_v = out["verify"]
    lines = report_lines(text_v)
    if rc_v != 0 or lines.get("kind") != "solution" or lines.get("n") != str(req.n):
        return f"verify exited {rc_v} or misreported the input"
    sig, ta = req.a_tables
    if (lines.get("involutive") != str(is_involutive(sig, ta))
            or lines.get("square_free") != str(is_square_free(sig, ta))
            or lines.get("two_reductive") != "True"):
        return "verify reports a wrong predicate"
    rc_c, text_c = out["classify"]
    if req.iso:
        if rc_c != 0:
            return f"classify exited {rc_c} on an isomorphic pair"
        why = check_witness(text_c.strip(), req, decompose)
        if why:
            return why
    elif rc_c != 1 or text_c.strip() != "not isomorphic":
        return "classify missed a pair with different fixed-pair counts"
    return check_canonical(out["canonical"], req, blocks_by_type)


# ---------------------------------------------------------------------------
# brace

LABELLED = ("socle", "ker_lambda", "ker_rho")


def _labelled_set(value, phi):
    """Parse '[a, b] ...' and carry the elements back to builder labels."""
    head, _, tail = value.partition("]")
    inv = {v: i for i, v in enumerate(phi)}
    elems = json.loads(head + "]")
    return sorted(inv[e] for e in elems), tail


def brace_signature(req, text):
    """The report with labelled sets carried back to the builder's labels,
    which must be the same for every relabelled copy of one family."""
    sig = []
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        if key in LABELLED:
            value = _labelled_set(value, req.phi)
        sig.append((key, value))
    return json.dumps(sig)


def check_brace(req, out, solution_out, reference):
    rc, text, err = out["brace"]
    if rc != 0:
        return f"brace exited {rc}: {err.strip()[:120]}"
    lines = report_lines(text)
    if lines.get("n") != str(req.n) or lines.get("dot_abelian") != str(req.dot_abelian):
        return "brace report misstates order or dot_abelian"
    sig = brace_signature(req, text)
    if reference.setdefault(req.family, sig) != sig:
        return f"report of {req.family} depends on the labelling"
    want_sig, want_tau = brace_solution(req.dot, req.circle)
    if solution_out is None or solution_out["sigma"] != want_sig or solution_out["tau"] != want_tau:
        return "solution-out is not the associated solution"
    section = report_lines(text.split("associated_solution:", 1)[-1])
    if section.get("involutive") != str(req.dot_abelian):
        return "associated solution involutivity does not match abelianness"
    return None
