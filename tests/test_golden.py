"""Golden digests of results that must not change under refactoring.

Each digest is the sha256 of a deterministic serialization: the census
JSON-lines bytes, the decompositions of relabelled census solutions (union
and carrier map), the isomorphism witnesses found for them, the full brace
reports of the brace catalog, the socle-series quotients of each catalog
brace and of its opposite, the retraction towers of the small solutions,
and a corpus of command-line runs with their exit codes, output and
written files, also with more verify inputs and one digest per command,
and a second corpus of the runs the first does not reach: failing
witnesses, non-cyclic blocks, runs of trivial blocks and looping towers.
The witnesses pin the order in which automorphisms and torsor
isomorphisms are tried, since the first match found is the one returned.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import random
from math import prod

import pytest

import yangbaxter as yb
from oracles import automorphisms, generates, transform, validate_oracle
from test_cli import MALFORMED
from yangbaxter.cli import brace_report, build_census, main, write_census
from yangbaxter.solution import solution_to_text

CENSUS_SHA256 = {
    1: "6dad408ba364a74b4b93653c088d089d9ffbe0cc584fd7dd24f02feb16651f52",
    2: "8b1dd8f83e5a7dd92ae87e9570e93609c0356fa13420de10cf68fc195cf89d1b",
    3: "a998ede154fe2bbde3b099dc57c075c56e2da2b9eb009fa7454feb6d61889a93",
    4: "b621a9febcd4653acbbe64510e07ee695e1ee757b1cc08eb96aed4559051da80",
    5: "0ccb358d388cea42aba9b47f24c9d05e171ccee6c7003d214cf32e11c2ea314f",
    6: "713fba2cfcf6e2c6454fbf14217ffbeb5f88fe6af31826fd288b4d90e16aaf0e",
}
# enumerate 7 --out: 4,286,509 classes
CENSUS_7_SHA256 = "8df0b53dc480cfd63181f069de3fdfc272b3f50f9d3b042dd1dc3795f5b6bc3e"
CENSUS_7_BYTES = 484_100_215
DECOMPOSITION_SHA256 = "bce80af7881ae1ab20db79f8f6a76b92912e76441dd681a35434b60ba2dea07c"
WITNESS_SHA256 = "2303d50516f1258021e4ad600fd5e85f645dcff7a6c30d4ddf29e85ca81f006f"
BRACE_REPORT_SHA256 = "1ddf1bb52cf9496875893282e17f1e1fde35f1452bb6490e276fae03546163e8"
SOCLE_SERIES_SHA256 = "0b848501724b84c06e8988ef7a8a48c77386b5036faa2e9eb91e1d38dd551c41"
RETRACTION_TOWER_SHA256 = "32abf8017810cf690404e2c6654a7514be9d98dd9ac6ab718e9721b6999a5e37"
RELABEL_SEED = 20261018
# the CLI runs of test_cli_digest
CLI_SHA256 = "a5cab2da5fd41b6e79d720def6f4e8a2bbce11af0d52e6bbd4f22cd5f28bb6ee"
# the CLI runs of test_cli_digest_by_command, by command
CLI_COMMAND_SHA256 = {
    "verify": "1e463ec78bc50d8e65045bc38269588da799ba80499cb34cf277f651dc901f9a",
    "classify": "4e0291602e52a2e4347393e43f70e50bf3ef7d1f6c352bfbd0ec9b55d4c12eae",
    "brace": "8712b8c091a4c12077278c393a883000d7409fdd171e930fdcfc49b8f224d9e3",
    "enumerate": "8434c55178c0a99237ce615cafc83f2b8475e04ea081556b489e7d0c822ee631",
}
# the CLI runs of test_cli_edge_digest_by_command, by command
CLI_EDGE_SHA256 = {
    "verify": "21af90744e86fecfd9c9210e9e1fb89aa9efee4cd2e46f77d6bd33ab9fbb641b",
    "classify": "7a2640f726cdad3dd65b3801db9dfbbe72aa1a45f03371136e1364b938be5aaa",
    "brace": "f4de258c319cbb080506918937eae3f6848534ead6b62ae51d6aacbe240cdce5",
}


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


class _HashingSink:
    """A text stream that keeps only the sha256 and the length of the
    bytes written to it, so a census of any size can be checked."""

    def __init__(self):
        self.sha256 = hashlib.sha256()
        self.size = 0

    def write(self, text):
        data = text.encode()
        self.sha256.update(data)
        self.size += len(data)
        return len(text)


@pytest.mark.slow
def test_census_bytes_at_7():
    sink = _HashingSink()
    write_census(build_census(7), sink)
    assert (sink.sha256.hexdigest(), sink.size) == (CENSUS_7_SHA256, CENSUS_7_BYTES)


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


def test_brace_report_digest(brace_catalog):
    records = []
    for name, b in brace_catalog:
        buf = io.StringIO()
        brace_report(b, full=True, out=buf)
        records.append([name, buf.getvalue()])
    assert _sha256(records) == BRACE_REPORT_SHA256


def _group_record(g):
    return [[list(row) for row in g.table], g.id, list(g.inv)]


def test_socle_series_digest(brace_catalog):
    records = []
    for name, b in brace_catalog:
        for side in (b, yb.opposite_brace(b)):
            series = yb.socle_series(side)
            records.append([
                name,
                series.nilpotency_class,
                [[_group_record(q.dot), _group_record(q.circle)] for q in series.quotients],
            ])
    assert _sha256(records) == SOCLE_SERIES_SHA256


def test_retraction_tower_digest(small_solutions):
    records = []
    for s in small_solutions:
        mp = yb.multipermutation_level(s)
        tower, current = [], s
        for _ in mp.tower_sizes[1:]:
            q = yb.retraction(current)
            tower.append([q.solution.to_dict(), list(q.projection)])
            current = q.solution
        records.append([s.to_dict(), mp.level, list(mp.tower_sizes), tower])
    assert _sha256(records) == RETRACTION_TOWER_SHA256


def _cli_corpus(census, brace_catalog):
    """(argv, files to write first) of every CLI run the digest covers, with
    "{tmp}" standing for the run's temporary directory."""
    rng = random.Random(RELABEL_SEED)
    runs, files = [], {}

    def put(name, payload):
        files[name] = payload if isinstance(payload, str) else json.dumps(payload)
        return "{tmp}/" + name

    def relabelled(s):
        phi = list(range(s.n))
        rng.shuffle(phi)
        return yb.relabel(s, phi)

    for n in range(1, 4):
        for i, u in enumerate(census[n]):
            runs.append(["verify", put(f"u{n}-{i}.json", u.to_dict())])
            s = relabelled(yb.union_to_solution(u))
            runs.append(["verify", put(f"s{n}-{i}.json", s.to_dict())])
    for i, (_, b) in enumerate(brace_catalog):
        for side, sb in (("b", b), ("op", yb.opposite_brace(b))):
            path = put(f"{side}{i}.json", sb.to_dict())
            runs += [["verify", path],
                     ["brace", path, "--report", "full", "--solution-out", f"{{tmp}}/{side}{i}.out"],
                     ["brace", path, "--report", "summary"]]
    z6 = yb.associated_solution(yb.z2n_brace(3))
    z10 = yb.associated_solution(yb.z2n_brace(5))
    pairs = [
        (census[3][5].to_dict(), relabelled(yb.union_to_solution(census[3][5])).to_dict()),
        (census[3][5].to_dict(), census[3][6].to_dict()),
        (yb.union_to_solution(census[3][7]).to_dict(), census[3][8].to_dict()),
        (z6.to_dict(), relabelled(z6).to_dict()),
        (z6.to_dict(), yb.inverse_solution(z6).to_dict()),
        (z6.to_dict(), yb.union_to_solution(census[3][0]).to_dict()),
        (yb.associated_solution(yb.dihedral_example_brace()).to_dict(),
         yb.associated_solution(yb.trivial_brace(yb.quaternion_group())).to_dict()),
        (z10.to_dict(), relabelled(z10).to_dict()),
        (brace_catalog[0][1].to_dict(), census[1][0].to_dict()),
    ]
    for i, (one, other) in enumerate(pairs):
        runs.append(["classify", put(f"c{i}a.json", one), put(f"c{i}b.json", other)])
    runs.append(["enumerate", "3", "--out", "{tmp}/census3.jsonl"])
    for case, (payload, _) in sorted(MALFORMED.items()):
        name = f"bad-{case}." + ("txt" if isinstance(payload, str) else "json")
        path = put(name, payload)
        runs += [["verify", path], ["classify", path, path], ["brace", path]]
    return runs, files


def _cli_records(runs, files, tmp_path, capsys):
    """Each run's argv, exit code, stdout, stderr and written files, with
    the temporary directory replaced by "{tmp}"."""
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    tmp, records = str(tmp_path), []
    for argv in runs:
        code = main([arg.replace("{tmp}", tmp) for arg in argv])
        out, err = capsys.readouterr()
        outs = [tmp_path / arg.removeprefix("{tmp}/") for arg in argv
                if arg.startswith("{tmp}/") and arg.removeprefix("{tmp}/") not in files]
        written = [path.read_text() if path.exists() else None for path in outs]
        records.append([argv, code, out.replace(tmp, "{tmp}"), err.replace(tmp, "{tmp}"), written])
    return records


def test_cli_digest(tmp_path, capsys, census, brace_catalog):
    runs, files = _cli_corpus(census, brace_catalog)
    assert _sha256(_cli_records(runs, files, tmp_path, capsys)) == CLI_SHA256


def test_cli_digest_by_command(tmp_path, capsys, census, brace_catalog, small_solutions):
    # test_cli_digest's corpus, plus verify of every small solution as JSON
    # and as text, and of the census at n = 4 as unions and as relabelled
    # solutions; one digest per command, so a change names its command
    runs, files = _cli_corpus(census, brace_catalog)
    rng = random.Random(RELABEL_SEED)
    extra = {}
    for i, s in enumerate(small_solutions):
        extra[f"small{i}.json"] = json.dumps(s.to_dict())
        extra[f"small{i}.txt"] = solution_to_text(s)
    for i, u in enumerate(census[4]):
        phi = list(range(4))
        rng.shuffle(phi)
        s = yb.relabel(yb.union_to_solution(u), phi)
        extra[f"u4-{i}.json"] = json.dumps(u.to_dict())
        extra[f"s4-{i}.json"] = json.dumps(s.to_dict())
    runs += [["verify", "{tmp}/" + name] for name in extra]
    by_command = {command: [] for command in CLI_COMMAND_SHA256}
    for record in _cli_records(runs, files | extra, tmp_path, capsys):
        by_command[record[0][0]].append(record)
    assert {c: _sha256(records) for c, records in by_command.items()} == CLI_COMMAND_SHA256


def _moved_union(union, pi, psis):
    """The union file of (pi, psis) applied to a union file."""
    types, c, d = union["groups"], union["C"], union["D"]
    k = len(types)
    nc, nd = transform(c, d, pi, psis)
    moved = [None] * k
    for i in range(k):
        moved[pi[i]] = types[i]
    return {"groups": moved, "C": [list(nc[i * k:(i + 1) * k]) for i in range(k)],
            "D": [list(nd[i * k:(i + 1) * k]) for i in range(k)]}


def _cli_edge_corpus(census):
    """(argv, files to write first) of the CLI runs that reach what
    _cli_corpus does not: verify's exit-1 witnesses (a row that is not a
    permutation, a bijectivity collision, each birack identity), the brace
    law's failing triple and a dot table with a bad row, classify of unions
    with non-cyclic blocks and with runs of trivial blocks, and towers that
    shrink by the quotient loop."""
    rng = random.Random(RELABEL_SEED)
    runs, files = [], {}

    def put(name, payload):
        files[name] = json.dumps(payload)
        return "{tmp}/" + name

    def relabelled(u):
        s = yb.union_to_solution(yb.union_from_dict(u))
        phi = list(range(s.n))
        rng.shuffle(phi)
        return yb.relabel(s, phi).to_dict()

    def moved(u):
        types = [tuple(t) for t in u["groups"]]
        pi = rng.sample(range(len(types)), len(types))
        return _moved_union(u, pi, [rng.choice(automorphisms(t)) for t in types])

    def twin(u):
        # one entry of the first non-trivial column moved by the least step,
        # first of C's then D's in a seeded row order, that keeps the column
        # generating
        j = next(j for j, t in enumerate(u["groups"]) if t)
        t = tuple(u["groups"][j])
        k = len(u["groups"])
        rows = rng.sample(range(k), k)
        for step, m, i in itertools.product(range(1, prod(t)), "CD", rows):
            out = json.loads(json.dumps(u))
            out[m][i][j] = (out[m][i][j] + step) % prod(t)
            if generates(t, [row[j] for row in out["C"] + out["D"]]):
                return out
        raise AssertionError(u)

    # verify's exit-1 tables: the first table pair at n = 2, 3 (every
    # pair of permutation tables) and at n = 4..6 (seeded random ones)
    # that fails each check, found by the oracle
    kinds = {}
    for n in (2, 3):
        perms = list(itertools.permutations(range(n)))
        for sigma, tau in itertools.product(itertools.product(perms, repeat=n), repeat=2):
            kinds.setdefault((n, (validate_oracle(sigma, tau) or ("ok",))[0]), (sigma, tau))
    for n in (4, 5, 6):
        perms = list(itertools.permutations(range(n)))
        for _ in range(200):
            sigma, tau = ([rng.choice(perms) for _ in range(n)] for _ in range(2))
            kinds.setdefault((n, (validate_oracle(sigma, tau) or ("ok",))[0]), (sigma, tau))
    for (n, kind), (sigma, tau) in sorted(kinds.items()):
        if kind != "ok":
            runs.append(["verify", put(f"v{n}-{kind}.json", {"sigma": sigma, "tau": tau})])
    perm5 = [[(x + a) % 5 for x in range(5)] for a in range(5)]
    for name, sigma, tau in [
        ("sigma-row", [[0, 1], [1, 1]], [[0, 1], [0, 1]]),
        ("tau-row", perm5, perm5[:3] + [[0, 1, 2, 3, 3]] + perm5[4:]),
        ("late-sigma-row", perm5[:4] + [[4, 3, 2, 1, 1]], perm5),
    ]:
        runs.append(["verify", put(f"bad-{name}.json", {"sigma": sigma, "tau": tau})])
    # braces: the brace law fails, and a dot table has a bad row
    s3, z6 = yb.symmetric_group(3), yb.cyclic_group(6)
    bad_braces = {
        "law": {"dot": [list(r) for r in s3.table], "circle": [list(r) for r in z6.table]},
        "law-swapped": {"dot": [list(r) for r in z6.table], "circle": [list(r) for r in s3.table]},
        "dot-row": {"dot": [[0, 1, 2], [1, 2, 0], [2, 2, 1]],
                    "circle": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]},
    }
    for name, data in bad_braces.items():
        path = put(f"brace-{name}.json", data)
        runs += [["verify", path], ["brace", path]]
    # towers that shrink by the quotient loop: Z6 x Triv(Z2), Z6 x Triv(Q8)
    for name, g in (("z2", yb.cyclic_group(2)), ("q8", yb.quaternion_group())):
        b = yb.product_brace(yb.z2n_brace(3), yb.trivial_brace(g))
        path = put(f"z6x{name}.json", b.to_dict())
        runs += [["verify", path],
                 ["brace", path, "--report", "full", "--solution-out", f"{{tmp}}/z6x{name}.out"],
                 ["verify", put(f"z6x{name}-solution.json",
                                yb.associated_solution(b).to_dict())]]
    # classify: the n = 4 union with a Z2 x Z2 block (its cell has one
    # class) against relabelled copies of itself and of each Z4 class, both
    # ways; a Z2 x Z4 and a Z2^3 union
    pairs = []
    z22, = (u.to_dict() for u in census[4] if u.orbit_type() == ((2, 2),))
    pairs += [(z22, relabelled(z22)), (relabelled(z22), z22)]
    for v in census[4]:
        if v.orbit_type() == ((4,),):
            pairs += [(z22, relabelled(v.to_dict())), (relabelled(v.to_dict()), z22)]
    for types in ([[2, 4], [2]], [[2, 2, 2], []], [[2, 4]]):
        k = len(types)
        while True:
            c, d = ([[rng.randrange(prod(t)) for t in types] for _ in range(k)] for _ in range(2))
            if all(generates(tuple(t), [r[j] for r in c + d]) for j, t in enumerate(types)):
                break
        u = {"groups": types, "C": c, "D": d}
        pairs += [(u, relabelled(u)), (u, moved(u)), (moved(u), twin(u))]
    # classify: a Z2 or Z3 block with 2..6 trivial blocks, whose trivial
    # rows repeat or are all distinct, against a moved copy, a relabelled
    # copy and a one-entry twin; and Z2 + Z1^m with only C[0][0] = 1
    # against its twin that also has C[m][0] = 1, both ways
    for m in range(2, 7):
        for a, values in ((2, 2), (3, 2), (3, 3)):
            rows = [(x, y) for x in range(values) for y in range(values)]
            picked = (rng.sample(rows, m) if m <= len(rows) and values == 3
                      else [rng.choice(rows) for _ in range(m)])
            c = [[1] + [0] * m] + [[x] + [0] * m for x, _ in picked]
            d = [[rng.randrange(a)] + [0] * m] + [[y] + [0] * m for _, y in picked]
            u = {"groups": [[a]] + [[]] * m, "C": c, "D": d}
            pairs += [(u, moved(u)), (relabelled(u), u), (moved(u), twin(u))]
        zero = [[0] * (m + 1) for _ in range(m + 1)]
        one = {"groups": [[2]] + [[]] * m, "C": [[1] + [0] * m] + zero[1:], "D": zero}
        other = json.loads(json.dumps(one))
        other["C"][m][0] = 1
        pairs += [(one, other), (other, one), (one, moved(one))]
    for i, (one, other) in enumerate(pairs):
        runs.append(["classify", put(f"k{i}a.json", one), put(f"k{i}b.json", other)])
    return runs, files


def test_cli_edge_digest_by_command(tmp_path, capsys, census):
    runs, files = _cli_edge_corpus(census)
    by_command = {command: [] for command in CLI_EDGE_SHA256}
    for record in _cli_records(runs, files, tmp_path, capsys):
        by_command[record[0][0]].append(record)
    assert {c: _sha256(records) for c, records in by_command.items()} == CLI_EDGE_SHA256
