"""Golden digests of results that must not change under refactoring.

Each digest is the sha256 of a deterministic serialization: the census
JSON-lines bytes, the decompositions of relabelled census solutions (union
and carrier map), the isomorphism witnesses found for them, the full brace
reports of the brace catalog, the socle-series quotients of each catalog
brace and of its opposite, the retraction towers of the small solutions,
and a corpus of command-line runs with their exit codes, output and
written files, also with more verify inputs and one digest per command.
The witnesses pin the order in which automorphisms and torsor
isomorphisms are tried, since the first match found is the one returned.
"""

from __future__ import annotations

import hashlib
import io
import json
import random

import pytest

import yangbaxter as yb
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
