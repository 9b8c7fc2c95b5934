"""Command-line flows: exit codes, reports, census files, classification."""

from __future__ import annotations

import ast
import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc

import pytest

import yangbaxter as yb
from yangbaxter import brace as brace_module
from yangbaxter import cli, groups, unions
from yangbaxter.cli import main
from yangbaxter.groups import finite_group
from yangbaxter.solution import solution_to_text


def write(tmp_path, name, payload):
    path = tmp_path / name
    if isinstance(payload, str):
        path.write_text(payload)
    else:
        path.write_text(json.dumps(payload))
    return str(path)


def test_verify_solution_json(tmp_path, capsys):
    path = write(tmp_path, "sol.json", yb.projection_solution(3).to_dict())
    assert main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "two_reductive: True" in out
    assert "mp_level: 1" in out


def test_verify_solution_text_format(tmp_path, capsys):
    # a file that does not start with "{" is read as the text format
    path = write(tmp_path, "sol.txt", solution_to_text(yb.projection_solution(2)))
    assert main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "kind: solution" in out and "n: 2" in out and "projection: True" in out


def test_verify_text_separator_line_may_hold_whitespace(tmp_path, capsys):
    path = write(tmp_path, "sol.txt", "0 1\n0 1\n \t\n0 1\n0 1\n")
    assert main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "n: 2" in out and "projection: True" in out


def test_verify_irretractable_brace_solution(tmp_path, capsys):
    s = yb.associated_solution(yb.z2n_brace(3))
    path = write(tmp_path, "z6sol.json", s.to_dict())
    assert main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "irretractable" in out
    assert "left_distributive: True" in out
    assert "right_distributive: False" in out


def test_verify_union_file(tmp_path, capsys):
    u = yb.enumerate_2reductive(3)[0]
    path = write(tmp_path, "union.json", u.to_dict())
    assert main(["verify", path]) == 0
    assert "two_reductive: True" in capsys.readouterr().out


def test_verify_brace_file(tmp_path, capsys):
    path = write(tmp_path, "brace.json", yb.z2n_brace(3).to_dict())
    assert main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "kind: brace" in out
    assert "bi_skew: True" in out


def test_verify_bad_row_exits_1(tmp_path, capsys):
    path = write(
        tmp_path, "bad.json",
        {"n": 2, "sigma": [[0, 0], [0, 1]], "tau": [[0, 1], [0, 1]]},
    )
    assert main(["verify", path]) == 1
    assert "sigma-row" in capsys.readouterr().err


def test_verify_parse_error_exits_2(tmp_path, capsys):
    path = write(tmp_path, "broken.json", '{"sigma": [[0]], ')
    assert main(["verify", path]) == 2
    err = capsys.readouterr().err
    assert "invalid JSON" in err
    missing = str(tmp_path / "missing.json")
    assert main(["verify", missing]) == 2


def test_verify_unknown_schema_exits_2(tmp_path, capsys):
    path = write(tmp_path, "odd.json", {"foo": 1})
    assert main(["verify", path]) == 2
    assert "unrecognized schema" in capsys.readouterr().err


PERM2 = [[0, 1], [0, 1]]
MALFORMED = {
    "float-entries": ({"sigma": [[0.0, 1.0], [0.0, 1.0]], "tau": PERM2}, "sigma"),
    "bool-entries": ({"sigma": [[False, True], [False, True]], "tau": PERM2}, "sigma"),
    "late-bool-entry": ({"sigma": [[0, 1], [0, True]], "tau": PERM2}, "sigma"),
    "flat-table": ({"sigma": [0, 1], "tau": PERM2}, "sigma"),
    "string-table": ({"sigma": "ab", "tau": PERM2}, "sigma"),
    "ragged-table": ({"sigma": PERM2, "tau": [[0, 1], [0]]}, "tau"),
    "non-integer-n": ({"n": "2", "sigma": PERM2, "tau": PERM2}, "n"),
    "scalar-dot": ({"dot": 5, "circle": [[0]]}, "dot"),
    "scalar-block": ({"groups": [2], "C": [[1]], "D": [[0]]}, "groups"),
    "float-constant": ({"groups": [[2]], "C": [[1.5]], "D": [[0]]}, "C"),
    "ragged-text": ("0 1\n0\n\n0 1\n0 1\n", "sigma"),
    "non-integer-text": ("0 1\n0 1\n\n0 1\n0 x\n", "tau"),
    "empty-carrier": ({"sigma": [], "tau": []}, "sigma"),
    "empty-brace": ({"dot": [], "circle": []}, "dot"),
    "short-circle": ({"dot": [[0]], "circle": []}, "circle"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_verify_malformed_input_exits_2_with_one_line(tmp_path, capsys, case):
    # every command that reads a file goes through the same loader
    payload, field = MALFORMED[case]
    path = write(tmp_path, "bad.txt" if isinstance(payload, str) else "bad.json", payload)
    for argv in (["verify", path], ["classify", path, path], ["brace", path]):
        assert main(argv) == 2, argv
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {path}: {field}: "), lines


def test_malformed_entry_message_names_its_index(tmp_path, capsys):
    # the bad entry is found past [0][0], so its index is the one reported
    payload, _ = MALFORMED["late-bool-entry"]
    path = write(tmp_path, "bad.json", payload)
    for argv in (["verify", path], ["classify", path, path], ["brace", path]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: sigma: entry [1][1] = True is not an integer"
        ], argv


def test_axiom_violation_is_a_verdict_only_for_verify(tmp_path, capsys):
    # well-formed tables whose tau rows are not permutations
    path = write(tmp_path, "bad.json", {"sigma": PERM2, "tau": [[0, 0], [1, 1]]})
    assert main(["verify", path]) == 1
    assert capsys.readouterr().err.splitlines() == ["violation: tau-row fails at (0,)"]
    for argv in (["classify", path, path], ["brace", path]):
        assert main(argv) == 2, argv
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error: {path}: tau-row fails at (0,)"], lines


def test_enumerate_rejects_non_integer_cap(capsys, monkeypatch):
    monkeypatch.setenv("YANGBAXTER_ENUM_CAP", "eight")
    assert main(["enumerate", "3"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "YANGBAXTER_ENUM_CAP" in lines[0]


def test_enumerate_refuses_jobs(tmp_path, capsys):
    # the census runs in one process; the parser knows no --jobs
    out_path = tmp_path / "census4.jsonl"
    assert main(["enumerate", "4", "--jobs", "2", "--out", str(out_path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "--jobs" in lines[0], lines
    assert not out_path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "abc"],
        ["frobnicate", "FILE"],
        ["classify", "FILE"],
        ["verify", "FILE", "--format", "json"],
        [],
    ],
    ids=["bad-int", "unknown-command", "missing-file", "verify-format", "no-command"],
)
def test_malformed_command_lines_exit_2_with_one_line(tmp_path, capsys, argv):
    path = write(tmp_path, "sol.json", yb.projection_solution(2).to_dict())
    assert main([path if arg == "FILE" else arg for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: yangbaxter verify")


def test_enumerate_unwritable_out_fails_before_building(tmp_path, capsys, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("the census was built before the output was opened")

    monkeypatch.setattr(cli, "build_census", no_build)
    out_path = str(tmp_path / "missing" / "census.jsonl")
    assert main(["enumerate", "3", "--out", out_path]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {out_path}: ")


def test_enumerate_summary_and_file(tmp_path, capsys):
    out_path = str(tmp_path / "census3.jsonl")
    assert main(["enumerate", "3", "--out", out_path]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["n"] == 3
    assert summary["count"] == 20
    lines = open(out_path).read().splitlines()
    assert len(lines) == 21  # 20 entries + summary record
    tail = json.loads(lines[-1])
    assert tail["count"] == 20
    assert sum(tail["by_orbit_type"].values()) == 20


def test_census_record_counts_agree():
    for n in range(1, 6):
        record = cli.build_census(n)
        assert sum(record.by_orbit_type.values()) == record.count
        assert record.count == len(unions.unions_of_cells(record.cells))


def test_census_lines_match_the_library_census(census):
    # write_census fills one line template per cell from the cell's keys;
    # enumerate_2reductive builds the unions from the same keys
    for n in range(1, 5):
        record = cli.build_census(n)
        assert unions.unions_of_cells(record.cells) == census[n]
        buf = io.StringIO()
        cli.write_census(record, buf)
        lines = buf.getvalue().splitlines()
        assert [yb.union_from_dict(json.loads(line)) for line in lines[:-1]] == list(census[n])
        assert json.loads(lines[-1]) == record.summary_dict()


def test_write_census_streams_one_run_at_a_time():
    # each write holds the lines of one C-run, never a whole cell, so the
    # text in flight stays small
    record = cli.build_census(5)
    writes = []

    class Recorder(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    buf = Recorder()
    cli.write_census(record, buf)
    body = writes[:-1]
    assert "".join(writes) == buf.getvalue()
    for text in body:
        assert len({json.dumps(json.loads(line)["C"]) for line in text.splitlines()}) == 1
    biggest = max(len(list(unions.cell_keys(*cell))) for cell in record.cells)
    assert max(text.count("\n") for text in body) < biggest


def _template_writer(record, stream):
    """write_census as a %-template filled per C-run: the C half of the
    cell's line once, then one format call over the run's bytes."""
    encode = json.JSONEncoder(separators=(",", ":")).encode
    for types, runs in record.cells:
        k = len(types)
        row = "[" + ",".join(["%d"] * k) + "]"
        matrix = "[" + ",".join([row] * k) + "]"
        head = f'{{"groups":{encode([list(t) for t in types])},"C":'
        tail = f',"D":{matrix}}}\n'
        for c, run in runs:
            line = head + matrix % c + tail
            stream.write((line * (len(run) // (k * k))) % tuple(run))
    stream.write(encode(record.summary_dict()) + "\n")


def test_write_census_matches_the_template_writer():
    # the digit scatter writes the same bytes as formatting every entry
    for n in range(1, 7):
        record = cli.build_census(n)
        expected, got = io.StringIO(), io.StringIO()
        _template_writer(record, expected)
        cli.write_census(record, got)
        assert got.getvalue() == expected.getvalue(), n


def test_write_census_refuses_blocks_above_order_10():
    # an entry of Z11 may be 10, two digits; nothing is written, not even
    # the cell before it
    record = cli.CensusRecord(n=12, cells=(
        (((2,),), [((1,), b"\x01")]),
        (((11,), ()), [((0, 0, 1, 0), b"\x0a\x00\x00\x00")]),
    ))
    buf = io.StringIO()
    with pytest.raises(ValueError, match=r"cell Z11\+Z1: "):
        cli.write_census(record, buf)
    assert buf.getvalue() == ""


def test_enumerate_out_refuses_more_than_10_points(tmp_path, capsys, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("the census was built before n was refused")

    monkeypatch.setattr(cli, "build_census", no_build)
    monkeypatch.setenv("YANGBAXTER_ENUM_CAP", "12")
    out_path = tmp_path / "census11.jsonl"
    assert main(["enumerate", "11", "--out", str(out_path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "at most 10" in lines[0], lines
    assert not out_path.exists()


def test_census_holds_its_keys_packed():
    # build_census keeps each C-run's D's as k^2 bytes apiece in one bytes
    # object: ~2.3 MB traced at n = 6, against ~17 MB as (C, D) tuple pairs
    tracemalloc.start()
    try:
        cli.build_census(6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_enumerate_8_is_refused_by_default(capsys, monkeypatch):
    # n = 8 has 398,915,014 classes: the default cap refuses it before any work
    def no_build(*args, **kwargs):
        raise AssertionError("the census was built")

    monkeypatch.delenv("YANGBAXTER_ENUM_CAP", raising=False)
    monkeypatch.setattr(cli, "build_census", no_build)
    assert main(["enumerate", "8"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: n must be between 1 and 7"), lines


def test_enumerate_cap(tmp_path, capsys, monkeypatch):
    assert main(["enumerate", "9"]) == 2
    monkeypatch.setenv("YANGBAXTER_ENUM_CAP", "4")
    assert main(["enumerate", "5"]) == 2
    assert main(["enumerate", "4"]) == 0
    monkeypatch.setenv("YANGBAXTER_ENUM_CAP", "5")
    assert main(["enumerate", "5", "--out", str(tmp_path / "c5.jsonl")]) == 0


def test_enumerate_entries_reverify(tmp_path, capsys):
    out_path = str(tmp_path / "census3.jsonl")
    assert main(["enumerate", "3", "--out", out_path]) == 0
    capsys.readouterr()
    lines = open(out_path).read().splitlines()
    for i, line in enumerate(lines[:-1]):
        entry = str(tmp_path / f"entry{i}.json")
        with open(entry, "w") as fh:
            fh.write(line)
        assert main(["verify", entry]) == 0
        capsys.readouterr()


def test_classify_self_gives_identity_witness(tmp_path, capsys):
    u = yb.enumerate_2reductive(3)[5]
    path = write(tmp_path, "u.json", u.to_dict())
    assert main(["classify", path, path]) == 0
    out = capsys.readouterr().out
    assert "isomorphic" in out and f"pi={list(range(u.k))}" in out


def test_classify_scrambled_census_entry(tmp_path, capsys):
    rng = random.Random(4242)
    u = yb.enumerate_2reductive(4)[100]
    s = yb.union_to_solution(u)
    phi = list(range(s.n))
    rng.shuffle(phi)
    scrambled = yb.relabel(s, phi)
    p1 = write(tmp_path, "u.json", u.to_dict())
    p2 = write(tmp_path, "scrambled.json", scrambled.to_dict())
    assert main(["classify", p1, p2]) == 0
    assert "isomorphic" in capsys.readouterr().out


def test_classify_non_isomorphic(tmp_path, capsys):
    z3 = yb.abelian_group([3])
    u1 = yb.abelian_union([z3], [[0]], [[1]])
    u2 = yb.abelian_union([z3], [[1]], [[0]])
    p1 = write(tmp_path, "u1.json", u1.to_dict())
    p2 = write(tmp_path, "u2.json", u2.to_dict())
    assert main(["classify", p1, p2]) == 1
    assert "not isomorphic" in capsys.readouterr().out


def test_classify_non_2reductive_brute_force(tmp_path, capsys):
    s = yb.associated_solution(yb.trivial_brace(yb.symmetric_group(3)))
    phi = [3, 0, 5, 1, 4, 2]
    t = yb.relabel(s, phi)
    p1 = write(tmp_path, "s.json", s.to_dict())
    p2 = write(tmp_path, "t.json", t.to_dict())
    assert main(["classify", p1, p2]) == 0
    assert "phi=" in capsys.readouterr().out
    p3 = write(tmp_path, "proj.json", yb.projection_solution(6).to_dict())
    assert main(["classify", p1, p3]) == 1


def test_classify_large_non_2reductive_exits_2(tmp_path, capsys):
    big = yb.product_brace(
        yb.trivial_brace(yb.symmetric_group(3)),
        yb.trivial_brace(yb.cyclic_group(2)),
    )
    s = yb.associated_solution(big)
    assert not yb.is_2reductive(s).holds and s.n == 12
    path = write(tmp_path, "big.json", s.to_dict())
    assert main(["classify", path, path]) == 2
    assert "brute-force" in capsys.readouterr().err


def test_classify_tells_invariants_apart_at_once(tmp_path, capsys):
    # one input 2-reductive and one not, or carriers of two sizes: not
    # isomorphic, exit 1, however large the carriers
    s3 = yb.symmetric_group(3)
    big = yb.associated_solution(
        yb.product_brace(yb.trivial_brace(s3), yb.trivial_brace(yb.cyclic_group(2)))
    )
    assert not yb.is_2reductive(big).holds and big.n == 12
    small = yb.associated_solution(yb.trivial_brace(s3))
    p_big = write(tmp_path, "big.json", big.to_dict())
    p_proj = write(tmp_path, "proj.json", yb.projection_solution(12).to_dict())
    p_small = write(tmp_path, "small.json", small.to_dict())
    p_union = write(tmp_path, "u.json", yb.enumerate_2reductive(3)[5].to_dict())
    pairs = (p_proj, p_big), (p_big, p_proj), (p_small, p_big), (p_big, p_small), (p_union, p_big)
    for p1, p2 in pairs:
        assert main(["classify", p1, p2]) == 1, (p1, p2)
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("not isomorphic\n", ""), (p1, p2)


def test_classify_projection_solutions_with_many_equal_blocks(tmp_path, capsys):
    # twelve trivial blocks: 12! block bijections, of which the first fits
    s = yb.projection_solution(12)
    p1 = write(tmp_path, "a.json", s.to_dict())
    p2 = write(tmp_path, "b.json", yb.relabel(s, list(range(12))[::-1]).to_dict())
    assert main(["classify", p1, p2]) == 0
    assert capsys.readouterr().out == f"isomorphic: pi={list(range(12))} psis={[[0]] * 12}\n"


def test_classify_rejects_brace_input(tmp_path, capsys):
    path = write(tmp_path, "b.json", yb.z2n_brace(1).to_dict())
    assert main(["classify", path, path]) == 2


def test_brace_report_and_solution_out(tmp_path, capsys):
    path = write(tmp_path, "z6.json", yb.z2n_brace(3).to_dict())
    sol_out = str(tmp_path / "assoc.json")
    assert main(["brace", path, "--report", "full", "--solution-out", sol_out]) == 0
    out = capsys.readouterr().out
    assert "bi_skew: True" in out
    assert "not nilpotent" in out
    assert "socle: [0]" in out
    assert "ker_rho: [0, 3] ideal: False" in out
    assert "associated_solution:" in out
    written = yb.solution_from_dict(json.load(open(sol_out)))
    assert written == yb.associated_solution(yb.z2n_brace(3))
    # the file is the solution's to_dict in json's default spacing, one line
    with open(sol_out, "rb") as fh:
        assert fh.read() == (
            b'{"n": 6, "sigma": [[0, 1, 2, 3, 4, 5], [0, 5, 4, 3, 2, 1], '
            b'[0, 1, 2, 3, 4, 5], [0, 5, 4, 3, 2, 1], [0, 1, 2, 3, 4, 5], '
            b'[0, 5, 4, 3, 2, 1]], "tau": [[0, 1, 2, 3, 4, 5], [0, 3, 2, 5, 4, 1], '
            b'[0, 5, 2, 1, 4, 3], [0, 1, 2, 3, 4, 5], [0, 3, 2, 5, 4, 1], '
            b'[0, 5, 2, 1, 4, 3]]}\n'
        )


def test_brace_unwritable_solution_out_fails_before_the_report(tmp_path, capsys):
    path = write(tmp_path, "z6.json", yb.z2n_brace(3).to_dict())
    sol_out = str(tmp_path / "missing" / "assoc.json")
    assert main(["brace", path, "--report", "full", "--solution-out", sol_out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {sol_out}: "), lines


def _count_calls(monkeypatch, functions):
    """Wrap every library binding of each named function with a counter;
    returns the live {name: calls} dict."""
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "yangbaxter"]
    calls = {}
    for name, orig in functions.items():
        calls[name] = 0

        def counted(*args, _name=name, _orig=orig, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is orig:
                    monkeypatch.setattr(module, key, counted)
    return calls


def test_reports_do_not_validate_what_they_derive(
    tmp_path, capsys, monkeypatch, brace_catalog, small_solutions
):
    # input is validated once, when it is loaded; quotients, opposites and
    # inverses built from it are not checked again, nor is the approx
    # relation of each retraction step, which is always a congruence
    paths = [write(tmp_path, f"s{i}.json", s.to_dict()) for i, s in enumerate(small_solutions)]
    calls = _count_calls(
        monkeypatch,
        {
            "verify_brace": yb.verify_brace, "finite_group": finite_group, "verify": yb.verify,
            "is_congruence": yb.is_congruence,
        },
    )
    for _, b in brace_catalog:
        cli.brace_report(b, full=True, out=io.StringIO())
    for s in small_solutions:
        yb.multipermutation_level(s)
    assert calls == {"verify_brace": 0, "finite_group": 0, "verify": 0, "is_congruence": 0}
    for path in paths:
        assert main(["verify", path]) == 0
    assert calls == {
        "verify_brace": 0, "finite_group": 0, "verify": len(paths), "is_congruence": 0,
    }


def test_brace_report_makes_no_call_per_pair(monkeypatch):
    # the report of an order-48 brace composes whole table rows: it calls
    # FiniteGroup.mul and FiniteSolution.r at most n times each, where a
    # loop over pairs calls them thousands of times
    b = yb.product_brace(yb.z2n_brace(3), yb.trivial_brace(yb.quaternion_group()))
    calls = {"mul": 0, "r": 0}
    for cls, name in ((yb.FiniteGroup, "mul"), (yb.FiniteSolution, "r")):
        def counted(*args, _name=name, _orig=getattr(cls, name)):
            calls[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(cls, name, counted)
    cli.brace_report(b, full=True, out=io.StringIO())
    assert calls["mul"] <= b.n and calls["r"] <= b.n, calls


def test_reports_compute_each_invariant_once(tmp_path, capsys, monkeypatch, brace_catalog):
    # the profile holds the socle series of b and the associated solution's
    # identities and level; the report renders those, its socle line too:
    # the socle of b is the series' first step.  The hom flags and bi-skew
    # are read off the identities, so no brace law is checked again
    functions = {
        "socle_series": yb.socle_series,
        "socle": yb.socle,
        "multipermutation_level": yb.multipermutation_level,
        "is_2reductive": yb.is_2reductive,
        "_brace_law_holds": brace_module._brace_law_holds,
    }
    calls = _count_calls(monkeypatch, functions)
    for full in (True, False):
        for name, b in brace_catalog:
            before = dict(calls)
            profile = cli.brace_report(b, full=full, out=io.StringIO())
            ran = {key: calls[key] - before[key] for key in calls}
            # one socle per quotient of the series
            assert ran == {
                "socle_series": 1, "socle": len(profile.series.quotients),
                "multipermutation_level": 1, "is_2reductive": 1, "_brace_law_holds": 0,
            }, (name, full)
    path = write(tmp_path, "sol.json", yb.projection_solution(3).to_dict())
    before = dict(calls)
    assert main(["verify", path]) == 0
    assert {key: calls[key] - before[key] for key in calls} == {
        "socle_series": 0, "socle": 0, "multipermutation_level": 1, "is_2reductive": 1,
        "_brace_law_holds": 0,
    }


def test_brace_report_encodes_only_the_solution(monkeypatch, brace_catalog):
    # the identities are one row-kernel build (is_2reductive) and the full
    # report's distributivity two more; the hom flags and bi-skew are read
    # off the identities, so the brace's tables are not encoded again
    calls = _count_calls(monkeypatch, {"_row_kernel": groups._row_kernel})
    for full in (True, False):
        for name, b in brace_catalog:
            before = calls["_row_kernel"]
            cli.brace_report(b, full=full, out=io.StringIO())
            assert calls["_row_kernel"] - before == (3 if full else 1), (name, full)


def test_classify_checks_2_reductivity_once_per_file(tmp_path, capsys, monkeypatch):
    u = yb.enumerate_2reductive(4)[100]
    s = yb.union_to_solution(u)
    p1 = write(tmp_path, "a.json", s.to_dict())
    p2 = write(tmp_path, "b.json", yb.relabel(s, [3, 1, 0, 2]).to_dict())
    calls = _count_calls(monkeypatch, {"is_2reductive": yb.is_2reductive})
    assert main(["classify", p1, p2]) == 0
    assert capsys.readouterr().out.startswith("isomorphic:")
    assert calls == {"is_2reductive": 2}


def test_brace_command_rejects_solution_file(tmp_path, capsys):
    path = write(tmp_path, "sol.json", yb.projection_solution(2).to_dict())
    assert main(["brace", path]) == 2


def test_brace_law_violation_exits_1(tmp_path, capsys):
    s3 = yb.symmetric_group(3)
    z6 = yb.cyclic_group(6)
    path = write(tmp_path, "bad.json", {"n": 6, "dot": [list(r) for r in s3.table],
                                        "circle": [list(r) for r in z6.table]})
    assert main(["brace", path]) == 1
    assert "brace-law" in capsys.readouterr().err


def _child_env():
    # the child must import the same package as this test, installed or not
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(yb.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    return env


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "yangbaxter.cli", "enumerate", "2"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 4


def test_package_runs_as_a_module():
    # python -m yangbaxter from a checkout, with the sources on PYTHONPATH
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "yangbaxter", "enumerate", "4"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["count"] == 207


def test_library_imports_only_the_standard_library():
    # numpy and hypothesis may be installed where the tests run, so a stray
    # import would not fail there; compare what the imports add to sys.modules
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import pkgutil, yangbaxter\n"
        "for m in pkgutil.iter_modules(yangbaxter.__path__):\n"
        "    __import__('yangbaxter.' + m.name)\n"
        "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "yangbaxter" in loaded
    assert loaded - {"yangbaxter"} <= sys.stdlib_module_names, loaded


# the package's modules from the bottom up: each imports only from modules
# on a lower layer
LAYERS = {
    "groups": 0, "solution": 1, "retraction": 2, "unions": 3, "brace": 3, "cli": 4,
    "__init__": 5, "__main__": 5,
}


def test_modules_import_at_the_top_and_only_downward():
    package = os.path.dirname(os.path.abspath(cli.__file__))
    modules = sorted(name[:-3] for name in os.listdir(package) if name.endswith(".py"))
    assert modules == sorted(LAYERS)
    for module in modules:
        with open(os.path.join(package, module + ".py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested = [
                    node.lineno for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
                assert not nested, f"{module}.{func.name} imports at lines {nested}"
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                targets = [node.module.split(".")[0]] if node.module else [
                    alias.name for alias in node.names
                ]
                for target in targets:
                    assert LAYERS[target] < LAYERS[module], f"{module} imports {target}"


def test_readme_names_only_tests_that_exist():
    # README names its oracles as `tests/f.py::name`, `bench/f.py::name` or a
    # bare `test_name`; each must be a top-level definition of that file, or,
    # when bare, of some test or bench file
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    defined = {}
    for folder in ("tests", "bench"):
        for name in os.listdir(os.path.join(root, folder)):
            if name.endswith(".py"):
                with open(os.path.join(root, folder, name), encoding="utf-8") as fh:
                    tree = ast.parse(fh.read())
                defined[f"{folder}/{name}"] = {
                    node.name for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                }
    qualified = re.findall(r"`((?:tests|bench)/[\w/]+\.py)::(\w+)`", text)
    bare = re.findall(r"`(test_\w+)`", text)
    assert qualified and bare
    everywhere = set().union(*defined.values())
    missing = [f"{path}::{name}" for path, name in qualified if name not in defined.get(path, ())]
    missing += [name for name in bare if name not in everywhere]
    assert not missing, missing
