"""Command-line flows: exit codes, reports, census files, classification."""

from __future__ import annotations

import ast
import errno
import inspect
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
from oracles import UsageError, distributive_oracle, moving_perm, reference_parser
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


def test_verify_report_lines_equal_the_definition_routes(tmp_path, capsys, small_solutions,
                                                         census):
    # verify prints the distributivity lines as red3 and red4, and the level
    # of a 2-reductive solution in closed form; the definitions agree
    braced = [yb.associated_solution(b) for b in (yb.z2n_brace(3), yb.dihedral_example_brace())]
    files = [*small_solutions[::4], *braced, *map(yb.inverse_solution, braced), census[4][100]]
    seen = set()
    for i, obj in enumerate(files):
        path = write(tmp_path, f"{i}.json", obj.to_dict())
        s = yb.union_to_solution(obj) if isinstance(obj, yb.AbelianUnion) else obj
        assert main(["verify", path]) == 0
        lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        expected = (distributive_oracle(s.sigma), distributive_oracle(s.tau))
        assert (lines["left_distributive"], lines["right_distributive"]) == tuple(map(str, expected))
        assert lines["mp_level"] == yb.multipermutation_level(s).describe()
        seen.add((*expected, lines["two_reductive"] == "True"))
    # every (left, right) pair of flags, and a 2-reductive file
    assert seen >= {(True, True, True), (True, False, False), (False, True, False),
                    (False, False, False)}, seen


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


@pytest.mark.parametrize("name, code", [("missing.json", errno.ENOENT), (".", errno.EISDIR)])
def test_unreadable_input_names_its_path_once(tmp_path, capsys, name, code):
    path = str(tmp_path / name)
    assert main(["verify", path]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: {path}: {os.strerror(code)}"]


def test_verify_unknown_schema_exits_2(tmp_path, capsys):
    path = write(tmp_path, "odd.json", {"foo": 1})
    assert main(["verify", path]) == 2
    assert "unrecognized schema" in capsys.readouterr().err
    # only text whose first non-blank character is "{" is JSON, and it can
    # only decode to an object: a JSON array is read as the text format
    path = write(tmp_path, "array.json", "[1, 2]")
    assert main(["verify", path]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path}: expected 2 blocks separated by a blank line, got 1"]


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
    "no-block": ({"groups": [], "C": [], "D": []}, "groups"),
    "non-square-matrix": ({"groups": [[2], [3]], "C": [[1, 0], [0]], "D": [[0, 0], [0, 1]]}, "C"),
    "ragged-text": ("0 1\n0\n\n0 1\n0 1\n", "sigma"),
    "non-integer-text": ("0 1\n0 1\n\n0 1\n0 x\n", "tau"),
    "empty-carrier": ({"sigma": [], "tau": []}, "sigma"),
    "empty-brace": ({"dot": [], "circle": []}, "dot"),
    "short-circle": ({"dot": [[0]], "circle": []}, "circle"),
    "brace-wrong-n": ({"n": 5, "dot": [[0]], "circle": [[0]]}, "n"),
    # JSON that json.loads refuses other than by a syntax error
    "deep-nesting": ('{"sigma": ' + "[" * 100_000, "invalid JSON"),
    "long-integer": ('{"sigma": [[' + "1" * 5000 + ']], "tau": [[0]]}', "invalid JSON"),
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


def test_files_that_are_not_utf8_exit_2_and_a_bom_is_dropped(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    for argv in (["verify", str(bad)], ["classify", str(bad), str(bad)], ["brace", str(bad)]):
        assert main(argv) == 2, argv
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {bad}: not UTF-8 text"), lines
    # a UTF-8 file with a byte-order mark reads as the same file without one
    bom = b"\xef\xbb\xbf"
    sol, text, brace = tmp_path / "sol.json", tmp_path / "sol.txt", tmp_path / "brace.json"
    sol.write_bytes(bom + json.dumps(yb.projection_solution(2).to_dict()).encode())
    text.write_bytes(bom + solution_to_text(yb.projection_solution(2)).encode())
    brace.write_bytes(bom + json.dumps(yb.z2n_brace(3).to_dict()).encode())
    for argv in (["verify", str(sol)], ["verify", str(text)], ["verify", str(brace)],
                 ["classify", str(sol), str(text)], ["brace", str(brace)]):
        assert main(argv) == 0, argv
        assert capsys.readouterr().err == "", argv


def test_malformed_entry_message_names_its_index(tmp_path, capsys):
    # the bad entry is found past [0][0], so its index is the one reported
    payload, _ = MALFORMED["late-bool-entry"]
    path = write(tmp_path, "bad.json", payload)
    for argv in (["verify", path], ["classify", path, path], ["brace", path]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: sigma: entry [1][1] = True is not an integer"
        ], argv


Z3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
UNION = {"groups": [[2], [3]], "C": [[1, 0], [0, 1]]}


@pytest.mark.parametrize("payload, message", [
    ({"dot": Z3, "circle": [[0, 1, 2], [1, 2, 0], [2, 0, True]]},
     "circle: entry [2][2] = True is not an integer"),
    ({"dot": Z3, "circle": [[0, 1, 2], [1, 2, 0], [2, 0, 1.5]]},
     "circle: entry [2][2] = 1.5 is not an integer"),
    ({"dot": Z3, "circle": [[0, 1, 2], [1, 2, 0], [2, 0]]},
     "circle: row 2 has 2 entries, expected 3"),
    ({**UNION, "D": [[0, 0], [0, True]]}, "D: entry [1][1] = True is not an integer"),
    ({**UNION, "D": [[0, 0], [0, 1.5]]}, "D: entry [1][1] = 1.5 is not an integer"),
    ({**UNION, "D": [[0, 0], [0]]}, "D: row 1 has 1 entries, expected 2"),
], ids=["circle-late-bool", "circle-late-float", "circle-short-row",
        "union-late-bool", "union-late-float", "union-short-row"])
def test_every_loader_names_the_first_bad_entry(tmp_path, capsys, payload, message):
    # the brace and union loaders share the solution's table check: a bool
    # or a float past [0][0], or a short last row, is named by its index
    path = write(tmp_path, "bad.json", payload)
    for argv in (["verify", path], ["classify", path, path], ["brace", path]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.splitlines() == [f"error: {path}: {message}"], argv


@pytest.mark.parametrize("sigma, message", [
    ([[1, 0], [1.0, 0]], "sigma: entry [1][0] = 1.0 is not an integer"),
    ([[0, 1.5, 2], [0, 1, 2], [0, 1]], "sigma: entry [0][1] = 1.5 is not an integer"),
    ([[0, 1], "01"], "sigma: row 1 is not a list"),
    ([[0, 1], 5], "sigma: row 1 is not a list"),
], ids=["float-after-equal-int-row", "first-fault-by-row", "string-row", "scalar-row"])
def test_fast_table_verdict_keeps_the_first_fault(tmp_path, capsys, sigma, message):
    # a row equal to an earlier int row may still hold a float (a bool:
    # test_malformed_entry_message_names_its_index), and a fault in row 0 is
    # named before a later row's wrong length
    n = len(sigma)
    path = write(tmp_path, "bad.json", {"sigma": sigma, "tau": [list(range(n))] * n})
    assert main(["verify", path]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {path}: {message}"]


@pytest.mark.parametrize("field, other", [("sigma", "tau"), ("tau", "sigma")])
def test_recurring_bad_row_is_named_by_its_first_index(tmp_path, capsys, field, other):
    # rows are checked once per distinct row; the witness is the first index
    # in the table, not among the distinct rows
    ident = [0, 1, 2, 3, 4]
    rows = [ident, ident, [1, 1, 0, 2, 3], [0, 0, 0, 0, 0], [1, 1, 0, 2, 3]]
    tables = {field: rows, other: [ident] * 5}
    path = write(tmp_path, "bad.json", tables)
    assert main(["verify", path]) == 1
    assert capsys.readouterr().err.splitlines() == [f"violation: {field}-row fails at (2,)"]
    assert yb.validate_tables(tables["sigma"], tables["tau"]) == (f"{field}-row", (2,))


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


def test_enumerate_rejects_a_cap_below_1(capsys, monkeypatch):
    # a cap below 1 admits no n; it once surfaced as "n must be between 1 and 0"
    for raw in ("0", "-5"):
        monkeypatch.setenv("YANGBAXTER_ENUM_CAP", raw)
        assert main(["enumerate", "1"]) == 2, raw
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error: YANGBAXTER_ENUM_CAP: '{raw}' is not a positive integer"], lines


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


def test_main_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["yangbaxter", "enumerate", "2"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["count"] == 4


# Command lines for the CLI's parser and for the argparse grammar it replaced
# (tests/oracles.py::reference_parser).  Only the parse is compared, so the
# files need not exist.  No two options of a command share a prefix longer
# than "--", so "--=full" is the one ambiguous prefix.
PARSER_CORPUS = [
    # the documented forms
    ["verify", "a.json"],
    ["enumerate", "4"],
    ["enumerate", "4", "--out", "c.jsonl"],
    ["classify", "a.json", "b.json"],
    ["brace", "b.json"],
    ["brace", "b.json", "--report", "summary"],
    ["brace", "b.json", "--report", "full", "--solution-out", "s.json"],
    # --opt=value
    ["enumerate", "4", "--out=c.jsonl"],
    ["brace", "b.json", "--report=full", "--solution-out=s.json"],
    ["enumerate", "4", "--out="],
    ["enumerate", "4", "--out=-x"],
    # options before, between and after positionals
    ["enumerate", "--out", "c.jsonl", "4"],
    ["brace", "--report", "full", "b.json"],
    ["brace", "--solution-out", "s.json", "b.json", "--report", "full"],
    ["classify", "a.json", "--report", "full", "b.json"],
    # repeated options: the last one holds
    ["brace", "b.json", "--report", "summary", "--report", "full"],
    ["enumerate", "4", "--out", "x", "--out", "y"],
    # unique and ambiguous prefixes
    ["brace", "b.json", "--rep", "full"],
    ["brace", "b.json", "--rep=full"],
    ["brace", "b.json", "--r", "full", "--sol", "s.json"],
    ["enumerate", "4", "--o", "c.jsonl"],
    ["brace", "b.json", "--=full"],
    ["verify", "a.json", "--rep", "full"],
    # "--": every later argument is a value
    ["verify", "--", "a.json"],
    ["verify", "--", "-h"],
    ["enumerate", "--", "-3"],
    ["brace", "b.json", "--", "--report", "full"],
    # a negative N
    ["enumerate", "-3"],
    ["enumerate", "-3", "--out", "c.jsonl"],
    ["enumerate", "--out", "-3", "4"],
    # missing, extra and unknown arguments
    [],
    ["verify"],
    ["enumerate"],
    ["enumerate", "--out", "c.jsonl"],
    ["classify", "a.json"],
    ["verify", "a.json", "b.json"],
    ["classify", "a.json", "b.json", "c.json"],
    ["brace", "b.json", "--report", "full", "full"],
    ["verify", "a.json", "--format", "json"],
    ["enumerate", "4", "--jobs", "2"],
    ["verify", "-x", "a.json"],
    ["--x", "verify", "a.json"],
    ["verify", "-hx"],
    # a bad int, a bad choice, a missing option value
    ["enumerate", "abc"],
    ["enumerate", "4.5"],
    ["enumerate", "+5"],
    ["enumerate", "1_000"],
    ["brace", "b.json", "--report", "fancy"],
    ["brace", "b.json", "--report="],
    ["brace", "b.json", "--report"],
    ["brace", "b.json", "--report", "--solution-out", "s.json"],
    ["enumerate", "4", "--out"],
    ["enumerate", "4", "--out", "-x"],
    # -h and --help in several places: a bad value read before them wins,
    # an unknown or extra argument does not
    ["-h"],
    ["--help"],
    ["--he"],
    ["verify", "-h"],
    ["verify", "a.json", "--help"],
    ["brace", "--help", "b.json"],
    ["brace", "b.json", "--h"],
    ["enumerate", "abc", "-h"],
    ["enumerate", "-h", "abc"],
    ["verify", "a.json", "b.json", "-h"],
    ["verify", "--bogus", "-h"],
    ["--x", "verify", "-h"],
    ["-h", "frobnicate"],
    ["frobnicate", "-h"],
    ["brace", "b.json", "--report", "fancy", "-h"],
    ["--help=x"],
    ["verify", "--help=x"],
    # unknown commands and odd values
    ["frobnicate", "a.json"],
    ["verif", "a.json"],
    ["verify", "-"],
    ["verify", ""],
]


def _reference_outcome(argv):
    try:
        values = vars(reference_parser().parse_args(argv))
    except UsageError as exc:
        return 2, exc.args[0]
    except SystemExit as exc:
        return exc.code, None
    return 0, values


def _cli_outcome(argv):
    """(0, the command and its arguments with their defaults) for a line the
    parser accepts, (2, the error line) for one it refuses, (0, None) for help."""
    try:
        func, kwargs = cli._parse(argv)
    except cli._Exit as exc:
        return tuple(exc.args)
    except SystemExit as exc:
        return exc.code, None
    bound = inspect.signature(func).bind(**kwargs)
    bound.apply_defaults()
    command = next(name for name, (f, _, _) in cli._COMMANDS.items() if f is func)
    return 0, {"command": command, **bound.arguments}


@pytest.mark.parametrize("argv", PARSER_CORPUS, ids=lambda argv: " ".join(argv) or "(empty)")
def test_parser_reads_command_lines_as_argparse_did(capsys, argv):
    expected = _reference_outcome(argv)
    expected_out = capsys.readouterr().out
    got = _cli_outcome(argv)
    got_out = capsys.readouterr().out
    assert got[0] == expected[0], (got, expected)
    if got[0] == 2:
        assert re.fullmatch(r"error: yangbaxter( [a-z]+)?: [^\n]+", got[1]), got
    elif expected[1] is None:
        assert got[1] is None
        assert got_out.startswith("usage: yangbaxter ") and expected_out.startswith("usage: ")
    else:
        assert got[1] == expected[1]


@pytest.mark.parametrize(
    "argv, code",
    [
        # argparse reads a negative decimal, and a dash argument holding a
        # space, as a value
        (["verify", "-1.5"], 2),
        (["verify", "-a b"], 2),
        # argparse (3.11) takes "--" for the command
        (["--", "verify", "a.json"], 0),
    ],
)
def test_parser_divergences_from_argparse(argv, code):
    # kept on purpose, and named in README "Command line"
    assert _cli_outcome(argv)[0] == code


def test_readme_usage_is_the_help(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("\n## Command line\n", 1)[1]
    assert section.split("```\n", 2)[1] == capsys.readouterr().out


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


def _census_writes(record):
    """The texts write_census passes to its stream, one per write."""
    writes = []

    class Recorder(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    buf = Recorder()
    cli.write_census(record, buf)
    assert "".join(writes) == buf.getvalue()
    return writes


def test_write_census_streams_one_run_at_a_time():
    # each write holds the lines of one C-run, never a whole cell, so the
    # text in flight stays small
    record = cli.build_census(5)
    body = _census_writes(record)[:-1]
    for text in body:
        assert len({json.dumps(json.loads(line)["C"]) for line in text.splitlines()}) == 1
    biggest = max(len(list(unions.cell_keys(*cell))) for cell in record.cells)
    assert max(text.count("\n") for text in body) < biggest


def test_write_census_lays_out_a_shared_run_once(monkeypatch):
    # two C's holding one run object share its D halves: one layout, and
    # still one write per C-run
    calls = []

    def d_lines(run, d_half):
        calls.append(run)
        return original(run, d_half)

    original = cli._d_lines
    monkeypatch.setattr(cli, "_d_lines", d_lines)
    run = bytes([0, 1, 1, 0])
    runs = [((0, 0, 0, 0), run), ((0, 1, 1, 0), run)]
    writes = _census_writes(cli.CensusRecord(n=4, cells=((((2,), (2,)), runs),)))
    assert calls == [run]
    assert writes[:-1] == [
        '{"groups":[[2],[2]],"C":[[0,0],[0,0]],"D":[[0,1],[1,0]]}\n',
        '{"groups":[[2],[2]],"C":[[0,1],[1,0]],"D":[[0,1],[1,0]]}\n',
    ]


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
    # object, shared by the C's of one key: ~0.5 MB traced at n = 6 (~1.4 MB
    # with a run per C), against ~17 MB as (C, D) tuple pairs
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


# enumerate 8's summary; the Burnside count of ROADMAP item 2, a prototype
# sharing no code with the orderly listing, gave the same total
ENUM_8_BY_ORBIT_TYPE = {
    "Z1+Z1+Z1+Z1+Z1+Z1+Z1+Z1": 1,
    "Z2+Z1+Z1+Z1+Z1+Z1+Z1": 335,
    "Z2+Z2+Z1+Z1+Z1+Z1": 496_496,
    "Z2+Z2+Z2+Z1+Z1": 90_679_920,
    "Z2+Z2+Z2+Z2": 176_439_600,
    "Z2xZ2+Z1+Z1+Z1+Z1": 10_430,
    "Z2xZ2+Z2+Z1+Z1": 1_399_893,
    "Z2xZ2+Z2+Z2": 1_293_768,
    "Z2xZ2+Z2xZ2": 630,
    "Z2xZ2+Z3+Z1": 236_964,
    "Z2xZ2+Z4": 4_200,
    "Z2xZ4": 3,
    "Z3+Z1+Z1+Z1+Z1+Z1": 5_798,
    "Z3+Z2+Z1+Z1+Z1": 5_460_196,
    "Z3+Z2+Z2+Z1": 106_687_920,
    "Z3+Z3+Z1+Z1": 2_725_096,
    "Z3+Z3+Z2": 4_176_354,
    "Z4+Z1+Z1+Z1+Z1": 31_100,
    "Z4+Z2+Z1+Z1": 4_228_128,
    "Z4+Z2+Z2": 4_005_288,
    "Z4+Z3+Z1": 733_824,
    "Z4+Z4": 7_260,
    "Z5+Z1+Z1+Z1": 18_284,
    "Z5+Z2+Z1": 246_078,
    "Z5+Z3": 6_240,
    "Z6+Z1+Z1": 11_796,
    "Z6+Z2": 9_000,
    "Z7+Z1": 400,
    "Z8": 12,
}


@pytest.mark.slow
def test_enumerate_8_summary(capsys, monkeypatch):
    # the census holds n = 8 (~6 s, ~110 MB); only its listing, ~40 GB of
    # JSONL, is past the default cap
    monkeypatch.setenv("YANGBAXTER_ENUM_CAP", "8")
    assert main(["enumerate", "8"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary == {"n": 8, "count": 398_915_014, "by_orbit_type": ENUM_8_BY_ORBIT_TYPE}


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
    # neither 2-reductive, one size: the brute-force search finds no map
    other = yb.associated_solution(yb.almost_trivial_brace(yb.symmetric_group(3)))
    assert not yb.is_2reductive(other).holds and other.n == s.n
    capsys.readouterr()
    p4 = write(tmp_path, "other.json", other.to_dict())
    assert main(["classify", p1, p4]) == 1
    assert capsys.readouterr().out == "not isomorphic\n"


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


@pytest.mark.parametrize("n", [1, 10, 11, 100, 101, 258])
def test_write_solution_is_json_dumps_of_to_dict(n):
    # one- to three-digit entries, byte rows and tuple rows; relabelled, so
    # that the rows of one class are not the rows of a block
    braces = {
        1: yb.trivial_brace(yb.cyclic_group(1)), 10: yb.z2n_brace(5),
        11: yb.trivial_brace(yb.cyclic_group(11)),
        100: yb.almost_trivial_brace(yb.dihedral_group(50)),
        101: yb.trivial_brace(yb.cyclic_group(101)), 258: yb.z2n_brace(129),
    }
    s = yb.relabel(yb.associated_solution(braces[n]), random.Random(n).sample(range(n), n))
    out = io.StringIO()
    cli.write_solution(s, out)
    assert out.getvalue() == json.dumps(s.to_dict()) + "\n"


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
    # inverses built from it are not checked again
    paths = [write(tmp_path, f"s{i}.json", s.to_dict()) for i, s in enumerate(small_solutions)]
    calls = _count_calls(
        monkeypatch,
        {"verify_brace": yb.verify_brace, "finite_group": finite_group, "verify": yb.verify},
    )
    for _, b in brace_catalog:
        cli.brace_report(b, full=True, out=io.StringIO())
    for s in small_solutions:
        yb.multipermutation_level(s)
    assert calls == {"verify_brace": 0, "finite_group": 0, "verify": 0}
    for path in paths:
        assert main(["verify", path]) == 0
    assert calls == {"verify_brace": 0, "finite_group": 0, "verify": len(paths)}


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


def test_relabelled_brace_reports_are_the_reports_moved(tmp_path, capsys, brace_catalog):
    # a brace moved along phi, its identity off 0, reports the original's
    # lines with each element list mapped through phi and sorted, and
    # --solution-out writes the associated solution moved along phi (the
    # socle_series_sizes list holds sizes, not elements)
    lists = re.compile(r"^(socle|ker_lambda|ker_rho): \[([0-9, ]*)\]", re.M)
    out = str(tmp_path / "assoc.json")
    for seed, (name, b) in enumerate(brace_catalog):
        phi = moving_perm(b.n, b.id, seed)
        inv = [phi.index(u) for u in range(b.n)]
        data = {key: [[phi[t[x][y]] for y in inv] for x in inv]
                for key, t in (("dot", b.dot.table), ("circle", b.circle.table))}
        path = write(tmp_path, "b.json", data)
        report = io.StringIO()
        cli.brace_report(b, full=True, out=report)
        expected, lines = lists.subn(
            lambda m: f"{m[1]}: {sorted(phi[int(x)] for x in m[2].split(', ') if x)}",
            report.getvalue())
        assert lines == 3, name
        assert main(["brace", path, "--report", "full", "--solution-out", out]) == 0
        assert capsys.readouterr().out == expected, name
        with open(out) as fh:
            assert json.load(fh) == yb.relabel(yb.associated_solution(b), phi).to_dict(), name


def test_reports_compute_each_invariant_once(tmp_path, capsys, monkeypatch, brace_catalog):
    # the profile holds the associated solution's identities and level; the
    # report renders those, and its socle lines too: the socle is Ker lambda
    # .cap. Ker rho, from the kernels, and the socle series is the
    # retraction tower.  The hom flags and bi-skew are read off the
    # identities, so no brace law is checked again; the level is one
    # multipermutation_level call, in closed form for a 2-reductive brace,
    # and the associated solution is involutive iff the dot group is abelian
    functions = {
        "socle_series": yb.socle_series,
        "socle": yb.socle,
        "kernel_ideals": yb.kernel_ideals,
        "multipermutation_level": yb.multipermutation_level,
        "is_2reductive": yb.is_2reductive,
        "is_involutive": yb.is_involutive,
        "_brace_law_failure": brace_module._brace_law_failure,
    }
    calls = _count_calls(monkeypatch, functions)
    reductive = 0
    for full in (True, False):
        for name, b in brace_catalog:
            before = dict(calls)
            profile = cli.brace_report(b, full=full, out=io.StringIO())
            ran = {key: calls[key] - before[key] for key in calls}
            reductive += profile.reductivity.holds
            assert ran == {
                "socle_series": 0, "socle": 0, "kernel_ideals": 1,
                "multipermutation_level": 1, "is_2reductive": 1,
                "is_involutive": 0, "_brace_law_failure": 0,
            }, (name, full)
    assert 0 < reductive < 2 * len(brace_catalog)
    path = write(tmp_path, "sol.json", yb.projection_solution(3).to_dict())
    before = dict(calls)
    assert main(["verify", path]) == 0
    # a 2-reductive solution's level is one call, in closed form
    assert {key: calls[key] - before[key] for key in calls} == {
        "socle_series": 0, "socle": 0, "kernel_ideals": 0, "multipermutation_level": 1,
        "is_2reductive": 1, "is_involutive": 1, "_brace_law_failure": 0,
    }


def test_brace_request_composes_lambda_once(tmp_path, monkeypatch):
    # verify_brace checks the brace law on the brace's own lambdas, and the
    # full report reads them from that brace
    path = write(tmp_path, "z6.json", yb.z2n_brace(3).to_dict())
    prop = vars(yb.SkewBrace)["lambdas"]
    calls = []

    def counted(b, _orig=prop.func):
        calls.append(b.n)
        return _orig(b)

    monkeypatch.setattr(prop, "func", counted)
    for expected in (1, 2):
        assert main(["brace", path, "--report", "full"]) == 0
        assert len(calls) == expected


@pytest.mark.parametrize("argv, builds", [
    (["verify", "s"], 1),
    (["verify", "big"], 4),
    (["classify", "s", "t"], 2),
    (["brace", "b"], 4),
    (["brace", "b", "--report", "full"], 4),
], ids=["verify-2-reductive", "verify-not-2-reductive", "classify", "brace", "brace-full"])
def test_requests_build_few_row_kernels(tmp_path, capsys, monkeypatch, argv, builds):
    # a table owned by a record is encoded once, on it: a group's table
    # (finite_group, then the brace law) and a solution's sigma (the birack
    # check).  The other builds are tables of their own: the lambdas (brace
    # law), the row classes and distinct rows (FiniteSolution.class_kernel,
    # which is_2reductive and commuting_rows share), and tau's columns and
    # the derived rows (birack check of a table that is not 2-reductive).
    # No report encodes sigma or tau, as its distributivity lines are red3
    # and red4, and the rhos are composed on the dot, circle and lambda
    # kernels, building none.
    s = yb.union_to_solution(yb.enumerate_2reductive(4)[100])
    inputs = {
        "s": s, "t": yb.relabel(s, [3, 1, 0, 2]),
        "big": yb.associated_solution(yb.trivial_brace(yb.symmetric_group(3))),
        "b": yb.dihedral_example_brace(),
    }
    argv = [write(tmp_path, f"{a}.json", inputs[a].to_dict()) if a in inputs else a for a in argv]
    calls = _count_calls(monkeypatch, {"_row_kernel": groups._row_kernel})
    assert main(argv) == 0
    assert calls == {"_row_kernel": builds}


def test_brace_request_generates_each_group_once(tmp_path, capsys, monkeypatch):
    # one greedy generating set per group, kept on it: Light's test reads the
    # dot and circle groups' sets in finite_group, and the brace law reads the
    # dot group's set again, not a third one
    path = write(tmp_path, "b.json", yb.dihedral_example_brace().to_dict())
    calls = _count_calls(monkeypatch, {"_generators": groups._generators})
    assert main(["brace", path, "--report", "full"]) == 0
    assert calls == {"_generators": 2}


@pytest.mark.parametrize("argv, classings", [(["verify", "s"], 3), (["classify", "s", "t"], 4)],
                         ids=["verify", "classify"])
def test_requests_class_each_table_once(tmp_path, capsys, monkeypatch, argv, classings):
    # equal rows are told apart once per table of each loaded solution: the
    # input check, red1-red4, the commuting rows and the decomposition all
    # read the solution's record of row classes; verify's level classes the
    # pairs of those records once more, the approx relation
    s = yb.union_to_solution(yb.enumerate_2reductive(4)[100])
    inputs = {"s": s, "t": yb.relabel(s, [3, 1, 0, 2])}
    argv = [write(tmp_path, f"{a}.json", inputs[a].to_dict()) if a in inputs else a for a in argv]
    calls = _count_calls(monkeypatch, {"_row_classes": groups._row_classes})
    assert main(argv) == 0
    assert calls == {"_row_classes": classings}


def test_classify_checks_2_reductivity_once_per_file(tmp_path, capsys, monkeypatch):
    u = yb.enumerate_2reductive(4)[100]
    s = yb.union_to_solution(u)
    p1 = write(tmp_path, "a.json", s.to_dict())
    p2 = write(tmp_path, "b.json", yb.relabel(s, [3, 1, 0, 2]).to_dict())
    calls = _count_calls(monkeypatch, {"is_2reductive": yb.is_2reductive})
    assert main(["classify", p1, p2]) == 0
    assert capsys.readouterr().out.startswith("isomorphic:")
    assert calls == {"is_2reductive": 2}


def test_classify_union_against_non_2reductive_builds_no_tables(tmp_path, capsys, monkeypatch):
    # a union is 2-reductive, so the verdict needs no solution tables of it
    big = yb.associated_solution(yb.trivial_brace(yb.symmetric_group(3)))
    assert not yb.is_2reductive(big).holds
    p_union = write(tmp_path, "u.json", yb.enumerate_2reductive(3)[5].to_dict())
    p_big = write(tmp_path, "big.json", big.to_dict())
    calls = _count_calls(monkeypatch, {"union_to_solution": yb.union_to_solution})
    for p1, p2 in (p_union, p_big), (p_big, p_union):
        assert main(["classify", p1, p2]) == 1
        assert capsys.readouterr().out == "not isomorphic\n"
    assert calls == {"union_to_solution": 0}


def test_brace_command_rejects_solution_file(tmp_path, capsys):
    path = write(tmp_path, "sol.json", yb.projection_solution(2).to_dict())
    assert main(["brace", path]) == 2


def test_brace_law_violation_exits_1(tmp_path, capsys):
    # brace and verify both take a brace's violation as their verdict: the
    # brace law, a dot table that is no group, two neutral elements
    s3 = yb.symmetric_group(3)
    z6 = yb.cyclic_group(6)
    cases = [
        ({"n": 6, "dot": [list(r) for r in s3.table], "circle": [list(r) for r in z6.table]},
         "brace-law fails at (1, 1, 1)"),
        ({"dot": [[0, 0], [1, 1]], "circle": [[0, 1], [1, 0]]},
         "dot-group fails at ('table row 0 is not a permutation of 0..1',)"),
        ({"dot": [[0, 1], [1, 0]], "circle": [[1, 0], [0, 1]]}, "neutral-element fails at (0, 1)"),
    ]
    for data, message in cases:
        path = write(tmp_path, "bad.json", data)
        for command in ("brace", "verify"):
            assert main([command, path]) == 1, command
            captured = capsys.readouterr()
            assert captured.out == "", command
            assert captured.err.splitlines() == [f"violation: {message}"], command


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
    # the tests' oracles share no code with the library: oracles.py imports
    # only the standard library, at any depth of its syntax tree
    with open(os.path.join(os.path.dirname(__file__), "oracles.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # a relative import names no standard module
            imported.add("." if node.level else node.module.split(".")[0])
    assert imported and imported <= sys.stdlib_module_names, imported


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


def test_every_private_helper_is_referenced():
    # a module-level def or class named _x is referenced somewhere in the
    # package outside its own definition, as a name, an attribute or an
    # imported name, so merging two helpers leaves no unused copy behind
    package = os.path.dirname(os.path.abspath(cli.__file__))
    trees = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                trees[name[:-3]] = ast.parse(fh.read())

    def references(root):
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.alias):
                yield node.name

    everywhere = [name for tree in trees.values() for name in references(tree)]
    unused = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and everywhere.count(node.name) == list(references(node)).count(node.name)
    ]
    assert not unused


def test_readme_library_example_holds():
    # every expression of the README's Library example that ends in a
    # "# value" comment has that value as its repr; the rest is run in order
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    lines, namespace, checked = code.splitlines(), {}, 0
    for stmt in ast.parse(code).body:
        tail = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
        if isinstance(stmt, ast.Expr) and tail.startswith("# "):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert repr(value) == tail[2:], ast.unparse(stmt)
            checked += 1
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert checked == 6


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


def test_readme_names_only_helpers_that_exist():
    # README names private helpers as `module._helper`; each must be an
    # attribute of that library module (namedtuple's own methods aside)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        cited = set(re.findall(r"`(\w+)\.(_\w+)", fh.read()))
    cited -= {(m, name) for m, name in cited if name in ("_make", "_replace", "_fields", "_asdict")}
    assert cited
    missing = [f"{m}.{name}" for m, name in sorted(cited)
               if not hasattr(sys.modules.get(f"yangbaxter.{m}"), name)]
    assert not missing, missing
