"""Command-line front end: verification, census generation, classification,
and brace analysis.

Exit codes: 0 = success / property holds, 1 = mathematical violation
(or "not isomorphic" for classify), 2 = usage or parse error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from collections import namedtuple
from math import prod
from typing import Optional, Sequence, TextIO

from . import brace as braces
from . import solution as solutions
from . import unions
from .retraction import multipermutation_level
from .solution import FiniteSolution, VerificationError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

# n = 8 has 398,915,014 classes: the census holds them, but lists ~40 GB
DEFAULT_ENUM_CAP = 7
ENUM_CAP_ENV = "YANGBAXTER_ENUM_CAP"
# write_census writes an entry as one digit: blocks of order at most 10
CENSUS_OUT_MAX_N = 10


class CensusRecord(namedtuple("CensusRecord", "n cells")):
    """A census as unions.census_keys' cells: each cell's block types and
    its C-runs, as unions.enumerate_cell returns them.  by_orbit_type and
    count are read from the run lengths; unions.unions_of_cells builds the
    unions themselves."""

    n: int
    cells: tuple[unions.CensusCell, ...]

    @property
    def by_orbit_type(self) -> dict[str, int]:
        return {
            unions.cell_label(types): sum(len(run) for _, run in runs) // len(types) ** 2
            for types, runs in self.cells
            if runs
        }

    @property
    def count(self) -> int:
        return sum(self.by_orbit_type.values())

    def summary_dict(self) -> dict:
        return {
            "n": self.n,
            "count": self.count,
            "by_orbit_type": dict(sorted(self.by_orbit_type.items())),
        }


def build_census(n: int) -> CensusRecord:
    return CensusRecord(n=n, cells=tuple(unions.census_keys(n)))


# the ASCII digit of each byte value below 10, for the census writer
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")
# stands for a line's C half in _d_lines' text; no census line holds it
_PLACEHOLDER = b"@"


def write_census(record: CensusRecord, stream: TextIO) -> None:
    """JSON-lines: one canonical union per line, then one summary record.

    Each line is a union's to_dict, compact.  Every entry is below its
    block's order, so with blocks of order at most 10 each is one digit and
    all lines of a C-run have one length.  The C's that share a run
    (unions.enumerate_cell) share their D halves too: per cell, each
    distinct run is laid out once by _d_lines, every line's C half left as
    one placeholder byte, and each C-run is written as that text with the
    placeholder replaced by the C half.  The text of one run is written
    at once; runs hold at most 512 lines at n = 6 and 4,096 at n = 7, so the
    text in flight stays small.  A cell with a block of order above 10
    raises ValueError, before anything is written.
    """
    for types, _ in record.cells:
        if any(prod(t) > 10 for t in types):
            raise ValueError(
                f"cell {unions.cell_label(types)}: entries of a block of order above 10 "
                "take more than one digit"
            )
    encode = json.JSONEncoder(separators=(",", ":")).encode
    for types, runs in record.cells:
        k = len(types)
        row = "[" + ",".join(["%d"] * k) + "]"
        matrix = "[" + ",".join([row] * k) + "]"
        head = f'{{"groups":{encode([list(t) for t in types])},"C":'
        d_half = _PLACEHOLDER + b',"D":' + (matrix % ((0,) * (k * k)) + "}\n").encode()
        laid = {}
        for c, run in runs:
            if run not in laid:
                laid[run] = _d_lines(run, d_half)
            stream.write(laid[run].replace(_PLACEHOLDER, (head + matrix % c).encode()).decode())
    stream.write(encode(record.summary_dict()) + "\n")


def _d_lines(run: bytes, d_half: bytes) -> bytes:
    """d_half once per D of the run, with the D's entries as its digits.

    d_half is a line's D half with every entry 0.  The run's bytes become
    ASCII digits in one translate, and each D position is filled for every
    line at once by one strided slice assignment: k^2 slice operations per
    run, not one conversion per entry.
    """
    offsets = [at for at, ch in enumerate(d_half) if ch == ord("0")]
    width, size = len(offsets), len(d_half)
    text = bytearray(d_half * (len(run) // width))
    digits = run.translate(_DIGITS)
    for p, at in enumerate(offsets):
        text[at::size] = digits[p::width]
    return bytes(text)


# ---------------------------------------------------------------------------
# Input detection


def load_payload(path: str):
    """Returns ("solution" | "brace" | "union", object).

    The file is read as UTF-8, a leading byte-order mark dropped.  A file
    whose first non-blank character is "{" is read as JSON, any other as a
    solution in the text format.  Malformed input raises
    ValueError("path: field: reason"); well-formed tables that break an
    axiom raise VerificationError or BraceError.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None
    if not text.lstrip().startswith("{"):
        kind, load, data = "solution", solutions.parse_solution_text, text
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
        if not isinstance(data, dict):
            raise ValueError(f"{path}: expected a JSON object")
        if "sigma" in data and "tau" in data:
            kind, load = "solution", solutions.solution_from_dict
        elif "dot" in data and "circle" in data:
            kind, load = "brace", braces.brace_from_dict
        elif "groups" in data and "C" in data and "D" in data:
            kind, load = "union", unions.union_from_dict
        else:
            raise ValueError(
                f"{path}: unrecognized schema (expected sigma/tau, dot/circle, or groups/C/D keys)"
            )
    try:
        return kind, load(data)
    except (VerificationError, braces.BraceError):
        raise
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Reports


def solution_report(s: FiniteSolution, out: TextIO, mp=None) -> None:
    """mp is multipermutation_level(s), computed here unless the caller
    already has it; the identities are the ones s holds (reductivity)."""
    red = s.reductivity
    mp = mp or multipermutation_level(s)
    lines = [
        ("n", s.n),
        ("involutive", solutions.is_involutive(s)),
        ("square_free", solutions.is_square_free(s)),
        ("permutational", solutions.is_permutational(s)),
        ("projection", solutions.is_projection(s)),
        ("lri", solutions.has_lri(s)),
        ("left_distributive", solutions.is_left_distributive(s)),
        ("right_distributive", solutions.is_right_distributive(s)),
        ("red1", red.red1),
        ("red2", red.red2),
        ("red3", red.red3),
        ("red4", red.red4),
        ("two_reductive", red.holds),
        ("condition_star", solutions.satisfies_condition_star(s)),
        ("mp_level", mp.describe()),
    ]
    for key, value in lines:
        out.write(f"{key}: {value}\n")


def brace_report(b: braces.SkewBrace, full: bool, out: TextIO) -> braces.ReductivityProfile:
    """Writes the report of b; returns the profile it is rendered from."""
    profile = braces.reductivity_profile(b)
    series = profile.series
    # The lambda_hom and bi_skew lines are read off the identities, by theorems:
    # lambda is a dot homomorphism iff red1 (from lambda_{x o y} =
    # lambda_x lambda_y and x o y = x . lambda_x(y)), rho one iff red2, lambda
    # an anti-homomorphism iff red3, rho one iff red4; and b is bi-skew iff
    # lambda is an anti-homomorphism (Childs, New York J. Math. 25, 2019).
    out.write(f"n: {b.n}\n")
    out.write(f"dot_abelian: {b.dot.is_abelian}\n")
    out.write(f"bi_skew: {profile.red3}\n")
    out.write(f"socle: {list(series.socles[0].elements)}\n")
    out.write(f"socle_series_sizes: {[q.n for q in series.quotients]}\n")
    out.write(f"nilpotency: {series.describe()}\n")
    kernels = braces.kernel_ideals(b)
    out.write(f"ker_lambda: {list(kernels.ker_lambda)} ideal: {kernels.ker_lambda_is_ideal}\n")
    out.write(f"ker_rho: {list(kernels.ker_rho)} ideal: {kernels.ker_rho_is_ideal}\n")
    out.write(
        "reductivity: "
        f"red1={profile.red1} red2={profile.red2} "
        f"red3={profile.red3} red4={profile.red4}\n"
    )
    out.write(
        "lambda_hom: "
        f"hom={profile.red1} antihom={profile.red3} "
        f"rho_hom={profile.red2} rho_antihom={profile.red4}\n"
    )
    out.write(f"two_reductive: {profile.all_four}\n")
    if full:
        out.write("associated_solution:\n")
        solution_report(profile.solution, out, profile.multipermutation)
    return profile


# ---------------------------------------------------------------------------
# Subcommands


class _Exit(Exception):
    """Ends a command early; args are the exit code and one line for stderr."""


def _load(path: str, kinds=("solution", "brace", "union"), violations=()):
    """load_payload for a command that takes the given kinds of input.

    An axiom violation of a type in violations is the command's verdict and
    exits 1 with its witness; every other failure exits 2 with one line that
    names the path.
    """
    try:
        kind, obj = load_payload(path)
    except violations as exc:
        raise _Exit(EXIT_VIOLATION, f"violation: {exc.violation}") from None
    except (VerificationError, braces.BraceError) as exc:
        raise _Exit(EXIT_USAGE, f"error: {path}: {exc}") from None
    except ValueError as exc:
        raise _Exit(EXIT_USAGE, f"error: {exc}") from None
    if kind not in kinds:
        raise _Exit(EXIT_USAGE, f"error: {path}: a {kind}, expected a {' or '.join(kinds)}")
    return kind, obj


def _create(path: str) -> TextIO:
    """Opens an output file before the work, so a bad path fails at once."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise _Exit(EXIT_USAGE, f"error: {path}: {exc.strerror}") from None


def cmd_verify(args) -> int:
    violations = (VerificationError, braces.BraceError)
    kind, obj = _load(args.file, violations=violations)
    if kind == "union":
        obj = unions.union_to_solution(obj)
        kind = "solution"
    print(f"kind: {kind}")
    if kind == "solution":
        solution_report(obj, sys.stdout)
    else:
        brace_report(obj, full=False, out=sys.stdout)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    raw_cap = os.environ.get(ENUM_CAP_ENV, str(DEFAULT_ENUM_CAP))
    try:
        cap = int(raw_cap)
    except ValueError:
        cap = 0
    if cap < 1:
        raise _Exit(EXIT_USAGE, f"error: {ENUM_CAP_ENV}: {raw_cap!r} is not a positive integer")
    if not 1 <= args.n <= cap:
        raise _Exit(
            EXIT_USAGE, f"error: n must be between 1 and {cap} (override with {ENUM_CAP_ENV})"
        )
    if args.out and args.n > CENSUS_OUT_MAX_N:
        raise _Exit(
            EXIT_USAGE,
            f"error: --out writes each entry as one digit, so n must be at most "
            f"{CENSUS_OUT_MAX_N}",
        )
    with contextlib.ExitStack() as stack:
        out = stack.enter_context(_create(args.out)) if args.out else None
        record = build_census(args.n)
        if out is not None:
            write_census(record, out)
    print(json.dumps(record.summary_dict()))
    return EXIT_OK


def _as_union(kind: str, obj) -> Optional[unions.AbelianUnion]:
    """The union of a union or solution input; None when it is not 2-reductive."""
    if kind == "union":
        return obj
    try:
        return unions.solution_to_union(obj).union
    except ValueError:
        return None


def cmd_classify(args) -> int:
    kind1, obj1 = _load(args.file1, ("solution", "union"))
    kind2, obj2 = _load(args.file2, ("solution", "union"))
    u1, u2 = _as_union(kind1, obj1), _as_union(kind2, obj2)
    if u1 is not None and u2 is not None:
        witness = unions.unions_isomorphic(u1, u2)
        if witness is None:
            print("not isomorphic")
            return EXIT_VIOLATION
        print(f"isomorphic: pi={list(witness.pi)} psis={[list(p) for p in witness.psis]}")
        return EXIT_OK
    s1 = obj1 if kind1 == "solution" else unions.union_to_solution(obj1)
    s2 = obj2 if kind2 == "solution" else unions.union_to_solution(obj2)
    # 2-reductivity and the carrier's size are isomorphism invariants, and
    # here at most one input is 2-reductive
    if u1 is not None or u2 is not None or s1.n != s2.n:
        print("not isomorphic")
        return EXIT_VIOLATION
    # neither is 2-reductive: brute force is feasible only for small carriers
    if s1.n > 6:
        raise _Exit(
            EXIT_USAGE,
            "error: inputs are not 2-reductive and too large for brute-force "
            "isomorphism (n > 6)",
        )
    phi = solutions.solutions_isomorphic(s1, s2)
    if phi is None:
        print("not isomorphic")
        return EXIT_VIOLATION
    print(f"isomorphic: phi={list(phi)}")
    return EXIT_OK


def cmd_brace(args) -> int:
    _, b = _load(args.file, ("brace",), violations=braces.BraceError)
    with contextlib.ExitStack() as stack:
        sol_out = stack.enter_context(_create(args.solution_out)) if args.solution_out else None
        profile = brace_report(b, full=args.report == "full", out=sys.stdout)
        if sol_out is not None:
            sol_out.write(json.dumps(profile.solution.to_dict()) + "\n")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser, its subcommands' too, whose usage errors end the
    command with exit code 2 and one line, as malformed files do."""

    def error(self, message: str):
        raise _Exit(EXIT_USAGE, f"error: {self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="yangbaxter",
        description=(
            "Verify, enumerate, and classify finite braid-relation solutions "
            "and skew left braces."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="Verify a solution, brace, or union file.")
    p_verify.add_argument("file")
    p_verify.set_defaults(func=cmd_verify)

    p_enum = sub.add_parser(
        "enumerate", help="Census of 2-reductive solutions of a given size."
    )
    p_enum.add_argument("n", type=int)
    p_enum.add_argument("--out", help="Write JSON-lines census to this path.")
    p_enum.set_defaults(func=cmd_enumerate)

    p_cls = sub.add_parser("classify", help="Decide isomorphism of two inputs.")
    p_cls.add_argument("file1")
    p_cls.add_argument("file2")
    p_cls.set_defaults(func=cmd_classify)

    p_brace = sub.add_parser("brace", help="Analyze a skew left brace file.")
    p_brace.add_argument("file")
    p_brace.add_argument("--report", choices=("summary", "full"), default="summary")
    p_brace.add_argument("--solution-out", dest="solution_out")
    p_brace.set_defaults(func=cmd_brace)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built once per process: main runs once per
    request when the library serves several in one process."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except _Exit as exc:
        code, message = exc.args
        print(message, file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
