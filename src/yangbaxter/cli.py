"""Command-line front end: verification, census generation, classification,
and brace analysis.

Exit codes: 0 = success / property holds, 1 = mathematical violation
(or "not isomorphic" for classify), 2 = usage or parse error.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
from collections import namedtuple
from math import prod
from typing import Optional, Sequence, TextIO

from . import brace as braces
from . import solution as solutions
from . import unions
from .groups import _gather
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


def write_solution(s: FiniteSolution, stream: TextIO) -> None:
    """json.dumps(s.to_dict()) and a newline, byte for byte, from the strings
    of 0..n-1 made once; each distinct row (s.sigma_classes, tau_classes) is
    laid out once, by one gather."""
    digits = list(map(str, range(s.n)))

    def table(rows, classes) -> str:
        text = ["[" + ", ".join(_gather(rows[r])(digits)) + "]" for r in classes[0]]
        return "[" + ", ".join(map(text.__getitem__, classes[1])) + "]"

    sigma, tau = table(s.sigma, s.sigma_classes), table(s.tau, s.tau_classes)
    stream.write(f'{{"n": {s.n}, "sigma": {sigma}, "tau": {tau}}}\n')


# ---------------------------------------------------------------------------
# Input detection


def load_payload(path: str):
    """Returns ("solution" | "brace" | "union", object).

    The file is read as UTF-8, a leading byte-order mark dropped.  A file
    whose first non-blank character is "{" is read as JSON, any other as a
    solution in the text format.  A file that cannot be read or parsed
    raises ValueError("path: reason"); well-formed tables that break an
    axiom raise VerificationError (BraceError for a brace).
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
        except (RecursionError, ValueError) as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from None
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
    except VerificationError:
        raise
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Reports


def solution_report(s: FiniteSolution, out: TextIO, mp=None, involutive=None) -> None:
    """mp is multipermutation_level(s) and involutive is_involutive(s), each
    computed here unless the caller has it (the level in closed form with
    red1-red4); the identities are s.reductivity.  As s is a solution, braid
    identities (i) and (ii) make left and right distributivity red3 and red4."""
    red = s.reductivity
    lines = [
        ("n", s.n),
        ("involutive", solutions.is_involutive(s) if involutive is None else involutive),
        ("square_free", solutions.is_square_free(s)),
        ("permutational", solutions.is_permutational(s)),
        ("projection", solutions.is_projection(s)),
        ("lri", solutions.has_lri(s)),
        ("left_distributive", red.red3),
        ("right_distributive", red.red4),
        ("red1", red.red1),
        ("red2", red.red2),
        ("red3", red.red3),
        ("red4", red.red4),
        ("two_reductive", red.holds),
        ("condition_star", solutions.satisfies_condition_star(s)),
        ("mp_level", (mp or multipermutation_level(s)).describe()),
    ]
    for key, value in lines:
        out.write(f"{key}: {value}\n")


def brace_report(b: braces.SkewBrace, full: bool, out: TextIO) -> braces.ReductivityProfile:
    """Writes the report of b; returns the profile it is rendered from."""
    profile = braces.reductivity_profile(b)
    red, tower, kernels = profile.reductivity, profile.multipermutation, braces.kernel_ideals(b)
    # The lambda_hom and bi_skew lines are read off the identities, by theorems:
    # lambda is a dot homomorphism iff red1 (from lambda_{x o y} =
    # lambda_x lambda_y and x o y = x . lambda_x(y)), rho one iff red2, lambda
    # an anti-homomorphism iff red3, rho one iff red4; and b is bi-skew iff
    # lambda is an anti-homomorphism (Childs, New York J. Math. 25, 2019).
    # The associated solution is involutive iff the dot group is abelian.
    # The socle lines are read off Soc(B) = Ker lambda .cap. Ker rho and the
    # retraction tower, which is the socle series as Ret(r_B) is r_{B/Soc(B)}.
    out.write(f"n: {b.n}\n")
    out.write(f"dot_abelian: {b.dot.is_abelian}\n")
    out.write(f"bi_skew: {red.red3}\n")
    out.write(f"socle: {list(kernels.socle)}\n")
    out.write(f"socle_series_sizes: {list(tower.tower_sizes)}\n")
    out.write(f"nilpotency: {braces._describe_nilpotency(tower.level, tower.tower_sizes[-1])}\n")
    out.write(f"ker_lambda: {list(kernels.ker_lambda)} ideal: {kernels.ker_lambda_is_ideal}\n")
    out.write(f"ker_rho: {list(kernels.ker_rho)} ideal: {kernels.ker_rho_is_ideal}\n")
    out.write(
        "reductivity: "
        f"red1={red.red1} red2={red.red2} red3={red.red3} red4={red.red4}\n"
    )
    out.write(
        "lambda_hom: "
        f"hom={red.red1} antihom={red.red3} rho_hom={red.red2} rho_antihom={red.red4}\n"
    )
    out.write(f"two_reductive: {red.holds}\n")
    if full:
        out.write("associated_solution:\n")
        solution_report(profile.solution, out, tower, b.dot.is_abelian)
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
    except VerificationError as exc:
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


def cmd_verify(file: str) -> int:
    kind, obj = _load(file, violations=VerificationError)
    if kind == "union":
        obj = unions.union_to_solution(obj)
        kind = "solution"
    print(f"kind: {kind}")
    if kind == "solution":
        solution_report(obj, sys.stdout)
    else:
        brace_report(obj, full=False, out=sys.stdout)
    return EXIT_OK


def cmd_enumerate(n: int, out: Optional[str] = None) -> int:
    raw_cap = os.environ.get(ENUM_CAP_ENV, str(DEFAULT_ENUM_CAP))
    try:
        cap = int(raw_cap)
    except ValueError:
        cap = 0
    if cap < 1:
        raise _Exit(EXIT_USAGE, f"error: {ENUM_CAP_ENV}: {raw_cap!r} is not a positive integer")
    if not 1 <= n <= cap:
        raise _Exit(
            EXIT_USAGE, f"error: n must be between 1 and {cap} (override with {ENUM_CAP_ENV})"
        )
    if out and n > CENSUS_OUT_MAX_N:
        raise _Exit(
            EXIT_USAGE,
            f"error: --out writes each entry as one digit, so n must be at most "
            f"{CENSUS_OUT_MAX_N}",
        )
    with contextlib.ExitStack() as stack:
        stream = stack.enter_context(_create(out)) if out else None
        record = build_census(n)
        if stream is not None:
            write_census(record, stream)
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


def cmd_classify(file1: str, file2: str) -> int:
    kind1, obj1 = _load(file1, ("solution", "union"))
    kind2, obj2 = _load(file2, ("solution", "union"))
    u1, u2 = _as_union(kind1, obj1), _as_union(kind2, obj2)
    if u1 is not None and u2 is not None:
        witness = unions.unions_isomorphic(u1, u2)
        if witness is None:
            print("not isomorphic")
            return EXIT_VIOLATION
        print(f"isomorphic: pi={list(witness.pi)} psis={[list(p) for p in witness.psis]}")
        return EXIT_OK
    # 2-reductivity and the carrier's size are isomorphism invariants, and
    # here at most one input is 2-reductive; a union always is
    if u1 is not None or u2 is not None or obj1.n != obj2.n:
        print("not isomorphic")
        return EXIT_VIOLATION
    # neither is 2-reductive, so both are solutions: brute force fits only n <= 6
    if obj1.n > 6:
        raise _Exit(
            EXIT_USAGE,
            "error: inputs are not 2-reductive and too large for brute-force "
            "isomorphism (n > 6)",
        )
    phi = solutions.solutions_isomorphic(obj1, obj2)
    if phi is None:
        print("not isomorphic")
        return EXIT_VIOLATION
    print(f"isomorphic: phi={list(phi)}")
    return EXIT_OK


def cmd_brace(file: str, report: str = "summary", solution_out: Optional[str] = None) -> int:
    _, b = _load(file, ("brace",), violations=braces.BraceError)
    with contextlib.ExitStack() as stack:
        sol_out = stack.enter_context(_create(solution_out)) if solution_out else None
        profile = brace_report(b, full=report == "full", out=sys.stdout)
        if sol_out is not None:
            write_solution(profile.solution, sol_out)
    return EXIT_OK


# The commands: each one's function, positional arguments with their types,
# and options with their values' metavariables (a|b takes a or b only).
_COMMANDS = {
    "verify": (cmd_verify, {"FILE": str}, {}),
    "enumerate": (cmd_enumerate, {"N": int}, {"--out": "PATH"}),
    "classify": (cmd_classify, {"FILE1": str, "FILE2": str}, {}),
    "brace": (cmd_brace, {"FILE": str}, {"--report": "summary|full", "--solution-out": "PATH"}),
}


def _usage(name: str) -> str:
    _, positionals, options = _COMMANDS[name]
    flags = [f"[{flag} {meta}]" for flag, meta in options.items()]
    return " ".join(["yangbaxter", name, *positionals, *flags])


def _parse(argv: Sequence[str]):
    """The function and keyword arguments of a command line, read against
    _COMMANDS as argparse read it (README, "Command line"); --help prints the
    usage and raises SystemExit(0), a malformed line raises _Exit."""
    prog, command, kwargs, unknown, dashed = "yangbaxter", None, {}, [], False
    positionals, options, args = [("COMMAND", None)], {}, list(reversed(argv))

    def fail(reason: str):
        raise _Exit(EXIT_USAGE, f"error: {prog}: {reason}")

    def is_option(arg: str) -> bool:  # "-" and negative integers are values
        return arg[:1] == "-" and arg != "-" and not arg[1:].isdecimal()

    while args:
        arg = args.pop()
        if arg == "--" and not dashed:
            dashed = True
        elif not dashed and is_option(arg):
            flag, eq, value = arg.partition("=")
            known = [o for o in ("-h", "--help", *options) if o.startswith(flag)]
            if len(known) != 1:
                unknown.append(arg)
            elif known[0] in ("-h", "--help"):
                if eq:
                    fail(f"argument -h/--help: ignored explicit argument {value!r}")
                names = [command] if command else _COMMANDS
                print("usage: " + "\n       ".join(map(_usage, names)))
                raise SystemExit(0)
            else:
                flag, choices = known[0], options[known[0]].split("|")
                if not eq and (not args or is_option(args[-1])):
                    fail(f"argument {flag}: expected one argument")
                value = value if eq else args.pop()
                if len(choices) > 1 and value not in choices:
                    fail(f"argument {flag}: invalid choice: {value!r} (choose {options[flag]})")
                kwargs[flag[2:].replace("-", "_")] = value
        elif command is None:
            if arg not in _COMMANDS:
                fail(f"invalid choice: {arg!r} (choose from {', '.join(_COMMANDS)})")
            command, prog, (_, positionals, options) = arg, f"yangbaxter {arg}", _COMMANDS[arg]
            positionals = list(positionals.items())
        elif positionals:
            (name, kind), *positionals = positionals
            try:
                kwargs[name.lower()] = kind(arg)
            except ValueError:
                fail(f"argument {name}: invalid {kind.__name__} value: {arg!r}")
        else:
            unknown.append(arg)
    if positionals:
        fail(f"the following arguments are required: {', '.join(n for n, _ in positionals)}")
    if unknown:
        fail(f"unrecognized arguments: {' '.join(unknown)}")
    return _COMMANDS[command][0], kwargs


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        func, kwargs = _parse(sys.argv[1:] if argv is None else argv)
        return func(**kwargs)
    except _Exit as exc:
        code, message = exc.args
        print(message, file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
