"""Command-line front end: verification, census generation, classification,
and brace analysis.

Exit codes: 0 = success / property holds, 1 = mathematical violation
(or "not isomorphic" for classify), 2 = usage or parse error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional, Sequence, TextIO

from . import brace as braces
from . import solution as solutions
from . import unions
from .retraction import multipermutation_level
from .solution import FiniteSolution, VerificationError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

DEFAULT_ENUM_CAP = 8
ENUM_CAP_ENV = "YANGBAXTER_ENUM_CAP"


@dataclass(frozen=True)
class CensusRecord:
    n: int
    count: int
    by_orbit_type: dict[str, int]
    entries: tuple[unions.AbelianUnion, ...]

    def __post_init__(self):
        if self.count != len(self.entries) or self.count != sum(
            self.by_orbit_type.values()
        ):
            raise ValueError("census record counts are inconsistent")

    def summary_dict(self) -> dict:
        return {
            "n": self.n,
            "count": self.count,
            "by_orbit_type": dict(sorted(self.by_orbit_type.items())),
        }


def build_census(n: int, jobs: int = 1) -> CensusRecord:
    entries = unions.enumerate_2reductive(n, jobs=jobs)
    by_type: dict[str, int] = {}
    for u in entries:
        label = u.orbit_type_label()
        by_type[label] = by_type.get(label, 0) + 1
    return CensusRecord(n=n, count=len(entries), by_orbit_type=by_type, entries=entries)


def write_census(record: CensusRecord, stream: TextIO) -> None:
    """JSON-lines: one canonical union per line, then one summary record."""
    for u in record.entries:
        stream.write(json.dumps(u.to_dict(), separators=(",", ":")) + "\n")
    stream.write(json.dumps(record.summary_dict(), separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# Input detection


def load_payload(path: str, fmt: str = "auto"):
    """Returns ("solution" | "brace" | "union", object).

    Malformed input raises ValueError("path: field: reason"); well-formed
    tables that break an axiom raise VerificationError or BraceError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if fmt == "text" or (fmt == "auto" and not text.lstrip().startswith("{")):
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


def solution_report(s: FiniteSolution, out: TextIO) -> None:
    red = solutions.is_2reductive(s)
    mp = multipermutation_level(s)
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


def brace_report(b: braces.SkewBrace, full: bool, out: TextIO) -> None:
    out.write(f"n: {b.n}\n")
    out.write(f"dot_abelian: {b.dot.is_abelian}\n")
    out.write(f"bi_skew: {braces.is_biskew(b)}\n")
    soc = braces.socle(b)
    out.write(f"socle: {list(soc.elements)}\n")
    series = braces.socle_series(b)
    out.write(f"socle_series_sizes: {[q.n for q in series.quotients]}\n")
    out.write(f"nilpotency: {series.describe()}\n")
    kernels = braces.kernel_ideals(b)
    out.write(f"ker_lambda: {list(kernels.ker_lambda)} ideal: {kernels.ker_lambda_is_ideal}\n")
    out.write(f"ker_rho: {list(kernels.ker_rho)} ideal: {kernels.ker_rho_is_ideal}\n")
    profile = braces.reductivity_profile(b)
    out.write(
        "reductivity: "
        f"red1={profile.red1} red2={profile.red2} "
        f"red3={profile.red3} red4={profile.red4}\n"
    )
    out.write(
        "lambda_hom: "
        f"hom={profile.lambda_dot_hom} antihom={profile.lambda_dot_antihom} "
        f"rho_hom={profile.rho_dot_hom} rho_antihom={profile.rho_dot_antihom}\n"
    )
    out.write(f"two_reductive: {profile.all_four}\n")
    if full:
        s = braces.associated_solution(b)
        out.write("associated_solution:\n")
        solution_report(s, out)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_verify(args) -> int:
    try:
        kind, obj = load_payload(args.file, args.format)
    except VerificationError as exc:
        print(f"violation: {exc.violation}", file=sys.stderr)
        return EXIT_VIOLATION
    except braces.BraceError as exc:
        print(f"violation: {exc.violation}", file=sys.stderr)
        return EXIT_VIOLATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
        print(f"error: {ENUM_CAP_ENV}: {raw_cap!r} is not an integer", file=sys.stderr)
        return EXIT_USAGE
    if not 1 <= args.n <= cap:
        print(
            f"error: n must be between 1 and {cap} "
            f"(override with {ENUM_CAP_ENV})",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.jobs < 1:
        print(f"error: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return EXIT_USAGE
    with contextlib.ExitStack() as stack:
        out = None
        if args.out:
            # opened before the census is built, so a bad path fails at once
            try:
                out = stack.enter_context(open(args.out, "w", encoding="utf-8"))
            except OSError as exc:
                print(f"error: {args.out}: {exc.strerror}", file=sys.stderr)
                return EXIT_USAGE
        record = build_census(args.n, jobs=args.jobs)
        if out is not None:
            write_census(record, out)
    print(json.dumps(record.summary_dict()))
    return EXIT_OK


def _as_union(kind: str, obj) -> Optional[unions.AbelianUnion]:
    if kind == "union":
        return obj
    if kind == "solution":
        if solutions.is_2reductive(obj).holds:
            return unions.solution_to_union(obj).union
    return None


def cmd_classify(args) -> int:
    try:
        kind1, obj1 = load_payload(args.file1, "auto")
        kind2, obj2 = load_payload(args.file2, "auto")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if "brace" in (kind1, kind2):
        print("error: classify expects solutions or unions", file=sys.stderr)
        return EXIT_USAGE
    u1, u2 = _as_union(kind1, obj1), _as_union(kind2, obj2)
    if u1 is not None and u2 is not None:
        witness = unions.unions_isomorphic(u1, u2)
        if witness is None:
            print("not isomorphic")
            return EXIT_VIOLATION
        print(f"isomorphic: pi={list(witness.pi)} psis={[list(p) for p in witness.psis]}")
        return EXIT_OK
    # not 2-reductive: brute force is feasible only for small carriers
    s1 = obj1 if kind1 == "solution" else unions.union_to_solution(obj1)
    s2 = obj2 if kind2 == "solution" else unions.union_to_solution(obj2)
    if max(s1.n, s2.n) > 6:
        print(
            "error: inputs are not 2-reductive and too large for brute-force "
            "isomorphism (n > 6)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    phi = solutions.solutions_isomorphic(s1, s2)
    if phi is None:
        print("not isomorphic")
        return EXIT_VIOLATION
    print(f"isomorphic: phi={list(phi)}")
    return EXIT_OK


def cmd_brace(args) -> int:
    try:
        kind, obj = load_payload(args.file, "auto")
    except braces.BraceError as exc:
        print(f"violation: {exc.violation}", file=sys.stderr)
        return EXIT_VIOLATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if kind != "brace":
        print(f"error: {args.file} does not contain a brace", file=sys.stderr)
        return EXIT_USAGE
    brace_report(obj, full=args.report == "full", out=sys.stdout)
    if args.solution_out:
        s = braces.associated_solution(obj)
        with open(args.solution_out, "w", encoding="utf-8") as fh:
            json.dump(s.to_dict(), fh)
            fh.write("\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yangbaxter",
        description=(
            "Verify, enumerate, and classify finite braid-relation solutions "
            "and skew left braces."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="Verify a solution, brace, or union file.")
    p_verify.add_argument("file")
    p_verify.add_argument("--format", choices=("auto", "json", "text"), default="auto")
    p_verify.set_defaults(func=cmd_verify)

    p_enum = sub.add_parser(
        "enumerate", help="Census of 2-reductive solutions of a given size."
    )
    p_enum.add_argument("n", type=int)
    p_enum.add_argument("--jobs", type=int, default=1)
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
