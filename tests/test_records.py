"""The library's records: named tuples with read-only fields, built by
position or by keyword, with cached properties kept per instance."""

from __future__ import annotations

import functools
import os
import subprocess
import sys

import pytest

import yangbaxter as yb
from yangbaxter import brace, cli, groups, solution, unions
from yangbaxter.retraction import multipermutation_level, permutation_groups, retraction


def _samples():
    """One record of each record class, each built the way the library
    builds it where it has a builder."""
    s = unions.union_to_solution(unions.enumerate_2reductive(3)[-1])
    b = yb.z2n_brace(3)
    u = unions.solution_to_union(s).union
    census = cli.build_census(3)
    return [
        groups.cyclic_group(3),
        groups.cyclic_group(3).table_kernel,
        groups.AbelianGroup((2, 4)),
        groups.PermGroup(degree=3, generators=((1, 2, 0),)),
        solution.Violation("sigma-row", (0,)),
        s,
        solution.is_2reductive(s),
        retraction(s),
        multipermutation_level(s),
        permutation_groups(s),
        u,
        unions.solution_to_union(s),
        unions.unions_isomorphic(u, u),
        unions.union_predicates(u),
        unions.injectivity_checks(u),
        b,
        brace.socle(b),
        brace.socle_series(b),
        brace.kernel_ideals(b),
        brace.reductivity_profile(b),
        # census_keys' runs are lists; as tuples the record hashes
        cli.CensusRecord(census.n, tuple((t, tuple(r)) for t, r in census.cells)),
    ]


SAMPLES = _samples()
CACHED = {
    "AbelianGroup": {"units", "automorphisms", "as_finite_group"},
    "PermGroup": {"elements"},
    "FiniteGroup": {"table_kernel", "_gens", "cycles", "is_abelian"},
    "FiniteSolution": {
        "sigma_classes", "tau_classes", "distinct_rows", "class_kernel", "reductivity",
        "commuting_rows",
    },
    "SkewBrace": {"lambdas", "lambda_kernel", "rhos", "rho_rows"},
}


def test_samples_cover_every_record_class():
    # yangbaxter.retraction is the function the package exports, not the module
    names = ("groups", "solution", "retraction", "unions", "brace", "cli")
    records = {
        cls for name in names
        for module in [sys.modules[f"yangbaxter.{name}"]]
        for cls in vars(module).values()
        if isinstance(cls, type) and issubclass(cls, tuple) and hasattr(cls, "_fields")
        and cls.__module__ == module.__name__
    }
    assert {type(r) for r in SAMPLES} == records


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_record_behaves_as_a_frozen_record(record):
    cls = type(record)
    by_keyword = cls(**dict(zip(cls._fields, record)))
    by_position = cls(*record)
    assert by_keyword == by_position == record
    assert by_position is not record and hash(by_position) == hash(record)
    # a named tuple: equal to, and hashed as, the plain tuple of its fields
    assert record == tuple(record) and hash(record) == hash(tuple(record))
    assert repr(record).startswith(f"{cls.__name__}({cls._fields[0]}=")
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    cached = {
        name for name, value in vars(cls).items()
        if isinstance(value, functools.cached_property)
    }
    assert cached == CACHED.get(cls.__name__, set())
    for name in cached:
        first = getattr(record, name)
        assert getattr(record, name) is first and vars(record)[name] is first


@pytest.mark.parametrize("factors, message", [
    ((2, 3), "factor 2 does not divide 3"),
    ((1,), "invariant factor 1 is below 2"),
])
def test_abelian_group_rejects_factors_out_of_invariant_form(factors, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        groups.AbelianGroup(factors)
    with pytest.raises(ValueError, match=f"^{message}$"):
        groups.AbelianGroup(factors=factors)


@pytest.mark.parametrize("flags", [[], ["-S"]], ids=["site", "no-site"])
def test_import_loads_neither_dataclasses_nor_inspect(flags):
    # the records are named tuples, so importing the CLI pulls in neither
    # dataclasses nor what it imports, and the CLI reads its command line
    # without argparse; with -S no site hook loads them first
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import yangbaxter.cli\n"
        "unwanted = {'argparse', 'dataclasses', 'inspect'}\n"
        "print(' '.join(sorted(unwanted & (set(sys.modules) - before))))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
