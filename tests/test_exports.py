"""The package's lazy exports, each checked in a fresh interpreter: the
names, what a bare import loads, and the name ``retraction`` in every
import order."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import yangbaxter

# the 82 names the package exported when it imported every submodule eagerly
EXPORTS = {
    "groups": (
        "AbelianGroup", "FiniteGroup", "PermGroup", "abelian_group",
        "abelian_groups_of_order", "cyclic_group", "dihedral_group", "direct_product_group",
        "element_order", "invariant_factors", "is_normal", "perm_group_closure",
        "quaternion_group", "quotient", "small_groups", "subgroup_generated",
        "symmetric_group",
    ),
    "solution": (
        "FiniteSolution", "TwoReductivity", "VerificationError", "Violation", "has_lri",
        "inverse_solution", "is_2reductive", "is_involutive", "is_left_distributive",
        "is_permutational", "is_projection", "is_right_distributive", "is_square_free",
        "parse_solution_text", "permutational_solution", "projection_solution", "relabel",
        "satisfies_condition_star", "solution_from_dict", "solution_to_text",
        "solutions_isomorphic", "validate_tables", "verify",
    ),
    "retraction": (
        "MultipermutationResult", "PermutationGroups", "multipermutation_level",
        "permutation_groups", "retraction",
    ),
    "unions": (
        "AbelianUnion", "InjectivityReport", "UnionIsomorphism", "UnionPredicates",
        "abelian_union", "canonical_form", "enumerate_2reductive", "injectivity_checks",
        "opposite_union", "solution_to_union", "union_from_dict", "union_predicates",
        "union_to_solution", "unions_isomorphic",
    ),
    "brace": (
        "BraceError", "Ideal", "KernelReport", "ReductivityProfile", "SkewBrace",
        "SocleSeries", "almost_trivial_brace", "associated_solution", "brace_from_dict",
        "dihedral_example_brace", "is_biskew", "is_ideal", "kernel_ideals", "opposite_brace",
        "product_brace", "quotient_brace", "reductivity_profile", "socle", "socle_series",
        "trivial_brace", "verify_brace", "z2n_brace", "z2n_dual_brace",
    ),
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)
SUBMODULES = ("groups", "solution", "retraction", "unions", "brace")


def fresh(code):
    """What ``code`` prints as JSON, run in a fresh interpreter that imports
    the same package as this test."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(yangbaxter.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_exports_are_the_names_the_submodules_define():
    assert len(NAMES) == 82
    facts = fresh(
        f"EXPORTS = {EXPORTS!r}\n"
        "import yangbaxter as yb\n"
        "submodules = {m: type(getattr(yb, m)).__name__ + ' ' + getattr(yb, m).__name__\n"
        "              for m in ('groups', 'solution', 'unions', 'brace')}\n"
        "star = {}\n"
        "exec('from yangbaxter import *', star)\n"
        "try:\n"
        "    yb.no_such_name\n"
        "    unknown = None\n"
        "except AttributeError as exc:\n"
        "    unknown = str(exc)\n"
        "print(json.dumps({\n"
        "    'all': yb.__all__,\n"
        "    'submodules': submodules,\n"
        "    'foreign': sorted(name for m, names in EXPORTS.items() for name in names\n"
        "                      if getattr(yb, name) is not vars(sys.modules['yangbaxter.' + m])[name]),\n"
        "    'dir': dir(yb),\n"
        "    'unstarred': sorted(name for m, names in EXPORTS.items() for name in names\n"
        "                        if star.get(name) is not getattr(yb, name)),\n"
        "    'unknown': unknown,\n"
        "}))\n"
    )
    assert facts["all"] == NAMES
    # read before any export, so each is reached by its name alone
    assert facts["submodules"] == {m: f"module yangbaxter.{m}"
                                   for m in ("groups", "solution", "unions", "brace")}
    assert facts["foreign"] == []
    assert set(NAMES) <= set(facts["dir"])
    assert facts["unstarred"] == []
    assert facts["unknown"] == "module 'yangbaxter' has no attribute 'no_such_name'"


@pytest.mark.parametrize("statement", [
    "import yangbaxter.retraction",
    "import yangbaxter.cli",
    "from yangbaxter.retraction import retraction",
    "from yangbaxter import retraction",
])
def test_retraction_is_the_exported_function_in_every_import_order(statement):
    # importing the submodule binds it on the package, which keeps the export
    facts = fresh(
        f"{statement}\n"
        "package, module = sys.modules['yangbaxter'], sys.modules['yangbaxter.retraction']\n"
        "print(json.dumps([type(package.retraction).__name__, package.retraction is module.retraction,\n"
        "                  type(module).__name__, module.__name__]))\n"
    )
    assert facts == ["function", True, "module", "yangbaxter.retraction"]


@pytest.mark.parametrize("statement, loaded", [
    ("import yangbaxter", []),
    ("from yangbaxter import verify", ["groups", "solution"]),
    # bench/spans.py's install looks up every submodule in sys.modules after
    # ``from yangbaxter import cli, unions``
    ("import yangbaxter.cli", sorted([*SUBMODULES, "cli"])),
])
def test_cold_import_loads_only_what_it_reads(statement, loaded):
    facts = fresh(
        f"{statement}\n"
        "print(json.dumps(sorted(m.split('.', 1)[1] for m in sys.modules\n"
        "                        if m.startswith('yangbaxter.'))))\n"
    )
    assert facts == loaded
