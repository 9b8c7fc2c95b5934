"""Finite set-theoretic solutions of the braid relation and skew left braces:
construction, verification, classification, and census enumeration.

The exported names are read lazily (PEP 562): ``import yangbaxter`` loads no
submodule, and the first read of a name imports the submodule that defines it.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {name: module for module, names in [
    ("groups", """AbelianGroup FiniteGroup PermGroup abelian_group
        abelian_groups_of_order cyclic_group dihedral_group direct_product_group
        element_order invariant_factors is_normal perm_group_closure
        quaternion_group quotient small_groups subgroup_generated symmetric_group"""),
    ("solution", """FiniteSolution TwoReductivity VerificationError Violation
        has_lri inverse_solution is_2reductive is_involutive is_left_distributive
        is_permutational is_projection is_right_distributive is_square_free
        permutational_solution projection_solution relabel
        satisfies_condition_star solution_from_dict solution_to_text
        solutions_isomorphic parse_solution_text validate_tables verify"""),
    ("retraction", """MultipermutationResult PermutationGroups
        multipermutation_level permutation_groups retraction"""),
    ("unions", """AbelianUnion InjectivityReport UnionIsomorphism UnionPredicates
        abelian_union canonical_form enumerate_2reductive injectivity_checks
        opposite_union solution_to_union union_from_dict union_predicates
        union_to_solution unions_isomorphic"""),
    ("brace", """BraceError Ideal KernelReport ReductivityProfile SkewBrace
        SocleSeries almost_trivial_brace associated_solution brace_from_dict
        dihedral_example_brace is_biskew is_ideal kernel_ideals opposite_brace
        product_brace quotient_brace reductivity_profile socle socle_series
        trivial_brace verify_brace z2n_brace z2n_dual_brace"""),
] for name in names.split()}
# submodules that ``yangbaxter.<name>`` reaches without importing them first
_SUBMODULES = ("groups", "solution", "unions", "brace")
__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})


class _Package(ModuleType):
    def __setattr__(self, name, value):
        # importing a submodule binds it on the package; an export of the
        # same name (retraction) stays the exported object
        if not (name in _EXPORTS and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
