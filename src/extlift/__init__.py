"""Extending and lifting automorphisms of finite group extensions.

Given a finite group G with an abelian normal subgroup N, this package
computes which automorphisms of N extend to G acting trivially on G/N,
which automorphisms of G/N lift to G acting trivially on N, the
cohomology classes obstructing both, prime-local criteria that force a
positive answer, and splitting behavior of the induced sequences of
automorphism groups.
"""

from .abelian import AbelianStructure, abelian_structure
from .catalog import (CATALOG_NAMES, catalog, direct_product,
                      parse_catalog_expression, semidirect_product,
                      shipped_corpus)
from .cohomology import (CohomologyClass, CohomologyGroup, OneCochain,
                         TwoCochain, coboundary_of, is_two_cocycle,
                         trivial_action, two_cocycle_defect)
from .errors import *  # noqa: F401,F403  (re-export the exception hierarchy)
from .errors import __all__ as _error_names
from .groups import (FiniteGroup, GroupAutomorphism, GroupHomomorphism,
                     Subgroup, abelian_normal_subgroups, all_subgroups,
                     automorphism_group, center, derived_subgroup,
                     generating_set, group_from_cayley,
                     group_from_permutations, hom_by_generator_images,
                     is_commuting_automorphism, is_nilpotent,
                     nilpotency_class, quotient_group, sylow_subgroup)
from .reduction import (LocalExtension, SylowCheck, SylowReport,
                        characteristic_restriction, corollary_predicates,
                        index_kill_check, local_extension, quotient_sylows,
                        restrict_to_quotient_sylow, sylow_extend_check,
                        sylow_lift_check, sylow_preimage)
from .splitting import (CommutatorForm, Section, SplitKernels, SplitWitness,
                        canonical_sections, commutator_form,
                        is_form_preserving, is_split_extension,
                        section_search, split_kernels)
from .wells import (Answer, AutSubgroups, CompatiblePair, ExtensionData,
                    WellsTriple, answer, answers, automorphism_from_triple,
                    aut_subgroups, compatible_pairs, derivation_check,
                    extend_automorphism, extension_from,
                    h2_conjugation_action, is_compatible, lambda1, lambda2,
                    lambda_pair, lift_automorphism, lift_pair,
                    random_transversal, triple_of, verify_exactness,
                    wells_cocycle_pair, wells_cocycle_phi, wells_cocycle_theta)

__version__ = "0.1.0"

__all__ = [
    "AbelianStructure", "abelian_structure",
    "CATALOG_NAMES", "catalog", "direct_product", "parse_catalog_expression",
    "semidirect_product", "shipped_corpus",
    "CohomologyClass", "CohomologyGroup", "OneCochain", "TwoCochain",
    "coboundary_of", "is_two_cocycle", "trivial_action",
    "two_cocycle_defect",
    "FiniteGroup", "GroupAutomorphism", "GroupHomomorphism", "Subgroup",
    "abelian_normal_subgroups", "all_subgroups", "automorphism_group",
    "center", "derived_subgroup", "generating_set", "group_from_cayley",
    "group_from_permutations", "hom_by_generator_images",
    "is_commuting_automorphism", "is_nilpotent", "nilpotency_class",
    "quotient_group", "sylow_subgroup",
    "LocalExtension", "SylowCheck", "SylowReport",
    "characteristic_restriction", "corollary_predicates", "index_kill_check",
    "local_extension", "quotient_sylows", "restrict_to_quotient_sylow",
    "sylow_extend_check", "sylow_lift_check", "sylow_preimage",
    "CommutatorForm", "Section", "SplitKernels", "SplitWitness",
    "canonical_sections", "commutator_form", "is_form_preserving",
    "is_split_extension", "section_search", "split_kernels",
    "Answer", "AutSubgroups", "CompatiblePair", "ExtensionData", "WellsTriple",
    "answer", "answers", "automorphism_from_triple", "aut_subgroups",
    "compatible_pairs",
    "derivation_check", "extend_automorphism", "extension_from",
    "h2_conjugation_action", "is_compatible", "lambda1", "lambda2",
    "lambda_pair", "lift_automorphism", "lift_pair", "random_transversal",
    "triple_of", "verify_exactness", "wells_cocycle_pair",
    "wells_cocycle_phi", "wells_cocycle_theta",
    "__version__",
] + list(_error_names)
