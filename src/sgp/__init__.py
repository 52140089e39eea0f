"""Exact arithmetic for numerical semigroups.

Gap-set representation and Apery analysis, type-(N, gamma) classification,
closed-form genus bounds, gap-sum obstructions against Weierstrass
realizability, and constructive generators for the families that defeat
the pairwise-sum criterion.
"""

from . import errors
from .bounds import (BoundReport, castelnuovo_c, compositum_bound,
                     coprime_lower_bound, divisor_condition, evaluate,
                     jenkins_bound, rho1, rho2, rho3, rho4, rho4_u, rho5,
                     total_ramification_threshold)
from .classify import (SymmetryProfile, TypeVerdict, arithmetic_cover_criterion,
                       exclusive_types, is_prime, is_type_by_genus,
                       is_type_by_tail, leading_gcd, project_by_n,
                       symmetry_profile, type_test, type_verdict)
from .core import (DEFAULT_GENUS_CAP, AperyProfile, NumericalSemigroup,
                   apery_profile, descendants, enumerate_genus_range,
                   format_semigroup, from_gaps, from_generators,
                   natural_gamma, parse_semigroup, tree_children)
from .families import (Claim, FamilyResult, buchweitz_family, cover_family,
                       superelliptic_extremal, superelliptic_sharp,
                       superelliptic_spurious)
from .obstruction import (INCONCLUSIVE, NOT_WEIERSTRASS, GapSumProfile, bc_test,
                          gap_sum_profile, pair_sum_extras, pairing_obstruction)

__version__ = "0.1.0"
