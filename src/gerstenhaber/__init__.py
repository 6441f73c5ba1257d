"""Exact Gerstenhaber algebra of polydifferential operators on polynomial algebras.

Cochains are finite rational combinations of operators
``x^(a0) d^(a1) (x) ... (x) d^(ap)`` acting on tuples of polynomials.  The
package provides the cup product, the Gerstenhaber bracket and the
Hochschild coboundary; weight and bigrade decompositions with semigroup
subalgebras, ideals, parity involutions and a bigrade filtration; and an
order-by-order star-product solver on the plane.  All arithmetic is exact.
"""

from .cochains import (
    ArityError,
    BasisTerm,
    Cochain,
    DimensionMismatchError,
    Polynomial,
    leibniz_split,
)
from .operations import (
    bracket,
    cup,
    delta_via_bracket,
    hochschild_delta,
    insert,
    multiplication_cochain,
)
from .grading import (
    InconclusiveMembershipError,
    Membership,
    SemigroupSpec,
    SubgroupReport,
    bigrade_of,
    decompose_by_bigrade,
    decompose_by_weight,
    filtration_contains,
    filtration_index,
    in_ideal,
    in_subalgebra,
    project_subalgebra,
    scaling_field,
    semigroup_member,
    subgroup_complement_check,
    theta_apply,
    theta_split,
    weight_of,
)
from .starproduct import (
    BlockSystem,
    CoboundaryError,
    Deformation,
    SelfCheckError,
    SlotOrderCapError,
    associativity_defect,
    build_block,
    obstruction,
    solve_delta,
    solve_maurer_cartan,
    star_apply,
)

__version__ = "0.1.0"

__all__ = [
    "ArityError",
    "BasisTerm",
    "BlockSystem",
    "Cochain",
    "CoboundaryError",
    "Deformation",
    "DimensionMismatchError",
    "InconclusiveMembershipError",
    "Membership",
    "Polynomial",
    "SelfCheckError",
    "SemigroupSpec",
    "SlotOrderCapError",
    "SubgroupReport",
    "associativity_defect",
    "bigrade_of",
    "bracket",
    "build_block",
    "cup",
    "decompose_by_bigrade",
    "decompose_by_weight",
    "delta_via_bracket",
    "filtration_contains",
    "filtration_index",
    "hochschild_delta",
    "in_ideal",
    "in_subalgebra",
    "insert",
    "leibniz_split",
    "multiplication_cochain",
    "obstruction",
    "project_subalgebra",
    "scaling_field",
    "semigroup_member",
    "solve_delta",
    "solve_maurer_cartan",
    "star_apply",
    "subgroup_complement_check",
    "theta_apply",
    "theta_split",
    "weight_of",
]
