"""semimod: computational workbench for finite B- and F-infinity-modules."""

from .core import (
    CARRIER_CAP,
    Congruence,
    DistributivityReport,
    FinModule,
    Flavor,
    FlavorMismatchError,
    ModuleStructureError,
    PartialOrder,
    ValidationReport,
    Violation,
    congruence_compatibility_witness,
    generated_congruence,
    generated_submodule,
    induced_order,
    irreducible_generators,
    is_distributive_lattice,
    join_irreducibles,
    quotient_with_projection,
    scalar_module,
    submodule_on,
    validate_module,
)
from .free import (
    element_of_support,
    extend_from_generators,
    free_module,
    generator_ids,
    signed_double,
    support_of,
)
from .homs import (
    DEFAULT_BUDGET,
    Budget,
    BudgetExceededError,
    Hom,
    check_hom,
    compose,
    enumerate_homs,
    extension_hom,
    find_left_inverse,
    find_right_inverse,
    identity_hom,
    iter_homs,
    retraction,
    signed_lift,
)
from .families import (
    IndexedLattice,
    canonical_section,
    corner_embedding,
    corner_retraction,
    corner_witness,
    family,
    family_index_pairs,
    rigidity_check,
)
from .matrices import (
    BoolMatrix,
    DistinctRowFactorization,
    DualFactorization,
    distinct_row_factorization,
    dual_factorization,
    dualize_free,
    dualize_hom,
    hom_of_matrix,
    mat_mul,
    matrix_of_hom,
)
from .projective import (
    ProjectivityCertificate,
    canonical_free_cover,
    projectivity_certificate,
)
from .noetherian import (
    CategorySpec,
    FactorizationResult,
    MorphismClass,
    Verdict,
    WitnessReport,
    default_witness_family,
    factors_through,
    hom_catalog,
    witness_verify,
)

__version__ = "0.1.0"
