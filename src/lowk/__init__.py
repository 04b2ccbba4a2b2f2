"""Exact lower algebraic K-theory invariants for the finite subgroups of
sphere braid groups, plus a mechanically verified amalgam model of the
four-strand group."""

from .amalgam import (
    AmalgamElement,
    AmalgamError,
    AmalgamSpec,
    conjugate_subgroup,
    has_finite_order,
    invert,
    multiply,
    power,
    reduce_word,
)
from .b4 import (
    B4Model,
    CheckResult,
    FreeProductWord,
    RSResult,
    build_b4,
    build_gamma_specs,
    pi,
    psi,
    reidemeister_schreier,
    rho,
    verify_all,
    verify_suite,
)
from .census import (
    ClassCensus,
    GroupTooLargeError,
    check_2p_condition,
    check_milnor,
    check_p2_condition,
    conjugacy_classes,
)
from .classify import (
    SubgroupDescriptor,
    maximal_finite_subgroups,
    maximal_vc_classes_b4,
    vc_classes_b4,
    virtually_cyclic_classes,
    virtually_cyclic_classes_odd,
)
from .fconj import FPartition, f_partition, r_f
from .galois import (
    FieldDescriptor,
    divisors,
    generated_subgroup,
    is_prime,
    mult_order,
    phi_image,
)
from .groups import (
    FamilyTag,
    FiniteGroup,
    GroupConstructionError,
    build_binary_polyhedral,
    build_cyclic,
    build_dicyclic,
    generalized_quaternion,
)
from .lowerk import (
    UNKNOWN,
    AbelianGroupExpr,
    ConsistencyError,
    Unknown,
    UnsupportedFamilyError,
    WedderburnComponent,
    bhs_decompose,
    carter_rank,
    k0_tilde_lookup,
    k_minus_one,
    k_minus_one_torsion,
    lambda_value,
    wedderburn_shape,
    whitehead_rank,
)
from .report import (
    KReport,
    UnsupportedParameterError,
    b4_lower_k_report,
    group_report,
    nil_groups_q8,
)

__version__ = "0.1.0"
