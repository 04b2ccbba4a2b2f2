"""Exact lower algebraic K-theory invariants for the finite subgroups of
sphere braid groups, plus a mechanically verified amalgam model of the
four-strand group.

`import lowk` loads the finite-group modules (groups, galois, census,
fconj, lowerk, report).  The names of the four-strand model's modules,
amalgam, b4 and classify, are listed in `_LAZY` and load on first use
(PEP 562), so a process that only computes finite-group invariants never
compiles or runs the B4 model.  Once one of those modules is imported, by
lowk or by anyone, its names are bound here as plain attributes, just as an
eager `from .b4 import ...` would bind them: a tool that patches lowk's
namespaces (the benchmark's tracer) finds and restores them there.
"""

import importlib
import sys
import types

from .census import (
    ClassCensus,
    GroupTooLargeError,
    check_2p_condition,
    check_milnor,
    check_p2_condition,
    conjugacy_classes,
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

# exported name -> the submodule that defines it, imported on first use
_LAZY = {
    "AmalgamElement": "amalgam", "AmalgamError": "amalgam", "AmalgamSpec": "amalgam",
    "conjugate_subgroup": "amalgam", "has_finite_order": "amalgam", "invert": "amalgam",
    "multiply": "amalgam", "power": "amalgam", "reduce_word": "amalgam",
    "B4Model": "b4", "CheckResult": "b4", "FreeProductWord": "b4", "RSResult": "b4",
    "build_b4": "b4", "build_gamma_specs": "b4", "pi": "b4", "psi": "b4",
    "reidemeister_schreier": "b4", "rho": "b4", "verify_all": "b4", "verify_suite": "b4",
    "SubgroupDescriptor": "classify", "maximal_finite_subgroups": "classify",
    "maximal_vc_classes_b4": "classify", "vc_classes_b4": "classify",
    "virtually_cyclic_classes": "classify", "virtually_cyclic_classes_odd": "classify",
}


class _Package(types.ModuleType):
    """The import system sets each submodule on its package as soon as the
    submodule has run; at that moment, before anything can patch it, the
    submodule's `_LAZY` names are bound here too."""

    def __setattr__(self, key: str, value: object) -> None:
        super().__setattr__(key, value)
        for name, module in _LAZY.items():
            if module == key:
                super().__setattr__(name, getattr(value, name))


sys.modules[__name__].__class__ = _Package


def __getattr__(name: str) -> object:
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
