"""Exact structure-constant toolkit for triassociative algebras.

Validation of the eleven defining identities, derived ideals and centers,
second cohomology with trivial coefficients, multipliers, covers, the
stable center, and machine verification of the low-degree exact sequences.
All arithmetic is exact (rationals or a prime field); every subspace is
canonical, so equality tests are exact as well.

Importing the package executes only the core modules every command uses
(``fields``, ``linalg``, ``algebra``, ``algfile``).  ``cohomology``,
``extensions``, ``generators`` and ``sequences`` are registered in
``sys.modules`` as lazy modules, executed on first attribute access, and
the names below are looked up in their modules when first asked for: a
command executes only the modules it uses.
"""

import importlib.util
import sys

# Imported before ``cli`` is compiled: compiling ``cli`` ahead of them raised
# a command's peak RSS by 0.3-0.5 MB (CPython 3.11).
from . import algebra, algfile, fields, linalg

# Public names, by the module that defines them.
_EXPORTS = {
    "algebra": (
        "AlgSubspace", "AxiomReport", "AxiomViolation", "DASHV", "IDENTITIES",
        "InvalidAlgebraError", "MalformedAlgebraError", "NotAnIdealError",
        "NotCentralIdealError", "OPS", "PERP", "QuotientAlgebra", "TriAlgebra", "VDASH",
        "change_basis", "check_dim_bounds", "dimension_bound_table", "hom_to_field",
        "identity_str", "is_ideal", "product_subspace", "quotient_algebra",
    ),
    "algfile": ("AlgebraFileError", "emit", "load", "parse", "save"),
    "cohomology": (
        "CochainTriple", "CohomologyResult", "NotACocycleError", "NotASectionError",
        "b2_space", "cocycle_defects", "h2", "section_cocycle", "z2_space",
    ),
    "extensions": (
        "CentralExtension", "CoverResult", "StemImageReport", "build_central_extension",
        "cover", "cover_fingerprint", "extension_algebra", "is_unicentral",
        "stem_center_image_check", "z_star",
    ),
    "fields": ("GF", "QQ", "FieldMismatchError", "PrimeField", "RationalField", "parse_field"),
    "generators": (
        "abelian", "cover_abelian", "dim2_single_product", "random_extension", "unital_dim1",
    ),
    "linalg": (
        "ContainmentError", "Matrix", "Subspace", "inverse", "kernel", "rank", "rref",
        "solve_right",
    ),
    "sequences": (
        "delta_map", "inf1", "inf2", "res", "stallings_check", "tra", "tra_image_check",
        "unicentrality_criteria", "verify_five_term", "verify_inf_delta",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)
__version__ = "0.1.0"


def _register_lazy(name: str) -> None:
    # Registered, not merely deferred: perfbench's tracer looks every module
    # up in sys.modules right after ``import trialg.cli``.
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    globals()[name] = module
    spec.loader.exec_module(module)


for _name in ("cohomology", "extensions", "generators", "sequences"):
    _register_lazy(_name)
del _name


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_OWNER[name]], name)


def __dir__():
    return sorted(set(globals()) | set(_OWNER))
