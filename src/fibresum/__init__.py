"""Exact-arithmetic toolkit for torus fibre sums of four-manifolds.

Builds invariant records for four-manifolds, performs fibre sums with
rational elliptic pieces along square-zero tori, enumerates the first
Chern classes of the resulting symplectic structures over orientation
sign choices, and certifies divisibility-based lower bounds on the
number of components of the moduli space of symplectic forms. A
companion geometry module computes linking numbers of polygonal links
two independent ways to back the torus homology relations used by the
constructions.
"""

from .construct import (
    EnumerationResult,
    HypothesisReport,
    SolveResult,
    build_theorem_recipe,
    check_hypotheses,
    enumerate_forms,
    solve_signs,
)
from .errors import (
    ConfigError,
    EmbeddingError,
    EnumerationCapError,
    FibresumError,
    GenericityError,
    IllConditionedError,
    MathematicalInconsistencyError,
    RecipeError,
)
from .fourman import (
    LAGRANGIAN,
    SYMPLECTIC,
    EmbeddedTorus,
    FourManifold,
    build_e1,
    build_t4,
    form_parity,
    validate,
)
from .gompfsum import (
    CheckReport,
    FormClass,
    Gluing,
    SumRecipe,
    check_c1_identities,
    sum_c1,
    sum_invariants,
)
from .intlat import (
    DivisibilityReport,
    IntVector,
    PairingMatrix,
    divisibility_bounds,
    gcd_content,
    rank,
)

# The geometry layer loads on first use (PEP 562), so a job that never
# computes a linking number does not import it, or `fractions` and
# `decimal` with it.
_LINKGEOM_NAMES = (
    "PolygonalCurve", "PolygonalLink", "linking_number_crossings", "linking_number_gauss",
    "linking_number_verified", "linking_numbers", "load_link",
)

__all__ = [
    "EnumerationResult", "HypothesisReport", "SolveResult", "build_theorem_recipe",
    "check_hypotheses", "enumerate_forms", "solve_signs",
    "ConfigError", "EmbeddingError", "EnumerationCapError", "FibresumError",
    "GenericityError", "IllConditionedError", "MathematicalInconsistencyError", "RecipeError",
    "LAGRANGIAN", "SYMPLECTIC", "EmbeddedTorus", "FourManifold",
    "build_e1", "build_t4", "form_parity", "validate",
    "CheckReport", "FormClass", "Gluing", "SumRecipe", "check_c1_identities", "sum_c1",
    "sum_invariants",
    "DivisibilityReport", "IntVector", "PairingMatrix", "divisibility_bounds", "gcd_content", "rank",
    *_LINKGEOM_NAMES,
]


def __getattr__(name: str):
    if name in _LINKGEOM_NAMES:
        from . import linkgeom

        return getattr(linkgeom, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LINKGEOM_NAMES})


__version__ = "0.1.0"
