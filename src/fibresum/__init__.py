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

import importlib

# The public names, by the module that defines each. The package imports
# none of them up front: `__getattr__` (PEP 562) loads a name's module on
# first use, so `import fibresum` loads no submodule and a command loads
# only the layers it runs.
_EXPORTS = {
    "construct": (
        "EnumerationResult", "HypothesisReport", "SolveResult", "build_theorem_recipe",
        "check_hypotheses", "enumerate_forms", "solve_signs",
    ),
    "errors": (
        "ConfigError", "EmbeddingError", "EnumerationCapError", "FibresumError",
        "GenericityError", "IllConditionedError", "MathematicalInconsistencyError", "RecipeError",
    ),
    "fourman": (
        "LAGRANGIAN", "SYMPLECTIC", "EmbeddedTorus", "FourManifold",
        "build_e1", "build_t4", "form_parity",
    ),
    "gompfsum": (
        "CheckReport", "FormClass", "Gluing", "SumRecipe", "check_c1_identities", "sum_c1",
        "sum_invariants",
    ),
    "intlat": (
        "DivisibilityReport", "IntVector", "PairingMatrix", "divisibility_bounds", "gcd_content", "rank",
    ),
    "linkgeom": (
        "PolygonalCurve", "PolygonalLink", "linking_number_crossings", "linking_number_gauss",
        "linking_number_verified", "linking_numbers", "load_link",
    ),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"
