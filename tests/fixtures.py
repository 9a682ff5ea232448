"""Test inputs and helpers built on the package's own types.

Unlike `oracles.py`, these share code with fibresum: they build the
recipes, links and curves the tests feed to it, and give a second route
to a form's Chern class, one recipe per sign assignment, for comparing
against the enumeration.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from fibresum.errors import RecipeError
from fibresum.fourman import FourManifold, build_t4
from fibresum.gompfsum import FormClass, Gluing, SumRecipe, sum_invariants
from fibresum.intlat import PairingMatrix, divisibility_bounds
from fibresum.linkgeom import PolygonalCurve, PolygonalLink

# ---------------------------------------------------------------------------
# Recipes and per-assignment evaluation.
# ---------------------------------------------------------------------------


def mcmullen_taubes_recipe() -> SumRecipe:
    """Four-torus summed along the three coordinate tori and one diagonal
    copy. The gate rejects n = 2 (2 divides 2d), so the recipe is built
    directly, as the negative control: distinct forms whose
    divisibilities all agree."""
    manifold, (tx, ty, tz, tw) = build_t4()
    tori = (tz, tx, ty, tw)
    return SumRecipe(manifold, tori, tuple(Gluing(t.label, (1,)) for t in tori), "mcmullen-taubes")


def zero_pairing(dim: int) -> PairingMatrix:
    """The dim x dim pairing with every entry tracked and zero."""
    return PairingMatrix(((0,) * dim,) * dim)


def flat_signs(recipe: SumRecipe) -> tuple[int, ...]:
    """All per-copy signs in gluing order."""
    return tuple(s for gluing in recipe.gluings for s in gluing.signs)


def with_signs(recipe: SumRecipe, signs_flat: Sequence[int]) -> SumRecipe:
    """Copy of the recipe with the flat sign vector redistributed."""
    signs = [int(s) for s in signs_flat]
    if len(signs) != recipe.total_copies:
        raise RecipeError(
            f"sign vector length {len(signs)} != total copies {recipe.total_copies}"
        )
    gluings = []
    pos = 0
    for gluing in recipe.gluings:
        gluings.append(Gluing(gluing.torus_label, signs[pos : pos + gluing.copies]))
        pos += gluing.copies
    return SumRecipe(recipe.base, recipe.tori, tuple(gluings), recipe.name)


def replace(record, **changes):
    """Copy of a record with the named fields changed, built through its
    constructor so the constructor's checks run again, as they do under
    ``dataclasses.replace``."""
    fields = {name: getattr(record, name) for name in record._fields}
    fields.update(changes)
    return type(record)(**fields)


def perform_recipe(recipe: SumRecipe) -> tuple[FourManifold, FormClass]:
    """Evaluate a recipe: summed invariants plus the resulting form class."""
    manifold = sum_invariants(recipe)
    report = divisibility_bounds(manifold.c1, manifold.pairing)
    form = FormClass(signs_flat=flat_signs(recipe), c1=manifold.c1, divisibility=report)
    return manifold, form


# ---------------------------------------------------------------------------
# Built-in links and curves.
# ---------------------------------------------------------------------------


def borromean_rings() -> PolygonalLink:
    """Three mutually perpendicular rectangles forming Borromean rings.

    Each rectangle lies in a coordinate plane with half-widths 2 and 1,
    long axis threading the next rectangle cyclically. All pairwise
    distances are at least 1, so exact disjointness checks pass with
    room for perturbation.
    """
    c1 = PolygonalCurve(((2, -1, 0), (2, 1, 0), (-2, 1, 0), (-2, -1, 0)))
    c2 = PolygonalCurve(((0, 2, -1), (0, 2, 1), (0, -2, 1), (0, -2, -1)))
    c3 = PolygonalCurve(((-1, 0, 2), (1, 0, 2), (1, 0, -2), (-1, 0, -2)))
    return PolygonalLink((c1, c2, c3))


def borromean_axis(shift: Fraction | int = 0) -> PolygonalCurve:
    """Closed loop whose near edge runs along the main diagonal.

    Copies are translated by shift * (1, 1, -2), which is perpendicular
    to the diagonal and not parallel to any edge, so distinct small
    shifts give disjoint parallel unlinked copies. The return path stays
    far outside the rings and links nothing.
    """
    s = Fraction(shift)
    return PolygonalCurve(
        (
            (-4 + s, -4 + s, -4 - 2 * s),
            (4 + s, 4 + s, 4 - 2 * s),
            (28 + s, -20 + s, 4 - 2 * s),
            (20 + s, -28 + s, -4 - 2 * s),
        )
    )


def borromean_meridian(index: int, *, radius: Fraction | int = Fraction(1, 2)) -> PolygonalCurve:
    """Small loop encircling component `index` of the built-in rings once,
    positively, and staying clear of the other two components."""
    h = Fraction(radius)
    if index == 0:
        # Around the x = 2 edge of the first rectangle (edge direction +y).
        return PolygonalCurve(((2 + h, 0, 0), (2, 0, -h), (2 - h, 0, 0), (2, 0, h)))
    if index == 1:
        # Around the y = 2 edge of the second rectangle (edge direction +z).
        return PolygonalCurve(((0, 2 + h, 0), (-h, 2, 0), (0, 2 - h, 0), (h, 2, 0)))
    if index == 2:
        # Around the z = 2 edge of the third rectangle (edge direction +x).
        return PolygonalCurve(((0, 0, 2 + h), (0, -h, 2), (0, 0, 2 - h), (0, h, 2)))
    raise ValueError("built-in Borromean rings have components 0, 1, 2")


def hopf_link() -> PolygonalLink:
    """Two interlocked squares with linking number +1."""
    a = PolygonalCurve(((0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0)))
    b = PolygonalCurve(((1, 1, 1), (1, 3, 1), (1, 3, -1), (1, 1, -1)))
    return PolygonalLink((a, b))


def split_link() -> PolygonalLink:
    """Two distant squares with linking number 0."""
    a = PolygonalCurve(((0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0)))
    b = PolygonalCurve(((11, 1, 1), (11, 3, 1), (11, 3, -1), (11, 1, -1)))
    return PolygonalLink((a, b))


def square_loop(center: Sequence, half: Fraction | int = 1) -> PolygonalCurve:
    """Axis-aligned square in a z = const plane, for far-away test loops."""
    x, y, z = (Fraction(c) for c in center)
    h = Fraction(half)
    return PolygonalCurve(((x - h, y - h, z), (x + h, y - h, z), (x + h, y + h, z), (x - h, y + h, z)))


def reversed_curve(curve: PolygonalCurve) -> PolygonalCurve:
    """The same polygon traversed the other way."""
    return PolygonalCurve(tuple(reversed(curve.vertices)))


def perturb_curve(
    curve: PolygonalCurve,
    rng: random.Random,
    *,
    denominator: int = 256,
    amplitude: int = 8,
) -> PolygonalCurve:
    """Move every vertex by an independent small exact-rational offset."""
    return PolygonalCurve(
        tuple(
            tuple(x + Fraction(rng.randint(-amplitude, amplitude), denominator) for x in v)
            for v in curve.vertices
        )
    )
