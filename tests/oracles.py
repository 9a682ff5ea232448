"""Independent oracles used by the tests.

None of these share code with the package routines they check: the
linking oracle is direct quadrature of the double line integral, the
rank oracle is Gauss-Jordan elimination over the rationals (the package
eliminates fraction-free over the integers), and the intersection-pairing
oracle multiplies differential forms on the four-torus.
"""

from __future__ import annotations

import math
from fractions import Fraction


def quadrature_linking(curve_a, curve_b, samples: int = 48) -> float:
    """Midpoint-rule quadrature of the Gauss linking integral."""
    fa = [tuple(map(float, v)) for v in curve_a.vertices]
    fb = [tuple(map(float, v)) for v in curve_b.vertices]
    total = 0.0
    na, nb = len(fa), len(fb)
    for i in range(na):
        p0, p1 = fa[i], fa[(i + 1) % na]
        t1 = (p1[0] - p0[0], p1[1] - p0[1], p1[2] - p0[2])
        for j in range(nb):
            q0, q1 = fb[j], fb[(j + 1) % nb]
            t2 = (q1[0] - q0[0], q1[1] - q0[1], q1[2] - q0[2])
            cx = (
                t1[1] * t2[2] - t1[2] * t2[1],
                t1[2] * t2[0] - t1[0] * t2[2],
                t1[0] * t2[1] - t1[1] * t2[0],
            )
            for ii in range(samples):
                s = (ii + 0.5) / samples
                r1 = (p0[0] + s * t1[0], p0[1] + s * t1[1], p0[2] + s * t1[2])
                for jj in range(samples):
                    t = (jj + 0.5) / samples
                    d = (
                        r1[0] - q0[0] - t * t2[0],
                        r1[1] - q0[1] - t * t2[1],
                        r1[2] - q0[2] - t * t2[2],
                    )
                    dist3 = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]) ** 1.5
                    total += (d[0] * cx[0] + d[1] * cx[1] + d[2] * cx[2]) / dist3 / (
                        samples * samples
                    )
    return total / (4.0 * math.pi)


def fraction_rank(matrix) -> int:
    """Rank over the rationals by Gauss-Jordan elimination on Fractions."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


# Intersection pairing on the four-torus via products of 2-forms. A
# 2-form basis element is an ordered coordinate pair (i, j), i < j; a
# homology class is a dict of integer coefficients on those pairs. The
# pairing of two classes is the coefficient of the volume form in the
# product of their duals.

T4_FORM_BASIS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def _perm_sign(perm) -> int:
    sign = 1
    items = list(perm)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] > items[j]:
                sign = -sign
    return sign


def wedge_pairing(class_a: dict, class_b: dict) -> int:
    total = 0
    for (i, j), ca in class_a.items():
        for (k, l), cb in class_b.items():
            if len({i, j, k, l}) != 4:
                continue
            total += ca * cb * _perm_sign((i, j, k, l))
    return total


def t4_surface_class(span: tuple[int, int]) -> dict:
    """Homology class of the coordinate 2-torus spanning the given axes,
    as the dual 2-form on the complementary axes (oriented so that
    (span, complement) is an even permutation of (0, 1, 2, 3))."""
    comp = tuple(sorted(set(range(4)) - set(span)))
    sign = _perm_sign(tuple(span) + comp)
    return {comp: sign}


def add_classes(*classes: dict) -> dict:
    out: dict = {}
    for c in classes:
        for k, v in c.items():
            out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}
