"""Polygonal links in 3-space and their linking numbers.

Curves carry exact rational vertices, so embeddedness and disjointness
are decided exactly. Linking numbers come from two independent routes:
a signed-crossing count in a generic projection (exact integer output)
and the Gauss linking integral evaluated as a sum of segment-pair solid
angles (floating point). The two must agree to 1e-6; disagreement means
a bug, never a rounding issue, because the solid-angle formula is exact
up to floating summation error.

Crossing sign convention: at a projected crossing the sign is the
orientation of the 2-frame (over-strand tangent, under-strand tangent)
in a projection plane oriented so that (plane, viewing direction) is a
right-handed frame of 3-space. Summing signs over all crossings of the
two curves and halving gives the linking number; this normalization
agrees with the Gauss integral (checked against direct quadrature).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import EmbeddingError, GenericityError, IllConditionedError
from .intlat import IntVector

__all__ = [
    "SURGERY",
    "AUXILIARY",
    "PolygonalCurve",
    "PolygonalLink",
    "linking_number_crossings",
    "linking_number_gauss",
    "linking_number_verified",
    "h1_coordinates",
    "derive_torus_relation",
    "borromean_rings",
    "borromean_axis",
    "borromean_meridian",
    "hopf_link",
    "split_link",
    "square_loop",
    "perturb_curve",
    "parse_link_text",
    "load_link",
    "load_curve",
]

SURGERY = "surgery"
AUXILIARY = "auxiliary"

Vec3 = tuple[Fraction, Fraction, Fraction]

MAX_DIRECTION_ATTEMPTS = 64
GAUSS_MIN_SEPARATION = 1e-6


def _vec(p: Sequence) -> Vec3:
    if len(p) != 3:
        raise ValueError(f"expected a 3-vector, got {len(p)} coordinates")
    return (Fraction(p[0]), Fraction(p[1]), Fraction(p[2]))


def _sub(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _add(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def _dot(a: Vec3, b: Vec3) -> Fraction:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a: Vec3, b: Vec3) -> Vec3:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _is_zero(a: Vec3) -> bool:
    return a[0] == 0 and a[1] == 0 and a[2] == 0


def _segment_distance_squared(p0: Vec3, p1: Vec3, q0: Vec3, q1: Vec3) -> Fraction:
    """Exact squared distance between two closed segments."""
    d1 = _sub(p1, p0)
    d2 = _sub(q1, q0)
    w = _sub(p0, q0)
    a = _dot(d1, d1)
    b = _dot(d1, d2)
    c = _dot(d2, d2)
    d = _dot(d1, w)
    e = _dot(d2, w)

    def value(s: Fraction, t: Fraction) -> Fraction:
        diff = (
            w[0] + s * d1[0] - t * d2[0],
            w[1] + s * d1[1] - t * d2[1],
            w[2] + s * d1[2] - t * d2[2],
        )
        return _dot(diff, diff)

    def clamp(x: Fraction) -> Fraction:
        return Fraction(0) if x < 0 else (Fraction(1) if x > 1 else x)

    candidates: list[tuple[Fraction, Fraction]] = []
    denom = a * c - b * b
    if denom != 0:
        s = (b * e - c * d) / denom
        t = (a * e - b * d) / denom
        if 0 <= s <= 1 and 0 <= t <= 1:
            candidates.append((s, t))
    for s_end in (Fraction(0), Fraction(1)):
        t = clamp((e + s_end * b) / c) if c else Fraction(0)
        candidates.append((s_end, t))
    for t_end in (Fraction(0), Fraction(1)):
        s = clamp((t_end * b - d) / a) if a else Fraction(0)
        candidates.append((s, t_end))
    return min(value(s, t) for s, t in candidates)


@dataclass(frozen=True)
class PolygonalCurve:
    """Closed embedded polygon with exact rational vertices."""

    vertices: tuple[Vec3, ...]

    def __post_init__(self) -> None:
        verts = tuple(_vec(v) for v in self.vertices)
        object.__setattr__(self, "vertices", verts)
        n = len(verts)
        if n < 3:
            raise EmbeddingError("a closed polygonal curve needs at least 3 vertices")
        for i in range(n):
            if verts[i] == verts[(i + 1) % n]:
                raise EmbeddingError(f"consecutive vertices {i} and {(i + 1) % n} coincide")
        self._check_embedded()

    def _check_embedded(self) -> None:
        segs = self.segments()
        n = len(segs)
        for i in range(n):
            # Adjacent segments share a vertex; reject only a backtrack
            # along the same line, which would self-overlap.
            j = (i + 1) % n
            u = _sub(segs[i][1], segs[i][0])
            v = _sub(segs[j][1], segs[j][0])
            if _is_zero(_cross(u, v)) and _dot(u, v) < 0:
                raise EmbeddingError(f"segments {i} and {j} backtrack along a common line")
        for i in range(n):
            for j in range(i + 2, n):
                if i == 0 and j == n - 1:
                    continue
                if _segment_distance_squared(*segs[i], *segs[j]) == 0:
                    raise EmbeddingError(f"segments {i} and {j} intersect")

    def segments(self) -> list[tuple[Vec3, Vec3]]:
        verts = self.vertices
        return [(verts[i], verts[(i + 1) % len(verts)]) for i in range(len(verts))]

    def reversed(self) -> "PolygonalCurve":
        return PolygonalCurve(tuple(reversed(self.vertices)))

    def translated(self, offset: Sequence) -> "PolygonalCurve":
        off = _vec(offset)
        return PolygonalCurve(tuple(_add(v, off) for v in self.vertices))


def _curves_distance_squared(a: PolygonalCurve, b: PolygonalCurve) -> Fraction:
    return min(
        _segment_distance_squared(*sa, *sb)
        for sa in a.segments()
        for sb in b.segments()
    )


def _require_disjoint(a: PolygonalCurve, b: PolygonalCurve) -> None:
    if _curves_distance_squared(a, b) == 0:
        raise EmbeddingError("link not embedded")


@dataclass(frozen=True)
class PolygonalLink:
    """Disjoint closed curves with per-component roles."""

    components: tuple[PolygonalCurve, ...]
    roles: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        comps = tuple(self.components)
        roles = tuple(self.roles) if self.roles else (SURGERY,) * len(comps)
        if len(roles) != len(comps):
            raise ValueError("one role per component required")
        for r in roles:
            if r not in (SURGERY, AUXILIARY):
                raise ValueError(f"unknown component role {r!r}")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "roles", roles)
        for i in range(len(comps)):
            for j in range(i + 1, len(comps)):
                _require_disjoint(comps[i], comps[j])

    def surgery_components(self) -> list[PolygonalCurve]:
        return [c for c, r in zip(self.components, self.roles) if r == SURGERY]


# ---------------------------------------------------------------------------
# Signed-crossing linking number (exact).
# ---------------------------------------------------------------------------


class _Degenerate(Exception):
    pass


def _direction_stream(seed: int) -> Iterable[tuple[int, int, int]]:
    rng = random.Random(f"fibresum-direction-{seed}")
    while True:
        d = (rng.randint(-997, 997), rng.randint(-997, 997), rng.randint(-997, 997))
        if d != (0, 0, 0):
            yield d


def _projection_frame(d: tuple[int, int, int]) -> tuple[Vec3, Vec3]:
    dv = _vec(d)
    for axis in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        u = _cross(dv, _vec(axis))
        if not _is_zero(u):
            w = _cross(dv, u)
            return u, w
    raise ValueError("projection direction is zero")


def _signed_crossing_total(a: PolygonalCurve, b: PolygonalCurve, d: tuple[int, int, int]) -> int:
    dv = _vec(d)
    for curve in (a, b):
        for p, q in curve.segments():
            if _is_zero(_cross(_sub(q, p), dv)):
                raise _Degenerate("segment parallel to projection direction")
    u, w = _projection_frame(d)

    def project(p: Vec3) -> tuple[Fraction, Fraction]:
        return (_dot(p, u), _dot(p, w))

    def height(p: Vec3) -> Fraction:
        return _dot(p, dv)

    def cross2(p: tuple[Fraction, Fraction], q: tuple[Fraction, Fraction]) -> Fraction:
        return p[0] * q[1] - p[1] * q[0]

    total = 0
    for p0, p1 in a.segments():
        a0, a1 = project(p0), project(p1)
        da = (a1[0] - a0[0], a1[1] - a0[1])
        ha0, ha1 = height(p0), height(p1)
        for q0, q1 in b.segments():
            b0, b1 = project(q0), project(q1)
            db = (b1[0] - b0[0], b1[1] - b0[1])
            denom = cross2(da, db)
            offset = (b0[0] - a0[0], b0[1] - a0[1])
            if denom == 0:
                # Parallel projections never cross transversally; they are
                # degenerate only when they share a line and the intervals
                # on it meet (segments on a common spatial line project
                # collinearly in every direction, so this must not retry).
                if cross2(da, offset) == 0:
                    t_b0 = da[0] * offset[0] + da[1] * offset[1]
                    t_b1 = t_b0 + da[0] * db[0] + da[1] * db[1]
                    a_span = da[0] * da[0] + da[1] * da[1]
                    if max(t_b0, t_b1) >= 0 and min(t_b0, t_b1) <= a_span:
                        raise _Degenerate("projected segments overlap on a line")
                continue
            t = cross2(offset, db) / denom
            s = cross2(offset, da) / denom
            if t <= 0 or t >= 1 or s <= 0 or s >= 1:
                if 0 <= t <= 1 and 0 <= s <= 1:
                    raise _Degenerate("projected crossing at a vertex")
                continue
            h_a = ha0 + t * (ha1 - ha0)
            h_b = height(q0) + s * (height(q1) - height(q0))
            if h_a == h_b:
                raise EmbeddingError("link not embedded")
            if h_a > h_b:
                sign_val = cross2(da, db)
            else:
                sign_val = cross2(db, da)
            total += 1 if sign_val > 0 else -1
    if total % 2:
        raise _Degenerate("odd signed crossing total")
    return total


def linking_number_crossings(
    a: PolygonalCurve,
    b: PolygonalCurve,
    direction: Optional[Sequence[int]] = None,
    *,
    seed: int = 0,
) -> int:
    """Linking number as half the signed crossing count of a generic projection.

    A supplied direction is tried first; on any degeneracy (a segment
    parallel to it, a crossing at a vertex, overlapping projections) the
    direction is re-randomized deterministically from the seed, up to
    MAX_DIRECTION_ATTEMPTS times.
    """
    _require_disjoint(a, b)
    stream = iter(_direction_stream(seed))
    attempts = 0
    while attempts < MAX_DIRECTION_ATTEMPTS:
        if attempts == 0 and direction is not None:
            d = (int(direction[0]), int(direction[1]), int(direction[2]))
            if d == (0, 0, 0):
                raise ValueError("projection direction must be nonzero")
        else:
            d = next(stream)
        attempts += 1
        try:
            return _signed_crossing_total(a, b, d) // 2
        except _Degenerate:
            continue
    raise GenericityError(
        f"no generic projection direction found in {MAX_DIRECTION_ATTEMPTS} attempts"
    )


# ---------------------------------------------------------------------------
# Gauss linking integral (floating point, independent of the above).
# ---------------------------------------------------------------------------


def _float(p: Vec3) -> tuple[float, float, float]:
    return (float(p[0]), float(p[1]), float(p[2]))


def _fdot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _fcross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _fnorm(a) -> float:
    return math.sqrt(_fdot(a, a))


def _segment_pair_solid_angle(p0, p1, q0, q1) -> float:
    """Signed solid angle of the quadrilateral of directions between two segments.

    This is the exact contribution of the segment pair to 4*pi times the
    Gauss linking integral (two spherical-triangle half-angle terms).
    """
    n1 = (p0[0] - q0[0], p0[1] - q0[1], p0[2] - q0[2])
    n2 = (p0[0] - q1[0], p0[1] - q1[1], p0[2] - q1[2])
    n3 = (p1[0] - q1[0], p1[1] - q1[1], p1[2] - q1[2])
    n4 = (p1[0] - q0[0], p1[1] - q0[1], p1[2] - q0[2])
    l1, l2, l3, l4 = _fnorm(n1), _fnorm(n2), _fnorm(n3), _fnorm(n4)
    triple = _fdot(n1, _fcross(n2, n3))
    d1 = l1 * l2 * l3 + _fdot(n1, n2) * l3 + _fdot(n2, n3) * l1 + _fdot(n3, n1) * l2
    d2 = l1 * l3 * l4 + _fdot(n1, n3) * l4 + _fdot(n3, n4) * l1 + _fdot(n4, n1) * l3
    return 2.0 * (math.atan2(triple, d1) + math.atan2(triple, d2))


def linking_number_gauss(
    a: PolygonalCurve,
    b: PolygonalCurve,
    *,
    min_separation: float = GAUSS_MIN_SEPARATION,
) -> float:
    """Gauss linking integral via exact segment-pair solid angles.

    The result is within 1e-6 of an integer for any pair of curves that
    passes the separation guard; near-touching curves are rejected as
    ill-conditioned rather than returning an untrustworthy value.
    """
    _require_disjoint(a, b)
    dist2 = _curves_distance_squared(a, b)
    if float(dist2) < min_separation * min_separation:
        raise IllConditionedError(
            f"ill-conditioned: curve separation below {min_separation}"
        )
    fa = [_float(v) for v in a.vertices]
    fb = [_float(v) for v in b.vertices]
    total = 0.0
    na, nb = len(fa), len(fb)
    for i in range(na):
        p0, p1 = fa[i], fa[(i + 1) % na]
        for j in range(nb):
            q0, q1 = fb[j], fb[(j + 1) % nb]
            total += _segment_pair_solid_angle(p0, p1, q0, q1)
    return total / (4.0 * math.pi)


def linking_number_verified(
    a: PolygonalCurve,
    b: PolygonalCurve,
    *,
    seed: int = 0,
    tolerance: float = 1e-6,
) -> int:
    """Crossing-count linking number, cross-checked against the Gauss integral."""
    from .errors import MathematicalInconsistencyError

    exact = linking_number_crossings(a, b, seed=seed)
    approx = linking_number_gauss(a, b)
    if abs(approx - exact) >= tolerance:
        raise MathematicalInconsistencyError(
            f"linking oracles disagree: crossings {exact}, integral {approx!r}"
        )
    return exact


# ---------------------------------------------------------------------------
# Surgery-presentation homology coordinates.
# ---------------------------------------------------------------------------


def h1_coordinates(loop: PolygonalCurve, link: PolygonalLink, *, seed: int = 0) -> IntVector:
    """Coordinates of a loop in the basis of meridians of the surgery components.

    The coordinate against component i is the linking number of the loop
    with that component.
    """
    coords = [
        linking_number_crossings(loop, comp, seed=seed)
        for comp in link.surgery_components()
    ]
    return IntVector(tuple(coords))


def derive_torus_relation(link: PolygonalLink, axis: PolygonalCurve, *, seed: int = 0) -> IntVector:
    """Coefficients of the axis torus class in the basis of the three
    coordinate torus classes of a 3-component surgery presentation."""
    if len(link.surgery_components()) != 3:
        raise ValueError("torus relation requires a 3-component surgery presentation")
    return h1_coordinates(axis, link, seed=seed)


# ---------------------------------------------------------------------------
# Built-in configurations.
# ---------------------------------------------------------------------------


def _curve(*points: Sequence) -> PolygonalCurve:
    return PolygonalCurve(tuple(_vec(p) for p in points))


def borromean_rings() -> PolygonalLink:
    """Three mutually perpendicular rectangles forming Borromean rings.

    Each rectangle lies in a coordinate plane with half-widths 2 and 1,
    long axis threading the next rectangle cyclically. All pairwise
    distances are at least 1, so exact disjointness checks pass with
    room for perturbation.
    """
    c1 = _curve((2, -1, 0), (2, 1, 0), (-2, 1, 0), (-2, -1, 0))
    c2 = _curve((0, 2, -1), (0, 2, 1), (0, -2, 1), (0, -2, -1))
    c3 = _curve((-1, 0, 2), (1, 0, 2), (1, 0, -2), (-1, 0, -2))
    return PolygonalLink((c1, c2, c3), (SURGERY, SURGERY, SURGERY))


def borromean_axis(shift: Fraction | int = 0) -> PolygonalCurve:
    """Closed loop whose near edge runs along the main diagonal.

    Copies are translated by shift * (1, 1, -2), which is perpendicular
    to the diagonal and not parallel to any edge, so distinct small
    shifts give disjoint parallel unlinked copies. The return path stays
    far outside the rings and links nothing.
    """
    s = Fraction(shift)
    return _curve(
        (-4 + s, -4 + s, -4 - 2 * s),
        (4 + s, 4 + s, 4 - 2 * s),
        (28 + s, -20 + s, 4 - 2 * s),
        (20 + s, -28 + s, -4 - 2 * s),
    )


def borromean_meridian(index: int, *, radius: Fraction | int = Fraction(1, 2)) -> PolygonalCurve:
    """Small loop encircling component `index` of the built-in rings once,
    positively, and staying clear of the other two components."""
    h = Fraction(radius)
    if index == 0:
        # Around the x = 2 edge of the first rectangle (edge direction +y).
        return _curve((2 + h, 0, 0), (2, 0, -h), (2 - h, 0, 0), (2, 0, h))
    if index == 1:
        # Around the y = 2 edge of the second rectangle (edge direction +z).
        return _curve((0, 2 + h, 0), (-h, 2, 0), (0, 2 - h, 0), (h, 2, 0))
    if index == 2:
        # Around the z = 2 edge of the third rectangle (edge direction +x).
        return _curve((0, 0, 2 + h), (0, -h, 2), (0, 0, 2 - h), (0, h, 2))
    raise ValueError("built-in Borromean rings have components 0, 1, 2")


def hopf_link() -> PolygonalLink:
    """Two interlocked squares with linking number +1."""
    a = _curve((0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0))
    b = _curve((1, 1, 1), (1, 3, 1), (1, 3, -1), (1, 1, -1))
    return PolygonalLink((a, b), (SURGERY, SURGERY))


def split_link() -> PolygonalLink:
    """Two distant squares with linking number 0."""
    a = _curve((0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0))
    b = _curve((11, 1, 1), (11, 3, 1), (11, 3, -1), (11, 1, -1))
    return PolygonalLink((a, b), (SURGERY, SURGERY))


def square_loop(center: Sequence, half: Fraction | int = 1) -> PolygonalCurve:
    """Axis-aligned square in a z = const plane, for far-away test loops."""
    c = _vec(center)
    h = Fraction(half)
    return _curve(
        (c[0] - h, c[1] - h, c[2]),
        (c[0] + h, c[1] - h, c[2]),
        (c[0] + h, c[1] + h, c[2]),
        (c[0] - h, c[1] + h, c[2]),
    )


def perturb_curve(
    curve: PolygonalCurve,
    rng: random.Random,
    *,
    denominator: int = 256,
    amplitude: int = 8,
) -> PolygonalCurve:
    """Move every vertex by an independent small exact-rational offset."""
    verts = []
    for v in curve.vertices:
        verts.append(
            (
                v[0] + Fraction(rng.randint(-amplitude, amplitude), denominator),
                v[1] + Fraction(rng.randint(-amplitude, amplitude), denominator),
                v[2] + Fraction(rng.randint(-amplitude, amplitude), denominator),
            )
        )
    return PolygonalCurve(tuple(verts))


# ---------------------------------------------------------------------------
# Plain-text link format: blocks of `x y z` rational triples, one component
# per block, blank lines between blocks, `#` starts a comment.
# ---------------------------------------------------------------------------


def parse_link_text(text: str, roles: Optional[Sequence[str]] = None) -> PolygonalLink:
    blocks: list[list[Vec3]] = []
    current: list[Vec3] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            if current:
                blocks.append(current)
                current = []
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected three coordinates, got {len(parts)}")
        try:
            current.append((Fraction(parts[0]), Fraction(parts[1]), Fraction(parts[2])))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"line {lineno}: bad rational coordinate ({exc})") from None
    if current:
        blocks.append(current)
    if not blocks:
        raise ValueError("no components in link data")
    curves = tuple(PolygonalCurve(tuple(block)) for block in blocks)
    role_tuple = tuple(roles) if roles is not None else (SURGERY,) * len(curves)
    return PolygonalLink(curves, role_tuple)


def load_link(path, roles: Optional[Sequence[str]] = None) -> PolygonalLink:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_link_text(fh.read(), roles)


def load_curve(path) -> PolygonalCurve:
    """First component of a link file, for axis and meridian inputs."""
    return load_link(path).components[0]
