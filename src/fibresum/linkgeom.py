"""Polygonal links in 3-space and their linking numbers.

Curves carry exact rational vertices, so embeddedness and disjointness
are decided exactly. Each curve also keeps its vertices multiplied by
the lcm of their denominators, as integers, and a pair of curves is
compared at the lcm of the two scales. Distances, orientations and
crossing parameters are then plain integer arithmetic: on integer input
these predicates are exact without adaptive precision (Shewchuk 1997,
Discrete Comput. Geom. 18).

Linking numbers come from two independent routes: a signed-crossing
count in a generic projection (exact integer output) and the Gauss
linking integral evaluated as a sum of segment-pair solid angles
(floating point; Klenin & Langowski 2000, Biopolymers 54). The Gauss sum
reads each coordinate as an integer point divided by its curve's scale,
the float nearest the rational vertex, so the link format refuses
coordinates outside float range. The two must agree to 1e-6;
disagreement means a bug, never a rounding issue, because the
solid-angle formula is exact up to floating summation error.

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
import weakref
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from ._record import Record, _set
from .errors import EmbeddingError, GenericityError, IllConditionedError, MathematicalInconsistencyError

__all__ = [
    "PolygonalCurve",
    "PolygonalLink",
    "linking_number_crossings",
    "linking_number_gauss",
    "linking_number_verified",
    "linking_numbers",
    "torus_relation",
    "parse_link_text",
    "load_link",
    "load_curve",
]

Vec3 = tuple[Fraction, Fraction, Fraction]
Point = tuple[int, int, int]
# Start, direction, and the low and high corners of the bounding box.
_Segment = tuple[Point, Point, Point, Point]

MAX_DIRECTION_ATTEMPTS = 64
GAUSS_MIN_SEPARATION = 1e-6
# linking_number_verified accepts a Gauss integral closer than this to
# the crossing count.
_GAUSS_TOLERANCE = 1e-6


def _vec(p: Sequence) -> Vec3:
    if len(p) != 3:
        raise ValueError(f"expected a 3-vector, got {len(p)} coordinates")
    # Parsed coordinates are Fractions already; only other inputs are converted.
    return tuple(x if isinstance(x, Fraction) else Fraction(x) for x in p)


def _dot(a: Point, b: Point) -> int:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a: Point, b: Point) -> Point:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _is_zero(a: Point) -> bool:
    return a[0] == 0 and a[1] == 0 and a[2] == 0


# ---------------------------------------------------------------------------
# Exact separation on integer coordinates.
# ---------------------------------------------------------------------------


def _segments(points: Sequence[Point]) -> list[_Segment]:
    """The edges of the closed polygon through `points`, in order."""
    out = []
    n = len(points)
    for i in range(n):
        p, q = points[i], points[(i + 1) % n]
        out.append(
            (
                p,
                (q[0] - p[0], q[1] - p[1], q[2] - p[2]),
                (min(p[0], q[0]), min(p[1], q[1]), min(p[2], q[2])),
                (max(p[0], q[0]), max(p[1], q[1]), max(p[2], q[2])),
            )
        )
    return out


def _distance_at(w: Point, d1: Point, d2: Point, den: int, sn: int, tn: int) -> int:
    """den^2 times the squared length of w + s*d1 - t*d2 at s = sn/den, t = tn/den."""
    x = den * w[0] + sn * d1[0] - tn * d2[0]
    y = den * w[1] + sn * d1[1] - tn * d2[1]
    z = den * w[2] + sn * d1[2] - tn * d2[2]
    return x * x + y * y + z * z


def _clamp(x: int, high: int) -> int:
    return 0 if x < 0 else (high if x > high else x)


def _segment_distance_squared(p0: Point, d1: Point, q0: Point, d2: Point) -> tuple[int, int]:
    """Exact squared distance between the segments p0 + s*d1 and q0 + t*d2,
    s and t in [0, 1], as (numerator, denominator).

    The candidates are the unconstrained minimum and the minimum along
    each of the four sides of the parameter square; with s = sn/D and
    t = tn/D the value is |D*w + sn*d1 - tn*d2|^2 / D^2. The squared
    distance is convex in (s, t), so an unconstrained minimum inside the
    square is the answer on its own. Both directions must be nonzero.
    """
    w = (p0[0] - q0[0], p0[1] - q0[1], p0[2] - q0[2])
    a = d1[0] * d1[0] + d1[1] * d1[1] + d1[2] * d1[2]
    b = d1[0] * d2[0] + d1[1] * d2[1] + d1[2] * d2[2]
    c = d2[0] * d2[0] + d2[1] * d2[1] + d2[2] * d2[2]
    d = d1[0] * w[0] + d1[1] * w[1] + d1[2] * w[2]
    e = d2[0] * w[0] + d2[1] * w[1] + d2[2] * w[2]
    denom = a * c - b * b
    if denom:
        sn = b * e - c * d
        tn = a * e - b * d
        if 0 <= sn <= denom and 0 <= tn <= denom:
            return _distance_at(w, d1, d2, denom, sn, tn), denom * denom
    # Sides s = 0 and s = 1 share the denominator c, sides t = 0 and
    # t = 1 share a; the two winners are compared by cross-multiplication.
    on_s = min(
        _distance_at(w, d1, d2, c, 0, _clamp(e, c)),
        _distance_at(w, d1, d2, c, c, _clamp(e + b, c)),
    )
    on_t = min(
        _distance_at(w, d1, d2, a, _clamp(-d, a), 0),
        _distance_at(w, d1, d2, a, _clamp(b - d, a), a),
    )
    if on_s * a * a <= on_t * c * c:
        return on_s, c * c
    return on_t, a * a


def _closest(segs_a: Sequence[_Segment], segs_b: Sequence[_Segment]) -> tuple[int, int]:
    """Exact minimum squared distance between a segment of `segs_a` and
    one of `segs_b`, as (numerator, denominator); 0 as soon as a pair
    touches.

    A pair whose bounding boxes are already at least the best distance
    apart is skipped: the box gap bounds the segment distance from below.
    """
    best_n, best_d = -1, 1
    for p, d, lo_a, hi_a in segs_a:
        for q, e, lo_b, hi_b in segs_b:
            if best_n > 0:
                gap = 0
                g = lo_b[0] - hi_a[0]
                if g <= 0:
                    g = lo_a[0] - hi_b[0]
                if g > 0:
                    gap = g * g
                g = lo_b[1] - hi_a[1]
                if g <= 0:
                    g = lo_a[1] - hi_b[1]
                if g > 0:
                    gap += g * g
                g = lo_b[2] - hi_a[2]
                if g <= 0:
                    g = lo_a[2] - hi_b[2]
                if g > 0:
                    gap += g * g
                if gap * best_d >= best_n:
                    continue
            n, m = _segment_distance_squared(p, d, q, e)
            if best_n < 0 or n * best_d < best_n * m:
                if n == 0:
                    return 0, 1
                best_n, best_d = n, m
    return best_n, best_d


class PolygonalCurve(Record):
    """Closed embedded polygon with exact rational vertices."""

    __slots__ = ("vertices", "_scale", "_points", "_apart", "__weakref__")

    def __init__(self, vertices: Sequence[Sequence]) -> None:
        verts = tuple(_vec(v) for v in vertices)
        _set(self, "vertices", verts)
        n = len(verts)
        if n < 3:
            raise EmbeddingError("a closed polygonal curve needs at least 3 vertices")
        scale = math.lcm(*(x.denominator for v in verts for x in v))
        points = tuple(
            tuple(x.numerator * (scale // x.denominator) for x in v) for v in verts
        )
        # The integer kernel's view of the vertices: `_points` is `_scale`
        # times `vertices`.
        _set(self, "_scale", scale)
        _set(self, "_points", points)
        # Separations proved against other curves, by the other curve's id:
        # (weak reference to it, squared separation). See _require_disjoint.
        _set(self, "_apart", {})
        for i in range(n):
            if points[i] == points[(i + 1) % n]:
                raise EmbeddingError(f"consecutive vertices {i} and {(i + 1) % n} coincide")
        self._check_embedded()

    def _check_embedded(self) -> None:
        segs = _segments(self._points)
        n = len(segs)
        for i in range(n):
            # Adjacent segments share a vertex; reject only a backtrack
            # along the same line, which would self-overlap.
            j = (i + 1) % n
            u, v = segs[i][1], segs[j][1]
            if _is_zero(_cross(u, v)) and _dot(u, v) < 0:
                raise EmbeddingError(f"segments {i} and {j} backtrack along a common line")
        # Only whether a non-adjacent pair touches matters, so a pair whose
        # bounding boxes are strictly apart is skipped without the exact test.
        for i in range(n - 2):
            p, d, (lx, ly, lz), (hx, hy, hz) = segs[i]
            for j in range(i + 2, n - 1 if i == 0 else n):
                q, e, lo, hi = segs[j]
                if lo[0] > hx or hi[0] < lx or lo[1] > hy or hi[1] < ly or lo[2] > hz or hi[2] < lz:
                    continue
                if _segment_distance_squared(p, d, q, e)[0] == 0:
                    raise EmbeddingError(f"segments {i} and {j} intersect")


def _common_points(a: PolygonalCurve, b: PolygonalCurve) -> tuple[tuple[Point, ...], tuple[Point, ...], int]:
    """Both curves' vertices as integers at the lcm of their scales."""
    scale = math.lcm(a._scale, b._scale)

    def rescaled(curve: PolygonalCurve) -> tuple[Point, ...]:
        f = scale // curve._scale
        if f == 1:
            return curve._points
        return tuple((p[0] * f, p[1] * f, p[2] * f) for p in curve._points)

    return rescaled(a), rescaled(b), scale


def _separation_squared(a: PolygonalCurve, b: PolygonalCurve) -> tuple[int, int]:
    """Exact squared distance between two curves, as (numerator, denominator)."""
    pa, pb, scale = _common_points(a, b)
    num, den = _closest(_segments(pa), _segments(pb))
    return num, den * scale * scale


def _require_disjoint(a: PolygonalCurve, b: PolygonalCurve) -> tuple[int, int]:
    """The exact squared separation of two curves; raises if they touch.

    A proved separation is recorded on both curves, so a pair is scanned
    once: a link's components are proved apart when the link is built,
    and the crossing count and the Gauss guard of a pair share one scan.
    The curves are immutable, so the recorded value cannot go stale.
    """
    known = a._apart.get(id(b))
    if known is not None and known[0]() is b:
        return known[1]
    num, den = _separation_squared(a, b)
    if num == 0:
        raise EmbeddingError("link not embedded")
    a._apart[id(b)] = (weakref.ref(b), (num, den))
    b._apart[id(a)] = (weakref.ref(a), (num, den))
    return num, den


class PolygonalLink(Record):
    """Disjoint closed curves."""

    __slots__ = ("components",)

    def __init__(self, components: Sequence[PolygonalCurve]) -> None:
        comps = tuple(components)
        for i in range(len(comps)):
            for j in range(i + 1, len(comps)):
                _require_disjoint(comps[i], comps[j])
        _set(self, "components", comps)


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


def _projection_frame(d: tuple[int, int, int]) -> tuple[Point, Point]:
    for axis in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        u = _cross(d, axis)
        if not _is_zero(u):
            return u, _cross(d, u)
    raise ValueError("projection direction is zero")


def _projected_segments(points: Sequence[Point], u: Point, w: Point, d: Point) -> list[tuple[int, ...]]:
    """Per edge: projected start, projected direction, start height and
    height change, in the frame (u, w) and along d."""
    proj = [(_dot(p, u), _dot(p, w), _dot(p, d)) for p in points]
    n = len(proj)
    out = []
    for i in range(n):
        x0, y0, h0 = proj[i]
        x1, y1, h1 = proj[(i + 1) % n]
        out.append((x0, y0, x1 - x0, y1 - y0, h0, h1 - h0))
    return out


def _signed_crossing_total(a: PolygonalCurve, b: PolygonalCurve, d: tuple[int, int, int]) -> int:
    pa, pb, _ = _common_points(a, b)
    u, w = _projection_frame(d)
    segs_a = _projected_segments(pa, u, w, d)
    segs_b = _projected_segments(pb, u, w, d)
    # A segment is parallel to d exactly when it projects to a point.
    for seg in segs_a + segs_b:
        if seg[2] == 0 and seg[3] == 0:
            raise _Degenerate("segment parallel to projection direction")
    total = 0
    for ax, ay, dax, day, ha, dha in segs_a:
        for bx, by, dbx, dby, hb, dhb in segs_b:
            denom = dax * dby - day * dbx
            ox, oy = bx - ax, by - ay
            if denom == 0:
                # Parallel projections never cross transversally; they are
                # degenerate only when they share a line and the intervals
                # on it meet (segments on a common spatial line project
                # collinearly in every direction, so this must not retry).
                if dax * oy - day * ox == 0:
                    t_b0 = dax * ox + day * oy
                    t_b1 = t_b0 + dax * dbx + day * dby
                    a_span = dax * dax + day * day
                    if max(t_b0, t_b1) >= 0 and min(t_b0, t_b1) <= a_span:
                        raise _Degenerate("projected segments overlap on a line")
                continue
            # The crossing sits at t = tn/denom along a and s = sn/denom
            # along b; compare with the denominator made positive.
            tn = ox * dby - oy * dbx
            sn = ox * day - oy * dax
            m = denom
            if m < 0:
                m, tn, sn = -m, -tn, -sn
            if tn <= 0 or tn >= m or sn <= 0 or sn >= m:
                if 0 <= tn <= m and 0 <= sn <= m:
                    raise _Degenerate("projected crossing at a vertex")
                continue
            # Heights at the crossing, times m.
            h_a = ha * m + tn * dha
            h_b = hb * m + sn * dhb
            if h_a == h_b:
                raise EmbeddingError("link not embedded")
            # The over-strand's tangent comes first in the 2-frame.
            total += 1 if (denom > 0) == (h_a > h_b) else -1
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


def linking_number_gauss(a: PolygonalCurve, b: PolygonalCurve) -> float:
    """Gauss linking integral via exact segment-pair solid angles.

    A segment pair's term is the signed solid angle of the quadrilateral
    of directions between the two segments, as two spherical-triangle
    half-angle terms in the four differences of an end on `a` and an end
    on `b`. Neighbouring pairs share those differences and their
    lengths, so each is computed once per curve pair.

    The result is within 1e-6 of an integer for any pair of curves that
    passes the separation guard; near-touching curves are rejected as
    ill-conditioned rather than returning an untrustworthy value.
    """
    num, den = _require_disjoint(a, b)
    if num / den < GAUSS_MIN_SEPARATION * GAUSS_MIN_SEPARATION:
        raise IllConditionedError(
            f"ill-conditioned: curve separation below {GAUSS_MIN_SEPARATION}"
        )
    # Integer over integer division rounds once, so each coordinate is the
    # float nearest the rational vertex.
    sa, sb = a._scale, b._scale
    fa = [(x / sa, y / sa, z / sa) for x, y, z in a._points]
    fb = [(x / sb, y / sb, z / sb) for x, y, z in b._points]
    sqrt = math.sqrt
    # rows[i][j]: vertex i of a minus vertex j of b, and its length.
    rows = []
    for px, py, pz in fa:
        row = []
        for qx, qy, qz in fb:
            x, y, z = px - qx, py - qy, pz - qz
            row.append((x, y, z, sqrt(x * x + y * y + z * z)))
        rows.append(row)
    atan2 = math.atan2
    total = 0.0
    for r0, r1 in zip(rows, rows[1:] + rows[:1]):
        # Segment i of a against segment j of b: n1 = p_i - q_j,
        # n2 = p_i - q_j+1, n3 = p_i+1 - q_j+1, n4 = p_i+1 - q_j.
        for (x1, y1, z1, l1), (x2, y2, z2, l2), (x3, y3, z3, l3), (x4, y4, z4, l4) in zip(
            r0, r0[1:] + r0[:1], r1[1:] + r1[:1], r1
        ):
            triple = x1 * (y2 * z3 - z2 * y3) + y1 * (z2 * x3 - x2 * z3) + z1 * (x2 * y3 - y2 * x3)
            d13 = x3 * x1 + y3 * y1 + z3 * z1
            d1 = (
                l1 * l2 * l3 + (x1 * x2 + y1 * y2 + z1 * z2) * l3
                + (x2 * x3 + y2 * y3 + z2 * z3) * l1 + d13 * l2
            )
            d2 = (
                l1 * l3 * l4 + d13 * l4
                + (x3 * x4 + y3 * y4 + z3 * z4) * l1 + (x4 * x1 + y4 * y1 + z4 * z1) * l3
            )
            total += 2.0 * (atan2(triple, d1) + atan2(triple, d2))
    return total / (4.0 * math.pi)


def linking_number_verified(a: PolygonalCurve, b: PolygonalCurve, *, seed: int = 0) -> int:
    """Crossing-count linking number, cross-checked against the Gauss integral."""
    exact = linking_number_crossings(a, b, seed=seed)
    approx = linking_number_gauss(a, b)
    if abs(approx - exact) >= _GAUSS_TOLERANCE:
        raise MathematicalInconsistencyError(
            f"linking oracles disagree: crossings {exact}, integral {approx!r}"
        )
    return exact


# ---------------------------------------------------------------------------
# Linking matrix and the torus relation.
# ---------------------------------------------------------------------------


def linking_numbers(
    link: PolygonalLink, axis: Optional[PolygonalCurve] = None, *, seed: int = 0
) -> tuple[list[list[int]], Optional[list[int]]]:
    """The link's symmetric pairwise linking matrix, and the axis's linking
    numbers with each component (None without an axis), all verified.

    Linking numbers are symmetric, so each pair is computed once and
    mirrored. The axis numbers are its coordinates in the basis of the
    components' meridians.
    """
    comps = link.components
    matrix = [[0] * len(comps) for _ in comps]
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            matrix[i][j] = matrix[j][i] = linking_number_verified(comps[i], comps[j], seed=seed)
    if axis is None:
        return matrix, None
    return matrix, [linking_number_verified(axis, comp, seed=seed) for comp in comps]


def torus_relation(matrix: Sequence[Sequence[int]], axis_coords: Sequence[int]) -> tuple[int, ...]:
    """The torus relation read off the surgery components' pairwise
    linking matrix and the axis's linking numbers with them.

    The axis coordinates are coefficients in the basis of meridians only
    when the meridians form a basis of H1 of the 0-surgery, which is
    H1 = Z^3 modulo the linking matrix: so the matrix must vanish.
    """
    if len(matrix) != 3:
        raise ValueError("torus relation requires a 3-component surgery presentation")
    if any(v for row in matrix for v in row):
        raise ValueError(
            "torus relation undefined: the surgery components link each other, "
            "so their meridians are not a basis of H1 of the 0-surgery"
        )
    return tuple(int(v) for v in axis_coords)


# ---------------------------------------------------------------------------
# Plain-text link format: blocks of `x y z` rational triples, one component
# per block, blank lines between blocks, `#` starts a comment.
# ---------------------------------------------------------------------------


# A nonzero number with a mantissa of k characters lies between 10^-k and
# 10^k times ten to its exponent, and floats lie between about 10^-324 and
# 10^308: beyond this bound plus k the exponent alone puts the value outside
# float range.
_EXPONENT_BOUND = 330


def _coordinate(text: str) -> Fraction:
    """A coordinate of the link format: a rational number that a float can
    hold, since the Gauss sum reads each coordinate as a float.

    An exponent past the bound is refused before the number is built,
    which for an exponent in the millions would take minutes; so is a
    zero mantissa with such an exponent.
    """
    mantissa, e, exponent = text.lower().partition("e")
    try:
        too_far = bool(e) and abs(int(exponent)) > _EXPONENT_BOUND + len(mantissa)
    except ValueError:
        too_far = False  # not a number; Fraction says why
    if too_far:
        raise ValueError(f"coordinate {text} has an exponent outside float range")
    try:
        x = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational coordinate ({exc})") from None
    try:
        if float(x) or not x:
            return x
    except OverflowError:
        pass
    raise ValueError(f"coordinate {text} is outside float range")


def parse_link_text(text: str) -> PolygonalLink:
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
            current.append((_coordinate(parts[0]), _coordinate(parts[1]), _coordinate(parts[2])))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if current:
        blocks.append(current)
    if not blocks:
        raise ValueError("no components in link data")
    return PolygonalLink(tuple(PolygonalCurve(tuple(block)) for block in blocks))


def load_link(path) -> PolygonalLink:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_link_text(fh.read())


def load_curve(path) -> PolygonalCurve:
    """The one curve of a file in the link format, for axis and meridian inputs."""
    components = load_link(path).components
    if len(components) != 1:
        raise ValueError(f"expected one curve, got {len(components)}")
    return components[0]
