"""Independent oracles used by the tests.

None of these share code with the package routines they check: the
linking oracle is direct quadrature of the double line integral (the
Gauss reference is the per-pair solid-angle sum that the package's
shared-term kernel replaced, kept to pin that kernel bit for bit), the
segment-distance and crossing oracles redo the package's exact geometry
on Fractions straight from the rational vertices (the package clears
denominators and works on integers), the rank oracle is Gauss-Jordan elimination over the rationals (the package
eliminates fraction-free over the integers), the intersection-pairing
oracle multiplies differential forms on the four-torus, the form
oracle runs through every sign assignment one copy at a time (the package
keeps one sign prefix per partial Chern class), and the divisibility and
c1 identity oracles pair two vectors entry by entry for every pairing they
need (the package reads each form's pairings off one row of basis
pairings), the dense pairing-row oracles walk every column of every
row they touch (the package keeps each row's nonzero and untracked
entries and visits only those), the report oracle is the standard
library's JSON encoder applied to per-form dicts (the package writes
reports with its own indent-2 writer, and each form with a fixed-key
writer), and the check-grouping oracle walks every form's messages (the
package walks each distinct outcome's messages once).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import product


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


def segment_pair_solid_angle(p0, p1, q0, q1) -> float:
    """Signed solid angle of the quadrilateral of directions between the
    float segments p0p1 and q0q1: the pair's term of 4*pi times the Gauss
    linking integral (two spherical-triangle half-angle terms)."""
    n1, n2, n3, n4 = _sub(p0, q0), _sub(p0, q1), _sub(p1, q1), _sub(p1, q0)
    l1, l2, l3, l4 = (math.sqrt(_dot(n, n)) for n in (n1, n2, n3, n4))
    triple = _dot(n1, _cross(n2, n3))
    d1 = l1 * l2 * l3 + _dot(n1, n2) * l3 + _dot(n2, n3) * l1 + _dot(n3, n1) * l2
    d2 = l1 * l3 * l4 + _dot(n1, n3) * l4 + _dot(n3, n4) * l1 + _dot(n4, n1) * l3
    return 2.0 * (math.atan2(triple, d1) + math.atan2(triple, d2))


def reference_gauss_linking(vertices_a, vertices_b) -> float:
    """The Gauss linking integral as the package computed it before its
    shared-term kernel: floats from the rational vertices, then one
    `segment_pair_solid_angle` per segment pair, summed in row order.
    Same formula and order, so the package's total must equal it bit for
    bit."""
    fa = [tuple(map(float, v)) for v in vertices_a]
    fb = [tuple(map(float, v)) for v in vertices_b]
    total = 0.0
    for p0, p1 in _edges(fa):
        for q0, q1 in _edges(fb):
            total += segment_pair_solid_angle(p0, p1, q0, q1)
    return total / (4.0 * math.pi)


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _edges(vertices):
    return [(vertices[i], vertices[(i + 1) % len(vertices)]) for i in range(len(vertices))]


def fraction_segment_distance_squared(p0, p1, q0, q1) -> Fraction:
    """Exact squared distance between two closed segments: the least of the
    unconstrained minimum (when inside the parameter square) and the
    clamped minima along the four sides."""
    p0, p1, q0, q1 = (tuple(Fraction(x) for x in v) for v in (p0, p1, q0, q1))
    d1 = _sub(p1, p0)
    d2 = _sub(q1, q0)
    w = _sub(p0, q0)
    a = _dot(d1, d1)
    b = _dot(d1, d2)
    c = _dot(d2, d2)
    d = _dot(d1, w)
    e = _dot(d2, w)

    def value(s, t):
        diff = tuple(w[k] + s * d1[k] - t * d2[k] for k in range(3))
        return _dot(diff, diff)

    def clamp(x):
        return Fraction(0) if x < 0 else (Fraction(1) if x > 1 else x)

    candidates = []
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


def fraction_curves_distance_squared(vertices_a, vertices_b) -> Fraction:
    """Exact squared distance between two closed polygons, pair by pair."""
    return min(
        fraction_segment_distance_squared(*ea, *eb)
        for ea in _edges(vertices_a)
        for eb in _edges(vertices_b)
    )


def fraction_first_self_touch(vertices):
    """The first pair (i, j) of non-adjacent edges of a closed polygon at
    distance 0, in row order, or None."""
    edges = _edges(vertices)
    n = len(edges)
    for i in range(n):
        for j in range(i + 2, n):
            if (i, j) != (0, n - 1) and fraction_segment_distance_squared(*edges[i], *edges[j]) == 0:
                return (i, j)
    return None


def fraction_crossing_total(vertices_a, vertices_b, d):
    """Signed crossing total of two closed polygons viewed along d, on
    Fractions with divisions, or the reason the projection is unusable:
    "segment parallel to projection direction", "projected segments
    overlap on a line", "projected crossing at a vertex", "odd signed
    crossing total", or "link not embedded" for two strands at one point.

    The projection plane is spanned by u = d x e_k for the first unit
    vector e_k not parallel to d, and w = d x u; at a crossing the sign
    is the orientation of (over tangent, under tangent) in that plane.
    """
    va = [tuple(Fraction(x) for x in v) for v in vertices_a]
    vb = [tuple(Fraction(x) for x in v) for v in vertices_b]
    d = tuple(Fraction(x) for x in d)
    for vertices in (va, vb):
        for p, q in _edges(vertices):
            if _cross(_sub(q, p), d) == (0, 0, 0):
                return "segment parallel to projection direction"
    for axis in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        u = _cross(d, axis)
        if u != (0, 0, 0):
            break
    w = _cross(d, u)

    def project(p):
        return (_dot(p, u), _dot(p, w))

    def cross2(p, q):
        return p[0] * q[1] - p[1] * q[0]

    total = 0
    for p0, p1 in _edges(va):
        a0, a1 = project(p0), project(p1)
        da = (a1[0] - a0[0], a1[1] - a0[1])
        for q0, q1 in _edges(vb):
            b0, b1 = project(q0), project(q1)
            db = (b1[0] - b0[0], b1[1] - b0[1])
            denom = cross2(da, db)
            offset = (b0[0] - a0[0], b0[1] - a0[1])
            if denom == 0:
                if cross2(da, offset) == 0:
                    t_b0 = da[0] * offset[0] + da[1] * offset[1]
                    t_b1 = t_b0 + da[0] * db[0] + da[1] * db[1]
                    if max(t_b0, t_b1) >= 0 and min(t_b0, t_b1) <= da[0] ** 2 + da[1] ** 2:
                        return "projected segments overlap on a line"
                continue
            t = cross2(offset, db) / denom
            s = cross2(offset, da) / denom
            if t <= 0 or t >= 1 or s <= 0 or s >= 1:
                if 0 <= t <= 1 and 0 <= s <= 1:
                    return "projected crossing at a vertex"
                continue
            h_a = _dot(p0, d) + t * (_dot(p1, d) - _dot(p0, d))
            h_b = _dot(q0, d) + s * (_dot(q1, d) - _dot(q0, d))
            if h_a == h_b:
                return "link not embedded"
            sign_val = cross2(da, db) if h_a > h_b else cross2(db, da)
            total += 1 if sign_val > 0 else -1
    if total % 2:
        return "odd signed crossing total"
    return total


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


def brute_force_forms(recipe) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(signs_flat, c1 coordinates) of each distinct c1, in first-seen order.

    Every assignment of +1/-1 to the copies glued along Lagrangian tori
    is tried, plus before minus, the other copies keeping the recipe's
    signs; each copy with sign e adds -e*[T] to the base c1.
    """
    table = {t.label: t for t in recipe.tori}
    copies = [
        (table[g.torus_label], sign) for g in recipe.gluings for sign in g.signs
    ]
    flippable = [i for i, (torus, _) in enumerate(copies) if torus.kind == "lagrangian"]
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    for bits in product((1, -1), repeat=len(flippable)):
        signs = [sign for _, sign in copies]
        for i, bit in zip(flippable, bits):
            signs[i] = bit
        c1 = list(recipe.base.c1.coords)
        for (torus, _), sign in zip(copies, signs):
            c1 = [c - sign * t for c, t in zip(c1, torus.klass.coords)]
        seen.setdefault(tuple(c1), tuple(signs))
    return [(signs, c1) for c1, signs in seen.items()]


def pairwise_pairing(entries, u, v):
    """<u, v> summed entry by entry over the nonzero coordinates of both;
    None as soon as such a pair of coordinates meets an untracked entry."""
    total = 0
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            if a and b:
                if entries[i][j] is None:
                    return None
                total += a * entries[i][j] * b
    return total


def _unit(dim, index):
    return tuple(int(i == index) for i in range(dim))


def pairwise_divisibility_bounds(c, entries, duals=()):
    """(lower, upper, exact, undefined) for c: lower is the gcd of the
    coordinates, upper the gcd of every tracked pairing of c with a basis
    vector or a dual class, each paired separately."""
    c = tuple(c)
    if not any(c):
        return 0, 0, False, True
    lower = math.gcd(*c)
    upper = 0
    for v in [_unit(len(c), j) for j in range(len(c))] + [tuple(u) for u in duals]:
        p = pairwise_pairing(entries, c, v)
        if p is not None:
            upper = math.gcd(upper, p)
    return lower, upper, upper != 0 and lower == upper, False


def pairwise_c1_identities(manifold, c1, extra_classes=None):
    """(passed, failed, skipped) messages of the almost-complex checks on
    one c1, each pairing computed on its own. An extra class with a basis
    class's name and vector is the same check and runs once."""
    entries = manifold.pairing.entries
    labels = manifold.lattice_basis_labels
    c1 = tuple(c1)
    passed, failed, skipped = [], [], []
    square = pairwise_pairing(entries, c1, c1)
    target = 2 * manifold.euler + 3 * manifold.signature
    label = f"<c1,c1> = 2e + 3sigma = {target}"
    if square is None:
        skipped.append(label + " (pairing untracked)")
    elif square == target:
        passed.append(label)
    else:
        failed.append(f"<c1,c1> = {square}, expected {target}")
    classes = [(name, _unit(len(labels), j)) for j, name in enumerate(labels)]
    for name, vec in (extra_classes or {}).items():
        if (name, tuple(vec)) not in classes:
            classes.append((name, tuple(vec)))
    for name, vec in classes:
        self_pairing = pairwise_pairing(entries, vec, vec)
        label = f"parity of <c1, {name}>"
        if self_pairing is None:
            skipped.append(label + " (self-pairing untracked)")
            continue
        cp = pairwise_pairing(entries, c1, vec)
        if cp is None:
            skipped.append(label + " (c1 pairing untracked)")
        elif (cp - self_pairing) % 2 == 0:
            passed.append(label)
        else:
            failed.append(
                f"characteristic parity fails on {name}: "
                f"<c1, {name}> = {cp}, <{name}, {name}> = {self_pairing}"
            )
    return tuple(passed), tuple(failed), tuple(skipped)


def dense_basis_pairings(entries, v):
    """Pairings of v against every basis vector: each row selected by a
    nonzero coordinate of v is added column by column, and a column turns
    None once any such row leaves it untracked."""
    out = [0] * len(entries)
    for a, row in zip(v, entries):
        if a:
            out = [None if o is None or e is None else o + a * e for o, e in zip(out, row)]
    return tuple(out)


def dense_row_pairing(row, v):
    """<c, v> from c's basis pairings ``row``, walking every coordinate of
    v; None when a nonzero coordinate meets an untracked entry."""
    total = 0
    for b, p in zip(v, row):
        if b:
            if p is None:
                return None
            total += b * p
    return total


def json_report(doc) -> str:
    """A machine report's text, as ``json.dumps`` writes it."""
    return json.dumps(doc, indent=2, sort_keys=True)


def divisibility_doc(r) -> dict:
    return {
        "lower": str(r.lower),
        "upper": str(r.upper),
        "exact": r.exact,
        "undefined": r.undefined,
    }


def form_doc(f) -> dict:
    """A form's entry in a machine report's ``forms[]``, as a dict."""
    return {
        "signs": [str(s) for s in f.signs_flat],
        "c1": [str(c) for c in f.c1.coords],
        "divisibility": divisibility_doc(f.divisibility),
    }


def per_form_check_entries(name, forms, reports, first_form=0):
    """The check entries and table lines of a report's form checks, grouped
    by message one form at a time: (entries, lines)."""
    groups = {}
    failures = []
    lines = []
    for index, (form, report) in enumerate(zip(forms, reports), first_form):
        for status, messages in (("pass", report.passed), ("skipped", report.skipped)):
            for msg in dict.fromkeys(messages):
                groups.setdefault(msg, [status, 0])[1] += 1
        for msg in report.failed:
            signs = "".join("+" if s > 0 else "-" for s in form.signs_flat)
            failures.append({"check": f"{name} form {index} signs {signs}: {msg}", "status": "fail"})
            lines.append(f"  [   fail] {name} signs {signs}: {msg}")
    entries = [
        {"check": f"{name}: {msg}", "status": status, "detail": f"{count} of {len(reports)} forms"}
        for msg, (status, count) in groups.items()
    ] + failures
    return entries, lines
