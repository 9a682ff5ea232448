import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from fibresum.errors import EmbeddingError, IllConditionedError
from fibresum.linkgeom import (
    PolygonalCurve,
    PolygonalLink,
    linking_number_crossings,
    linking_number_gauss,
    linking_number_verified,
    linking_numbers,
    load_link,
    parse_link_text,
    torus_relation,
)
from fibresum import linkgeom
from fibresum.settings import bundled_path
from fixtures import (
    borromean_axis,
    borromean_meridian,
    borromean_rings,
    hopf_link,
    perturb_curve,
    reversed_curve,
    split_link,
    square_loop,
)
from oracles import (
    fraction_crossing_total,
    fraction_curves_distance_squared,
    fraction_first_self_touch,
    fraction_segment_distance_squared,
    quadrature_linking,
    reference_gauss_linking,
)

GOLDEN = Path(__file__).parent / "golden"


def test_hopf_link_is_plus_one_both_ways():
    a, b = hopf_link().components
    assert linking_number_crossings(a, b) == 1
    assert abs(linking_number_gauss(a, b) - 1.0) < 1e-6
    assert linking_number_verified(a, b) == 1


def test_gauss_integral_matches_direct_quadrature():
    # Pins the overall sign convention against an implementation that
    # shares nothing with the solid-angle evaluation.
    a, b = hopf_link().components
    assert abs(quadrature_linking(a, b, samples=40) - 1.0) < 1e-2
    s, t = split_link().components
    assert abs(quadrature_linking(s, t, samples=24)) < 1e-2


def test_split_link_is_zero():
    a, b = split_link().components
    assert linking_number_crossings(a, b) == 0
    assert abs(linking_number_gauss(a, b)) < 1e-6


def test_borromean_pairwise_unlinked():
    rings = borromean_rings()
    for i in range(3):
        for j in range(i + 1, 3):
            a, b = rings.components[i], rings.components[j]
            assert linking_number_crossings(a, b) == 0
            assert abs(linking_number_gauss(a, b)) < 1e-6


def test_axis_links_each_component_once():
    rings = borromean_rings()
    axis = borromean_axis()
    for comp in rings.components:
        assert linking_number_verified(axis, comp) == 1
    assert linking_numbers(rings, axis)[1] == [1, 1, 1]


def test_symmetry_and_orientation_reversal():
    a, b = hopf_link().components
    d = (3, 5, 7)
    assert linking_number_crossings(a, b, d) == linking_number_crossings(b, a, d)
    assert linking_number_crossings(reversed_curve(a), b) == -1
    assert linking_number_crossings(a, reversed_curve(b)) == -1
    assert linking_number_crossings(reversed_curve(a), reversed_curve(b)) == 1


def test_degenerate_supplied_direction_is_retried():
    a, b = hopf_link().components
    # (1, 0, 0) is parallel to edges of both squares; the deterministic
    # retry must land on a generic direction and still agree.
    assert linking_number_crossings(a, b, (1, 0, 0)) == 1
    assert linking_number_crossings(a, b, (0, 0, 1)) == 1
    with pytest.raises(ValueError):
        linking_number_crossings(a, b, (0, 0, 0))


def test_projection_invariance_over_20_directions():
    a, b = hopf_link().components
    rings = borromean_rings()
    axis = borromean_axis()
    rng = random.Random(99)
    for _ in range(20):
        d = (rng.randint(-300, 300), rng.randint(-300, 300), rng.randint(-300, 300))
        if d == (0, 0, 0):
            d = (1, 1, 1)
        assert linking_number_crossings(a, b, d) == 1
        assert linking_number_crossings(axis, rings.components[0], d) == 1


def test_meridians_give_standard_basis_vectors():
    rings = borromean_rings()
    for i in range(3):
        coords = linking_numbers(rings, borromean_meridian(i))[1]
        expected = [1 if j == i else 0 for j in range(3)]
        assert coords == expected


def test_far_loop_has_zero_coordinates():
    rings = borromean_rings()
    loop = square_loop((30, 30, 30))
    assert linking_numbers(rings, loop)[1] == [0, 0, 0]


def test_torus_relation_from_builtin_data():
    rings = borromean_rings()
    assert torus_relation(*linking_numbers(rings, borromean_axis())) == (1, 1, 1)
    assert torus_relation(*linking_numbers(rings, borromean_meridian(0))) == (1, 0, 0)


def test_two_parallel_axis_copies():
    rings = borromean_rings()
    first = borromean_axis()
    second = borromean_axis(Fraction(1, 8))
    assert torus_relation(*linking_numbers(rings, first)) == (1, 1, 1)
    assert torus_relation(*linking_numbers(rings, second)) == (1, 1, 1)
    assert linking_number_crossings(first, second) == 0
    # The parallel copies really are disjoint from everything.
    PolygonalLink(rings.components + (first, second))


def test_relation_requires_three_surgery_components():
    with pytest.raises(ValueError, match="3-component"):
        torus_relation([[0, 0], [0, 0]], [1, 1])


def test_linking_numbers_on_perturbed_borromean_rings():
    rng = random.Random(515)
    rings = borromean_rings()
    axis = borromean_axis()
    for _ in range(5):
        link = PolygonalLink(tuple(perturb_curve(c, rng) for c in rings.components))
        moved_axis = perturb_curve(axis, rng)
        matrix, axis_coords = linking_numbers(link, moved_axis, seed=rng.randrange(100))
        comps = link.components
        for i in range(3):
            assert matrix[i][i] == 0
            for j in range(3):
                assert matrix[i][j] == matrix[j][i]
                if i != j:
                    assert matrix[i][j] == linking_number_crossings(comps[i], comps[j])
        assert axis_coords == [linking_number_crossings(moved_axis, c) for c in comps]
        assert axis_coords == [1, 1, 1]


def test_oracle_agreement_on_perturbed_corpus():
    rng = random.Random(2024)
    rings = borromean_rings()
    axis = borromean_axis()
    checked = 0
    for _ in range(10):
        a = perturb_curve(hopf_link().components[0], rng)
        b = perturb_curve(hopf_link().components[1], rng)
        PolygonalLink((a, b))
        exact = linking_number_crossings(a, b)
        assert exact == 1
        assert abs(linking_number_gauss(a, b) - exact) < 1e-6
        checked += 1
    for _ in range(10):
        comps = tuple(perturb_curve(c, rng) for c in rings.components)
        moved_axis = perturb_curve(axis, rng)
        PolygonalLink(comps + (moved_axis,))
        for comp in comps:
            exact = linking_number_crossings(moved_axis, comp)
            assert exact == 1
            assert abs(linking_number_gauss(moved_axis, comp) - exact) < 1e-6
        checked += 1
    assert checked == 20


def test_collinear_edges_do_not_exhaust_retries():
    # Edges of these squares lie on common spatial lines, so their
    # projections are collinear in every direction; that must read as
    # "no crossing", not as a degenerate projection.
    a = PolygonalCurve(((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)))
    b = PolygonalCurve(((3, 0, 0), (4, 0, 0), (4, 1, 0), (3, 1, 0)))
    assert linking_number_crossings(a, b) == 0
    assert abs(linking_number_gauss(a, b)) < 1e-6
    # Nested coplanar squares: still unlinked, projections overlap.
    outer = PolygonalCurve(((0, 0, 0), (10, 0, 0), (10, 10, 0), (0, 10, 0)))
    inner = PolygonalCurve(((4, 4, 0), (6, 4, 0), (6, 6, 0), (4, 6, 0)))
    assert linking_number_crossings(outer, inner) == 0
    assert abs(linking_number_gauss(outer, inner)) < 1e-6


def test_random_skew_polygons_agree_across_methods():
    rng = random.Random(60221023)

    def random_polygon():
        for _ in range(50):
            pts = tuple(
                (
                    Fraction(rng.randint(-24, 24), 4),
                    Fraction(rng.randint(-24, 24), 4),
                    Fraction(rng.randint(-24, 24), 4),
                )
                for _ in range(rng.choice((3, 4)))
            )
            try:
                return PolygonalCurve(pts)
            except EmbeddingError:
                continue
        raise AssertionError("could not build a random polygon")

    checked = linked = 0
    while checked < 30:
        a, b = random_polygon(), random_polygon()
        try:
            PolygonalLink((a, b))
        except EmbeddingError:
            continue
        exact = linking_number_crossings(a, b)
        gauss = linking_number_gauss(a, b)
        assert abs(gauss - exact) < 1e-6
        assert gauss == reference_gauss_linking(a.vertices, b.vertices)
        checked += 1
        linked += exact != 0
    assert linked > 0  # the corpus is not all trivial


def test_non_disjoint_curves_rejected():
    a = PolygonalCurve(((0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0)))
    # b has a vertex on a's first edge.
    b = PolygonalCurve(((1, 0, 0), (3, 0, 1), (3, 0, -1)))
    with pytest.raises(EmbeddingError, match="link not embedded"):
        linking_number_crossings(a, b)
    with pytest.raises(EmbeddingError, match="link not embedded"):
        linking_number_gauss(a, b)


def test_curve_validation_rejects_degenerate_input():
    with pytest.raises(EmbeddingError):
        PolygonalCurve(((0, 0, 0), (1, 0, 0)))
    with pytest.raises(EmbeddingError):
        PolygonalCurve(((0, 0, 0), (1, 0, 0), (1, 0, 0), (0, 1, 0)))
    # Figure-eight style self-intersection.
    with pytest.raises(EmbeddingError):
        PolygonalCurve(((0, 0, 0), (2, 2, 0), (2, 0, 0), (0, 2, 0)))


def test_link_validation_rejects_touching_components():
    a = PolygonalCurve(((0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0)))
    touching = PolygonalCurve(((1, 0, 0), (3, 0, 1), (3, 0, -1)))
    with pytest.raises(EmbeddingError):
        PolygonalLink((a, touching))


def test_linking_job_scans_each_pair_once(monkeypatch, tmp_path, capsys):
    # Three link pairs proved apart when the link is built, then three
    # axis pairs: the crossing counts and Gauss guards rescan none of them.
    from fibresum.cli import main

    calls = []
    original = linkgeom._separation_squared

    def counted(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(linkgeom, "_separation_squared", counted)
    monkeypatch.chdir(tmp_path)
    assert main(["linking", "--link", "borromean.lnk", "--axis", "axis.lnk"]) == 0
    assert "axis linking: (1, 1, 1)" in capsys.readouterr().out
    assert len(calls) == 6


def test_ill_conditioned_guard():
    a = PolygonalCurve(((0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0)))
    # Hovers a hair above a's first edge without touching it.
    eps = Fraction(1, 10**9)
    b = PolygonalCurve(((1, 0, eps), (1, 1, 1), (1, -1, 1)))
    with pytest.raises(IllConditionedError, match="ill-conditioned"):
        linking_number_gauss(a, b)
    # The exact route does not care about near-touching geometry.
    assert linking_number_crossings(a, b) == 0


def test_parse_link_text_rationals_and_comments():
    text = """
    # a single tilted square
    1/2 0 0
    0 1/2 0   # trailing comment

    -1/2 0 0
    0 -1/2 0
    """
    # Two blocks of two vertices each is invalid (closed curves need 3).
    with pytest.raises(EmbeddingError):
        parse_link_text(text)
    link = parse_link_text("0 0 0\n1 0 0\n0 1 0\n\n5 5 5\n6 5 5\n5 6 5\n")
    assert len(link.components) == 2


def test_load_link_accepts_a_byte_order_mark(tmp_path):
    text = "0 0 0\n1 0 0\n0 1 0\n\n5 5 5\n6 5 5\n5 6 5\n"
    path = tmp_path / "bom.lnk"
    path.write_text("\ufeff" + text, encoding="utf-8")
    assert load_link(path) == parse_link_text(text)


def test_parse_link_text_errors():
    with pytest.raises(ValueError, match="no components"):
        parse_link_text("# nothing here\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_link_text("1 2\n")
    with pytest.raises(ValueError, match="bad rational"):
        parse_link_text("1 2 x\n")
    # Coordinates a float cannot hold, in a file with a second component.
    # An exponent alone past float range is refused before the number is
    # built; the others are refused once they are.
    second = "\n5 5 5\n6 5 5\n5 6 5\n"
    for far, why in (
        ("1e400", "has an exponent outside"),
        ("1e2000000", "has an exponent outside"),
        ("-1E-2000000", "has an exponent outside"),
        ("0e999", "has an exponent outside"),
        ("1.8e308", "is outside"),
        ("1e-330", "is outside"),
        ("1" + "0" * 400, "is outside"),
        ("1/" + "9" * 400, "is outside"),
    ):
        with pytest.raises(ValueError, match=f"^line 2: coordinate {far} {why} float range$"):
            parse_link_text(f"0 0 0\n{far} 0 0\n0 1 0\n" + second)
    # Zero and the extremes a float holds are accepted.
    parse_link_text("0e99 0 0\n1.7e308 0 0\n0 5e-324 1\n" + second)


def test_bundled_link_files_match_builders():
    rings = load_link(bundled_path("borromean.lnk"))
    assert rings.components == borromean_rings().components
    axis = load_link(bundled_path("axis.lnk")).components[0]
    assert axis == borromean_axis()


# ---------------------------------------------------------------------------
# The integer kernel against the Fraction reference in tests/oracles.py.
# ---------------------------------------------------------------------------


def _kernel_separation(a, b):
    num, den = linkgeom._separation_squared(a, b)
    return Fraction(num, den)


def _kernel_crossings(a, b, d):
    try:
        return linkgeom._signed_crossing_total(a, b, d)
    except (linkgeom._Degenerate, EmbeddingError) as exc:
        return str(exc)


def _random_vertices(rng):
    # A coarse half-integer grid, so vertices often land on other edges.
    return [
        tuple(Fraction(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(3))
        for _ in range(rng.randint(3, 8))
    ]


def test_segment_distance_matches_fraction_oracle():
    rng = random.Random(4711)
    checked = 0
    while checked < 2000:
        p0, p1, q0, q1 = (tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(4))
        if p0 == p1 or q0 == q1:
            continue
        d1 = tuple(x - y for x, y in zip(p1, p0))
        d2 = tuple(x - y for x, y in zip(q1, q0))
        num, den = linkgeom._segment_distance_squared(p0, d1, q0, d2)
        assert Fraction(num, den) == fraction_segment_distance_squared(p0, p1, q0, q1)
        checked += 1


def test_kernel_matches_fraction_oracle_on_random_polygons():
    rng = random.Random(31337)
    curves = []
    self_touching = 0
    while len(curves) < 60:
        verts = _random_vertices(rng)
        try:
            curves.append(PolygonalCurve(verts))
        except EmbeddingError as exc:
            named = re.fullmatch(r"segments (\d+) and (\d+) intersect", str(exc))
            if named:
                assert fraction_first_self_touch(verts) == (int(named[1]), int(named[2]))
                self_touching += 1
            continue
        assert fraction_first_self_touch(verts) is None
    outcomes = set()
    touching = 0
    for a, b in zip(curves[::2], curves[1::2]):
        exact = fraction_curves_distance_squared(a.vertices, b.vertices)
        assert _kernel_separation(a, b) == exact
        try:
            PolygonalLink((a, b))
        except EmbeddingError:
            assert exact == 0
            touching += 1
        else:
            assert exact > 0
        for _ in range(4):
            d = tuple(rng.randint(-2, 2) for _ in range(3))
            if d == (0, 0, 0):
                continue
            expected = fraction_crossing_total(a.vertices, b.vertices, d)
            assert _kernel_crossings(a, b, d) == expected
            outcomes.add(expected if isinstance(expected, str) else "total")
    # The corpus reaches the interesting branches, not only generic pairs.
    assert self_touching > 0 and touching > 0
    assert outcomes == {
        "total",
        "segment parallel to projection direction",
        "projected segments overlap on a line",
        "projected crossing at a vertex",
        "link not embedded",
    }


def test_kernel_matches_oracle_on_perturbed_refinements():
    rng = random.Random(8)
    rings = borromean_rings()
    axis = borromean_axis()
    comps = [perturb_curve(c, rng, denominator=1024, amplitude=16) for c in rings.components]
    moved_axis = perturb_curve(axis, rng, denominator=999, amplitude=16)
    for comp in comps:
        assert linking_number_gauss(moved_axis, comp) == reference_gauss_linking(
            moved_axis.vertices, comp.vertices
        )
        assert _kernel_separation(moved_axis, comp) == fraction_curves_distance_squared(
            moved_axis.vertices, comp.vertices
        )
        d = (3, -7, 11)
        assert _kernel_crossings(moved_axis, comp, d) == fraction_crossing_total(
            moved_axis.vertices, comp.vertices, d
        )


@pytest.mark.parametrize("link, axis", [("borromean16.lnk", "borromean16-axis.lnk"), ("hopf32.lnk", None)])
def test_gauss_kernel_matches_the_reference_on_golden_links(link, axis):
    curves = load_link(GOLDEN / link).components
    if axis is not None:
        curves += load_link(GOLDEN / axis).components
    for i, a in enumerate(curves):
        for b in curves[i + 1 :]:
            assert linking_number_gauss(a, b) == reference_gauss_linking(a.vertices, b.vertices)


def test_kernels_match_the_references_off_the_dyadic_grid():
    # Thirds, sevenths, tenths and 999ths round when read as floats, so the
    # Gauss sum's association order shows in its last bits; the second
    # curve is shifted by a random offset, so the separation scan prunes
    # many segment pairs by their bounding boxes.
    rng = random.Random(5)

    def random_polygon(den, offset):
        while True:
            verts = [
                tuple(Fraction(rng.randint(-3 * den, 3 * den), den) + o for o in offset)
                for _ in range(rng.randint(3, 7))
            ]
            try:
                return PolygonalCurve(verts)
            except EmbeddingError:
                continue

    for _ in range(100):
        den = rng.choice((3, 7, 10, 999))
        a = random_polygon(den, (0, 0, 0))
        b = random_polygon(den, tuple(rng.randint(-4, 4) for _ in range(3)))
        separation = _kernel_separation(a, b)
        assert separation == fraction_curves_distance_squared(a.vertices, b.vertices)
        if separation > Fraction(1, 10**10):
            assert linking_number_gauss(a, b) == reference_gauss_linking(a.vertices, b.vertices)


SQUARE = PolygonalCurve(((0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0)))


@pytest.mark.parametrize(
    "other, touching, direction, outcome",
    [
        # A vertex on an edge.
        (((1, 0, 0), (3, 0, 1), (3, 0, -1)), True, (1, 2, 3), None),
        # Collinear overlap with the edge from (0, 0, 0) to (2, 0, 0).
        (((1, 0, 0), (3, 0, 0), (3, 1, 1)), True, (1, 2, 3), "projected segments overlap on a line"),
        # A vertex straight above an edge, viewed from above.
        (((1, 0, 1), (3, -2, 2), (-1, -2, 2)), False, (0, 0, 1), "projected crossing at a vertex"),
        # An edge parallel to the viewing direction.
        (((1, 1, 1), (1, 3, 1), (1, 3, -1), (1, 1, -1)), False, (1, 0, 0), "segment parallel to projection direction"),
        # Two strands through one point, seen as a crossing.
        (((1, -1, 0), (1, 1, 0), (5, 7, 9)), True, (0, 0, 1), "link not embedded"),
    ],
)
def test_kernel_matches_oracle_on_built_cases(other, touching, direction, outcome):
    b = PolygonalCurve(other)
    exact = fraction_curves_distance_squared(SQUARE.vertices, b.vertices)
    assert (exact == 0) == touching
    assert _kernel_separation(SQUARE, b) == exact
    expected = fraction_crossing_total(SQUARE.vertices, b.vertices, direction)
    assert _kernel_crossings(SQUARE, b, direction) == expected
    if outcome is not None:
        assert expected == outcome


def _parallel(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]) == (0, 0, 0)


def test_self_touching_edges_named_like_the_oracle():
    for verts in (
        # The fourth vertex lies on the first edge.
        ((0, 0, 0), (4, 0, 0), (4, 1, 0), (3, 0, 0), (3, -1, 1)),
        # Two edges cross at their midpoints in space.
        ((0, 0, 0), (4, 4, 2), (4, 0, 0), (0, 4, 2)),
        # A vertex on the first edge, with its two edges on either side.
        ((0, 0, 0), (4, 0, 0), (4, 2, 0), (2, 0, 0), (0, 2, 0)),
    ):
        touch = fraction_first_self_touch(verts)
        assert touch is not None
        with pytest.raises(EmbeddingError, match=f"segments {touch[0]} and {touch[1]} intersect"):
            PolygonalCurve(verts)
    # Random integer polygons in a 4 x 4 x 4 box, where touches are
    # common. Polygons with coinciding or backtracking neighbours are
    # rejected before any touch test, so the corpus leaves them out.
    rng = random.Random(1618)
    accepted = rejected = 0
    while accepted + rejected < 300:
        verts = [tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(rng.randint(3, 8))]
        edges = [tuple(q[k] - p[k] for k in range(3)) for p, q in zip(verts, verts[1:] + verts[:1])]
        if any(e == (0, 0, 0) for e in edges) or any(
            _parallel(u, v) and sum(a * b for a, b in zip(u, v)) < 0
            for u, v in zip(edges, edges[1:] + edges[:1])
        ):
            continue
        touch = fraction_first_self_touch(verts)
        if touch is None:
            PolygonalCurve(verts)
            accepted += 1
        else:
            with pytest.raises(EmbeddingError, match=f"^segments {touch[0]} and {touch[1]} intersect$"):
                PolygonalCurve(verts)
            rejected += 1
    assert accepted > 30 and rejected > 30


@pytest.mark.parametrize("micro, ill_conditioned", [(Fraction(999, 1000), True), (Fraction(1001, 1000), False)])
def test_gauss_guard_at_the_separation_threshold(micro, ill_conditioned):
    eps = micro / 10**6
    b = PolygonalCurve(((1, 0, eps), (1, 1, 1), (1, -1, 1)))
    assert _kernel_separation(SQUARE, b) == eps * eps
    assert fraction_curves_distance_squared(SQUARE.vertices, b.vertices) == eps * eps
    if ill_conditioned:
        with pytest.raises(IllConditionedError, match="ill-conditioned"):
            linking_number_gauss(SQUARE, b)
    else:
        assert abs(linking_number_gauss(SQUARE, b)) < 1e-6
    assert linking_number_crossings(SQUARE, b) == 0
