import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import SCALED_PAIRS, placed_triangle, random_triangle, scaled_pair
from oracles import (centers_decimal, circumcircle, cosines_decimal, euler_centers_decimal,
                     excenters_decimal, incircle, stack_tris, trilinear_to_cartesian)
from orbitconics import (
    ORTHIC_CB_CENTER,
    BilliardShape,
    DegenerateTriangle,
    Point,
    PointAtInfinity,
    RightTriangle,
    ShapeClass,
    Triangle,
    UndefinedForShape,
    act,
    caustic,
    center,
    classify_triangle,
    excentral,
    medial,
    orbit,
    orthic,
    orthic_cb_center,
    orthic_center_transition,
    right_angle_vertex,
)
from orbitconics.centers import SUPPORTED_CENTERS, center_of
from orbitconics.kernel import Skips

EQUILATERAL = Triangle(
    Point(1.0, 0.0),
    Point(-0.5, math.sqrt(3.0) / 2.0),
    Point(-0.5, -math.sqrt(3.0) / 2.0),
)
RIGHT_345 = Triangle(Point(0.0, 0.0), Point(4.0, 0.0), Point(0.0, 3.0))


def test_equilateral_centers_coincide_at_centroid():
    for idx in (1, 2, 3, 4, 5, 6, 7, 9, 10):
        assert center(EQUILATERAL, idx).norm() <= 1e-12


def test_x1156_undefined_for_equilateral():
    # the second's sides, 1.732050807568877, ...779 and ...772, differ only by rounding
    angles = (0.1, 0.1 + 2.0 * math.pi / 3.0, 0.1 + 4.0 * math.pi / 3.0)
    rounded = Triangle(*(Point(math.cos(a), math.sin(a)) for a in angles))
    assert len(set(rounded.sidelengths())) == 3
    for t in (EQUILATERAL, rounded):
        for idx in (1156, 100, 11):
            with pytest.raises(UndefinedForShape, match="equilateral within rounding"):
                center(t, idx)


def test_x1156_is_the_vertex_where_a_denominator_cancels_to_zero():
    # sides (4, 4.5, 2.5): (s2 - s3)^2 + s1 (s2 + s3 - 2 s1) = 4 - 4 cancels to zero, so the
    # trilinears (1/0 : 1/d2 : 1/d3) are p1's and the barycentrics (s1 d2 d3 : 0 : 0) place it
    t = Triangle(Point(0.25, math.sqrt(6.1875)), Point(0.0, 0.0), Point(4.0, 0.0))
    assert t.sidelengths() == (4.0, 4.5, 2.5)
    assert center(t, 1156).dist(t.p1) <= 1e-15 * 4.5
    want = centers_decimal([p.as_tuple() for p in t.vertices], 100)
    assert abs(center(t, 100).z - want) <= 1e-15 * 4.5


def test_incenter_of_345():
    # incircle radius (3 + 4 - 5) / 2 = 1, tangent to both legs
    assert center(RIGHT_345, 1).dist(Point(1.0, 1.0)) <= 1e-12


def test_euler_line_centers_of_345():
    # a right triangle's orthocenter is its right-angle vertex, and X5 is halfway to X3 = (2, 1.5)
    assert center(RIGHT_345, 4).dist(Point(0.0, 0.0)) <= 1e-12
    assert center(RIGHT_345, 5).dist(Point(1.0, 0.75)) <= 1e-12


def _moved(rng, t, alpha):
    """``t`` rotated, scaled by 10^[-1, 1] and moved by up to twice that times alpha."""
    rotation, log_scale = rng.uniform(0.0, 2 * math.pi), rng.uniform(-1.0, 1.0)
    c, s, scale = math.cos(rotation), math.sin(rotation), 10.0**log_scale
    ox, oy = rng.uniform(-2.0, 2.0, size=2) * scale * alpha
    return Triangle.from_coords(
        [(scale * (c * p.x - s * p.y) - ox, scale * (s * p.x + c * p.y) - oy) for p in t.vertices]
    )


@pytest.mark.parametrize("alpha", [1.0 + 1e-7, 1.01, 1.5, 2.0, 5.0, 10.0, 30.0, 100.0, 300.0])
def test_euler_line_centers_match_a_decimal_oracle(rng, alpha):
    # moved orbit triangles and their excentral triangles, within 1e-11 of the longest side
    shape = BilliardShape(alpha, 1.0)
    for k in range(60):
        tri = orbit(shape, (k + 0.5) * 2 * math.pi / 60).triangle
        for t in (tri, excentral(tri)):
            moved = _moved(rng, t, alpha)
            h, n = euler_centers_decimal([p.as_tuple() for p in moved.vertices])
            tol = 1e-11 * max(moved.sidelengths())
            assert abs(center(moved, 4).z - h) <= tol
            assert abs(center(moved, 5).z - n) <= tol


@pytest.mark.parametrize("alpha", [1.0 + 1e-7, 1.00001, 1.5, 10.0, 100.0, 1000.0])
def test_cosines_match_a_decimal_oracle(rng, alpha):
    # moved orbit triangles, within 1e-15 absolute
    shape = BilliardShape(alpha, 1.0)
    for k in range(60):
        moved = _moved(rng, orbit(shape, (k + 0.5) * 2 * math.pi / 60).triangle, alpha)
        want = cosines_decimal([p.as_tuple() for p in moved.vertices])
        assert moved.cosines() == pytest.approx(want, rel=0.0, abs=1e-15)


#: Bound on each center's error against ``centers_decimal`` on the moved orbit
#: triangles below, about twice the worst measured, over the longest side; for
#: X11, X100 and X1156, whose weights are products of side differences, over
#: EPS s_max / max |s_j - s_k| times the longest side.
DECIMAL_ORACLE_BOUNDS = {
    1: 1e-15, 2: 1e-15, 3: 2e-12, 4: 5e-12, 5: 1e-12, 6: 1e-15, 7: 1e-15, 8: 1e-15, 9: 1e-14,
    10: 1e-15, 11: 5.0, 40: 5e-12, 69: 1e-15, 100: 5.0, 142: 5e-15, 144: 2e-15, 168: 1e-8,
    1156: 8.0,
}


def _oracle_tolerance(t, index):
    """DECIMAL_ORACLE_BOUNDS of the longest side, over the sides' relative spread for X11, X100, X1156."""
    sides = t.sidelengths()
    tol = DECIMAL_ORACLE_BOUNDS[index] * max(sides)
    if index in (11, 100, 1156):
        spread = max(abs(sides[1] - sides[2]), abs(sides[2] - sides[0]), abs(sides[0] - sides[1]))
        tol *= sys.float_info.epsilon * max(sides) / spread
    return tol


#: The direct centers and their affine combinations X142 and X144: every step scales exactly by a
#: power of two (X3 and the centers built on it do not yet, ROADMAP item 10).
EXACTLY_SCALED_CENTERS = (1, 2, 6, 7, 8, 9, 10, 11, 69, 100, 142, 144, 1156)


@settings(max_examples=200, deadline=None)
@given(**SCALED_PAIRS)
def test_direct_centers_scale_exactly_by_a_power_of_two(apex_x, log_height, angle, offset, k):
    pair = scaled_pair(apex_x, log_height, angle, offset, k)
    if pair is None:
        return
    unit, scaled = pair
    for index in EXACTLY_SCALED_CENTERS:
        try:
            want = center(unit, index)
        except (UndefinedForShape, PointAtInfinity) as exc:  # refusals that do not read the scale
            with pytest.raises(type(exc)):
                center(scaled, index)
            continue
        try:
            got = center(scaled, index)
        except ValueError:  # "non-finite triangle center": 2^k times it is past the float range
            assert math.frexp(max(abs(want.x), abs(want.y)))[1] + k > 1019
            continue
        assert (got.x, got.y) == (math.ldexp(want.x, k), math.ldexp(want.y, k)), index


@pytest.mark.parametrize("k", [-150, -110, -108, -105, -70, -60, 0, 103, 150, 300])
@pytest.mark.parametrize("index", [1, 6, 9, 69, 142, 144, 1156])
def test_direct_centers_match_a_decimal_oracle_at_every_scale(index, k):
    # weight times vertex underflowed below 1e-105 and the weights overflowed from 1e103
    vertices = [(0.0, 0.0), (3 * 10.0**k, 0.0), (10.0**k, 2 * 10.0**k)]
    t = Triangle.from_coords(vertices)
    want = centers_decimal(vertices, index)
    assert abs(center(t, index).z - want) <= _oracle_tolerance(t, index)


@pytest.mark.parametrize("index", sorted(SUPPORTED_CENTERS))
@pytest.mark.parametrize("alpha", [1.0 + 1e-5, 1.5, 10.0, 100.0, 300.0])
def test_every_center_matches_a_decimal_oracle(rng, alpha, index):
    shape = BilliardShape(alpha, 1.0)
    for k in range(24):
        moved = _moved(rng, orbit(shape, (k + 0.5) * 2 * math.pi / 24).triangle, alpha)
        want = centers_decimal([p.as_tuple() for p in moved.vertices], index)
        assert abs(center(moved, index).z - want) <= _oracle_tolerance(moved, index)


def test_trilinear_equilateral_centroid():
    p = trilinear_to_cartesian(EQUILATERAL, (1.0, 1.0, 1.0))
    assert p.norm() <= 1e-12


def test_trilinear_point_at_infinity():
    s1, s2, s3 = RIGHT_345.sidelengths()
    with pytest.raises(PointAtInfinity):
        trilinear_to_cartesian(RIGHT_345, (1.0, 1.0, -(s1 + s2) / s3))


def test_mittenpunkt_stationary():
    for alpha in (1.2, 1.5, 1.618, 2.5):
        shape = BilliardShape(alpha, 1.0)
        for k in range(72):
            t = (k + 0.5) * 2 * math.pi / 72
            tri = orbit(shape, t).triangle
            assert center(tri, 9).norm() <= 1e-9 * shape.a


def test_collinear_chain_ratios():
    shape = BilliardShape(1.5, 1.0)
    for k in range(72):
        tri = orbit(shape, (k + 0.5) * 2 * math.pi / 72).triangle
        x7 = center(tri, 7)
        x142 = center(tri, 142)
        x2 = center(tri, 2)
        x9 = center(tri, 9)
        x144 = center(tri, 144)
        d1, d2 = x7.dist(x142), x142.dist(x2)
        d3, d4 = x2.dist(x9), x9.dist(x144)
        assert abs(d1 / d2 - 3.0) <= 1e-9
        assert abs(d3 / d2 - 2.0) <= 1e-9
        assert abs(d4 / d2 - 6.0) <= 1e-9
        # collinearity: every point within 1e-9 a of the line X7 X144
        direction = x144 - x7
        direction = direction / direction.norm()
        for p in (x142, x2, x9):
            assert abs((p - x7).cross(direction)) <= 1e-9 * shape.a


def test_excentral_equilateral():
    exc = excentral(EQUILATERAL)
    # rotated half-turn copy at doubled circumradius
    _, rr = circumcircle([p.as_tuple() for p in exc.vertices])
    assert rr == pytest.approx(2.0, abs=1e-12)
    assert exc.p1.dist(Point(-2.0, 0.0)) <= 1e-12


@pytest.mark.parametrize("log_height", [-11, -10, -9, -8, -6, -4, -3])
def test_excenters_of_thin_triangles_match_a_decimal_oracle(rng, log_height):
    # no b + c - a cancels, so the error over the excentral triangle's longest side stays
    # within 1e-15 / h for apex heights h down to 1e-11 of the base, the apex over or beyond it
    for _ in range(40):
        t = placed_triangle(rng.uniform(-0.5, 1.5), log_height, rng.uniform(-2.0, 2.0),
                            rng.uniform(0.0, 2 * math.pi), rng.uniform(-3.0, 3.0, size=2))
        want = excenters_decimal([p.as_tuple() for p in t.vertices])
        longest = max(abs(want[1] - want[2]), abs(want[2] - want[0]), abs(want[0] - want[1]))
        for got, w in zip(excentral(t).vertices, want):
            assert abs(got.z - w) <= 1e-15 / 10.0**log_height * longest


@pytest.mark.parametrize("alpha", [10.0, 100.0, 300.0, 1000.0])
def test_x168_matches_a_decimal_oracle_up_to_a_b_1000(rng, alpha):
    # X9 of the excentral triangle, whose vertex beyond the orbit's longest side is formed
    # without cancellation: within 1e-10 of the orbit's longest side
    shape = BilliardShape(alpha, 1.0)
    for k in range(48):
        moved = _moved(rng, orbit(shape, (k + 0.5) * 2 * math.pi / 48).triangle, alpha)
        want = centers_decimal([p.as_tuple() for p in moved.vertices], 168)
        assert abs(center(moved, 168).z - want) <= 1e-10 * max(moved.sidelengths())


def test_excenters_on_closed_form_ellipse():
    shape = BilliardShape(1.5, 1.0)
    a_e = (shape.b**2 + shape.delta) / shape.a
    b_e = (shape.a**2 + shape.delta) / shape.b
    assert a_e == pytest.approx(1.9683749459844424, abs=1e-12)
    assert b_e == pytest.approx(4.2025624189766635, abs=1e-12)
    for k in range(360):
        tri = orbit(shape, (k + 0.5) * math.pi / 180.0).triangle
        for e in excentral(tri).vertices:
            assert abs((e.x / a_e) ** 2 + (e.y / b_e) ** 2 - 1.0) <= 1e-9


def test_excentral_symmedian_is_reference_mittenpunkt(rng):
    # grounds the stationary-circumellipse argument for the excenter locus
    for _ in range(50):
        tri = random_triangle(rng)
        assert center(excentral(tri), 6).dist(center(tri, 9)) <= 1e-9


def test_orthic_of_excentral_is_reference(rng):
    for _ in range(50):
        tri = random_triangle(rng)
        back = orthic(excentral(tri))
        for p, q in zip(back.vertices, tri.vertices):
            assert p.dist(q) <= 1e-9


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_act_medial_inverse(data):
    coords = data.draw(
        st.lists(
            st.tuples(st.floats(-3, 3), st.floats(-3, 3)), min_size=3, max_size=3
        )
    )
    pts = [Point(x, y) for x, y in coords]
    area = 0.5 * abs((pts[1] - pts[0]).cross(pts[2] - pts[0]))
    longest = max(pts[0].dist(pts[1]), pts[1].dist(pts[2]), pts[2].dist(pts[0]))
    if area <= 0.01 * longest * longest or longest == 0.0:
        return
    tri = Triangle(*pts)
    for p, q in zip(act(medial(tri)).vertices, tri.vertices):
        assert p.dist(q) <= 1e-12 * (1 + longest)
    for p, q in zip(medial(act(tri)).vertices, tri.vertices):
        assert p.dist(q) <= 1e-12 * (1 + longest)


def test_medial_mittenpunkt_is_x142(rng):
    for _ in range(50):
        tri = random_triangle(rng)
        assert center(medial(tri), 9).dist(center(tri, 142)) <= 1e-9


def test_composite_center_identities(rng):
    for _ in range(50):
        tri = random_triangle(rng)
        x1, x2, x3 = center(tri, 1), center(tri, 2), center(tri, 3)
        # Bevan point reflects the incenter in the circumcenter
        assert center(tri, 40).dist(2.0 * x3 - x1) <= 1e-9
        # Nagel is the anticomplement of the incenter
        assert center(tri, 8).dist(3.0 * x2 - 2.0 * x1) <= 1e-9
        # Spieker is the medial incenter
        assert center(tri, 10).dist(center(medial(tri), 1)) <= 1e-9
        # nine-point center is the circumcenter-orthocenter midpoint
        assert center(tri, 5).dist(0.5 * (x3 + center(tri, 4))) <= 1e-9
        # X69 is the anticomplement of the symmedian point
        assert center(tri, 69).dist(3.0 * x2 - 2.0 * center(tri, 6)) <= 1e-9


def test_feuerbach_point_tangency(rng):
    # X11 is the common point of the incircle and the nine-point circle
    for _ in range(50):
        tri = random_triangle(rng)
        x11 = center(tri, 11)
        inc, r = incircle([p.as_tuple() for p in tri.vertices])
        _, R = circumcircle([p.as_tuple() for p in tri.vertices])
        assert abs(x11.dist(Point(inc[0], inc[1])) - r) <= 1e-9
        assert abs(x11.dist(center(tri, 5)) - R / 2.0) <= 1e-9


@pytest.mark.parametrize("alpha", [1.0 + 1e-6, 1.00001, 1.5, 10.0, 100.0])
def test_feuerbach_point_on_caustic(alpha):
    shape = BilliardShape(alpha, 1.0)
    caus = caustic(shape)
    for k in range(72):
        tri = orbit(shape, (k + 0.5) * 2 * math.pi / 72).triangle
        x11 = center(tri, 11)
        res = (x11.x / caus.semi_major) ** 2 + (x11.y / caus.semi_minor) ** 2 - 1.0
        assert abs(res) <= 1e-9


def test_x100_reflection_matches_classical_trilinears(rng):
    for _ in range(50):
        tri = random_triangle(rng)
        s1, s2, s3 = tri.sidelengths()
        if min(abs(s1 - s2), abs(s2 - s3), abs(s1 - s3)) < 1e-3:
            continue
        classical = trilinear_to_cartesian(
            tri, (1.0 / (s2 - s3), 1.0 / (s3 - s1), 1.0 / (s1 - s2))
        )
        assert center(tri, 100).dist(classical) <= 1e-9


def test_x1156_on_billiard():
    shape = BilliardShape(1.5, 1.0)
    for k in range(72):
        tri = orbit(shape, (k + 0.5) * 2 * math.pi / 72).triangle
        assert abs(shape.boundary_value(center(tri, 1156))) <= 1e-9


def test_orthic_equilateral_is_medial():
    for p, q in zip(orthic(EQUILATERAL).vertices, medial(EQUILATERAL).vertices):
        assert p.dist(q) <= 1e-12


def test_orthic_right_triangle_raises():
    with pytest.raises(RightTriangle):
        orthic(RIGHT_345)


def test_orthic_obtuse_vertex_layout():
    shape = BilliardShape(1.5, 1.0)
    sample = orbit(shape, 1.2)
    tri = sample.triangle
    cos_vals = tri.cosines()
    i = min(range(3), key=lambda k: cos_vals[k])
    assert cos_vals[i] < 0.0  # obtuse here
    feet = orthic(tri).vertices

    def inside(p):
        v = tri.vertices
        d = (v[1] - v[0]).cross(v[2] - v[0])
        l1 = (v[1] - p).cross(v[2] - p) / d
        l2 = (v[2] - p).cross(v[0] - p) / d
        return min(l1, l2, 1 - l1 - l2) >= -1e-12

    flags = [inside(f) for f in feet]
    assert flags[i] and sum(flags) == 1


def test_acute_orthic_mittenpunkt_is_symmedian():
    shape = BilliardShape(1.3, 1.0)
    for k in range(36):
        tri = orbit(shape, (k + 0.5) * 2 * math.pi / 36).triangle
        assert center(orthic(tri), 9).dist(center(tri, 6)) <= 1e-9


def test_orthic_cb_center_equilateral():
    assert orthic_cb_center(EQUILATERAL).norm() <= 1e-12


def test_orthic_cb_center_obtuse_matches_orthic_mittenpunkt():
    shape = BilliardShape(1.5, 1.0)
    tri = orbit(shape, 1.2).triangle
    point = orthic_cb_center(tri)
    # the rule used is the one of the triangle's shape class
    assert classify_triangle(tri) is ShapeClass.OBTUSE
    assert point.dist(center(orthic(tri), 9)) <= 1e-9
    # and it satisfies the symmedian trilinears of the auxiliary triangle
    cos_vals = tri.cosines()
    i = min(range(3), key=lambda k: cos_vals[k])
    verts = tri.vertices
    aux = Triangle(verts[(i + 1) % 3], verts[(i + 2) % 3], center(tri, 4))
    assert point.dist(trilinear_to_cartesian(aux, aux.sidelengths())) <= 1e-9


def test_orthic_cb_center_right_limit():
    point = orthic_cb_center(RIGHT_345)
    assert classify_triangle(RIGHT_345) is ShapeClass.RIGHT
    # altitude from the right-angle vertex hits the hypotenuse at (1.44, 1.92);
    # the midpoint agrees with the symmedian point (25 p1 + 9 p2 + 16 p3) / 50
    assert point.dist(Point(0.72, 0.96)) <= 1e-12


def test_orthic_center_transition_closed_forms():
    shape = BilliardShape(1.5, 1.0)
    a2, b2, d = shape.a**2, shape.b**2, shape.delta
    c6 = shape.c2**3
    p_perp = right_angle_vertex(shape)
    x_star = p_perp.x / c6 * (a2**3 + 2 * a2 * b2**2 - b2 * d * (3 * a2 + b2) + b2**3)
    y_star = -p_perp.y / c6 * (b2**3 + 2 * a2**2 * b2 - a2 * d * (3 * b2 + a2) + a2**3)
    trans = orthic_center_transition(shape)
    assert trans.dist(Point(x_star, y_star)) <= 1e-10
    assert trans.dist(Point(0.7279272317324986, 0.2367581430887099)) <= 1e-12


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("delta", [1e-9, -1e-9, 1e-6, -1e-6])
def test_orthic_cb_center_is_continuous_across_the_right_orbit(alpha, delta):
    # one side of the right-triangle orbit is acute, the other obtuse
    shape = BilliardShape(alpha, 1.0)
    p = right_angle_vertex(shape)
    t_perp = math.atan2(p.y / shape.b, p.x / shape.a)
    point = orthic_cb_center(orbit(shape, t_perp + delta).triangle)
    assert point.dist(orthic_center_transition(shape)) <= 10.0 * abs(delta) * shape.a


# from about 1e95 the weighted sum of X6 of a thin obtuse triangle's acute member overflows:
# that row is refused as its one-number call is (ValueError), and no row otherwise
@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.floats(-3.0, 4.0), st.floats(-11.0, 0.0), st.floats(-100.0, 100.0),
                          st.floats(0.0, 2 * math.pi), st.tuples(st.floats(-10.0, 10.0),
                                                                 st.floats(-10.0, 10.0))),
                min_size=1, max_size=6))
def test_orthic_cb_center_refuses_no_valid_triangle(params):
    # obtuse at A, the acute member HBC is no thinner than ABC, so X6* adds no refusal of its own
    triangles = []
    for p in params:
        try:
            triangles.append(placed_triangle(*p))
        except DegenerateTriangle:
            pass
    assume(triangles)
    skips = Skips(len(triangles))
    with np.errstate(all="ignore"):
        z = center_of(stack_tris(triangles), ORTHIC_CB_CENTER, skips)
    for i, t in enumerate(triangles):
        try:
            want = center(t, ORTHIC_CB_CENTER)
        except ValueError:
            assert skips.reason(i) == "ValueError"
            continue
        assert skips.reason(i) == ""
        assert (z[i].real, z[i].imag) == (want.x, want.y)
