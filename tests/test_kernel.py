import math
import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import angle_dist_mod_pi, five_coefficients, random_triangle, residual_scale
from oracles import extremal_radii, incircle
from orbitconics import (
    BilliardShape,
    Conic,
    ConicClass,
    DegenerateTriangle,
    EllipseParams,
    NoRealConic,
    NotAnEllipse,
    Point,
    SingularSystem,
    Tri,
    Triangle,
    caustic,
    center,
    classify_conic,
    conic_eval,
    conic_to_ellipse_params,
    ellipse_to_conic,
    excentral,
    line_conic_tangency_residual,
    orbit,
    solve_circumconic,
    solve_inconic,
)

UNIT_CIRCLE = Conic(-1.0, 0.0, -1.0, 0.0, 0.0, 1.0)

EQUILATERAL = Triangle(
    Point(1.0, 0.0),
    Point(-0.5, math.sqrt(3.0) / 2.0),
    Point(-0.5, -math.sqrt(3.0) / 2.0),
)


def test_conic_eval_unit_circle():
    assert conic_eval(UNIT_CIRCLE, Point(1.0, 0.0)) == 0.0
    assert conic_eval(UNIT_CIRCLE, Point(0.0, 0.0)) == 1.0


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        Point(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Point(0.0, float("inf"))


def test_triangle_rejects_degenerate():
    with pytest.raises(DegenerateTriangle):
        Triangle(Point(0, 0), Point(1, 1), Point(2, 2))


def test_point_is_a_frozen_value():
    p = Point(1.5, -0.1)
    assert p == Point(1.5, -0.1) and p != Point(1.5, 0.1) and p != (1.5, -0.1)
    assert hash(p) == hash(Point(1.5, -0.1))
    assert len({p, Point(1.5, -0.1), Point(0.0, 0.0)}) == 2
    assert repr(p) == "Point(x=1.5, y=-0.1)"
    q = Point(1 / 3, math.pi * 1e300)
    assert eval(repr(q)) == q
    assert pickle.loads(pickle.dumps(q)) == q
    with pytest.raises(FrozenInstanceError):
        p.x = 2.0
    with pytest.raises(FrozenInstanceError):
        del p.y
    for x in (3, np.float64(0.25), np.int64(-2), True):
        r = Point(x, x)
        assert type(r.x) is float and type(r.y) is float and r.x == float(x)


def test_triangle_from_tri_builds_the_same_points_lazily():
    v = Tri(0.1 + 1j / 3, -2.5e-8 + 0.7j, 1e5 - math.pi * 1j)
    lazy = Triangle.from_tri(v)
    assert lazy.tri is v
    eager = Triangle(*(Point(z.real, z.imag) for z in v.vertices))
    assert lazy == eager and hash(lazy) == hash(eager) and repr(lazy) == repr(eager)
    for got, want in zip(lazy.vertices, eager.vertices):
        assert (got.x, got.y) == (want.x, want.y)
    assert (lazy.p1, lazy.p2, lazy.p3) == eager.vertices
    assert [(w.s1, w.s2, w.s3, w.area) for w in (lazy.tri, eager.tri)] == [
        (v.s1, v.s2, v.s3, v.area)] * 2
    assert repr(eager) == f"Triangle(p1={eager.p1!r}, p2={eager.p2!r}, p3={eager.p3!r})"
    assert eval(repr(eager)) == eager
    assert pickle.loads(pickle.dumps(lazy)) == eager
    with pytest.raises(FrozenInstanceError):
        lazy.tri = v
    with pytest.raises(FrozenInstanceError):
        lazy.p1 = eager.p1
    with pytest.raises(FrozenInstanceError):
        del lazy.tri
    with pytest.raises(ValueError, match="non-finite point"):
        Triangle.from_tri(Tri(0j, 1 + 0j, complex(math.nan, 1.0)))
    with pytest.raises(DegenerateTriangle):
        Triangle.from_tri(Tri(0j, 1 + 1j, 2 + 2j))


def test_triangle_sidelength_cache(rng):
    t = random_triangle(rng)
    s1, s2, s3 = t.sidelengths()
    assert abs(s1 - t.p2.dist(t.p3)) <= 1e-12 * s1
    assert abs(s2 - t.p1.dist(t.p3)) <= 1e-12 * s2
    assert abs(s3 - t.p1.dist(t.p2)) <= 1e-12 * s3


def test_circumconic_equilateral_is_unit_circle():
    conic = solve_circumconic(EQUILATERAL, Point(0.0, 0.0))
    assert np.allclose(five_coefficients(conic), (0, 0, 0, -1, -1), atol=1e-12)


def test_circumconic_of_orbit_recovers_billiard():
    shape = BilliardShape(1.5, 1.0)
    tri = orbit(shape, 0.3).triangle
    conic = solve_circumconic(tri, Point(0.0, 0.0))
    expected = (0.0, 0.0, 0.0, -1.0 / 1.5**2, -1.0)
    assert np.allclose(five_coefficients(conic), expected, atol=1e-10)
    # direct residual on the boundary equation at the vertices
    for p in tri.vertices:
        assert abs(shape.boundary_value(p)) <= 1e-10


def test_circumconic_vertex_and_gradient_residuals(rng):
    for _ in range(200):
        tri = random_triangle(rng)
        ctr = Point(*rng.uniform(-1.5, 1.5, 2))
        try:
            conic = solve_circumconic(tri, ctr)
        except SingularSystem:
            continue
        scale = residual_scale(conic)
        for p in tri.vertices:
            assert abs(conic_eval(conic, p)) <= 1e-10 * scale
        grad = conic.gradient(ctr)
        assert grad.norm() <= 1e-10 * scale


def test_circumconic_mittenpunkt_always_ellipse(rng):
    for _ in range(1000):
        tri = random_triangle(rng)
        conic = solve_circumconic(tri, center(tri, 9))
        assert classify_conic(conic) is ConicClass.ELLIPSE


def test_circumconic_collinear_raises():
    verts = (Point(0, 0), Point(1, 1), Point(2, 2.0001))
    tri = Triangle(*verts)
    with pytest.raises(SingularSystem):
        solve_circumconic(tri, Point(0.5, 0.5))


def test_classify_basic():
    assert classify_conic(UNIT_CIRCLE) is ConicClass.ELLIPSE
    assert classify_conic(Conic(0, 0.5, 0, 0, 0, 1.0)) is ConicClass.HYPERBOLA
    assert classify_conic(Conic(1.0, 0, 0, 0, 0.5, 1.0)) is ConicClass.PARABOLA
    # parallel line pair x = +-1
    assert classify_conic(Conic(-1.0, 0, 0, 0, 0, 1.0)) is ConicClass.DEGENERATE


def test_ellipse_params_axis_aligned():
    conic = Conic(-1 / 2.25, 0, -1.0, 0, 0, 1.0)
    params = conic_to_ellipse_params(conic)
    assert params.center.norm() <= 1e-12
    assert abs(params.semi_major - 1.5) <= 1e-12
    assert abs(params.semi_minor - 1.0) <= 1e-12
    assert params.axis_angle == 0.0


def test_ellipse_params_circle_angle_zero():
    params = conic_to_ellipse_params(UNIT_CIRCLE)
    assert params.semi_major == pytest.approx(1.0, abs=1e-12)
    assert params.semi_minor == pytest.approx(1.0, abs=1e-12)
    assert params.axis_angle == 0.0


def test_ellipse_params_rejects_hyperbola():
    with pytest.raises(NotAnEllipse):
        conic_to_ellipse_params(Conic(0, 0.5, 0, 0, 0, 1.0))


def test_ellipse_params_matches_extremal_search():
    shape = BilliardShape(1.5, 1.0)
    tri = orbit(shape, 0.71).triangle
    exc = excentral(tri)
    conic = solve_circumconic(exc, center(exc, 9))
    params = conic_to_ellipse_params(conic)
    hi, lo = extremal_radii(five_coefficients(conic), params.center.as_tuple())
    assert abs(hi - params.semi_major) <= 1e-6
    assert abs(lo - params.semi_minor) <= 1e-6


def test_conic_roundtrip_random_ellipses(rng):
    for _ in range(1000):
        major = rng.uniform(0.5, 5.0)
        minor = major / rng.uniform(1.0, 20.0)
        ctr = Point(*rng.uniform(-3.0, 3.0, 2))
        angle = rng.uniform(0.0, math.pi)
        params = EllipseParams(ctr, major, minor, angle)
        conic = ellipse_to_conic(params)
        back = conic_to_ellipse_params(conic)
        assert back.center.dist(ctr) <= 1e-9 * (1 + ctr.norm())
        assert abs(back.semi_major - major) <= 1e-9 * major
        assert abs(back.semi_minor - minor) <= 1e-9 * major
        if major / minor > 1.0 + 1e-9:
            assert angle_dist_mod_pi(back.axis_angle, angle) <= 1e-9
        # all four axis endpoints on the conic
        scale = residual_scale(conic)
        for p in back.axis_endpoints():
            assert abs(conic_eval(conic, p)) <= 1e-9 * scale


def test_inconic_equilateral_is_incircle():
    conic = solve_inconic(EQUILATERAL, Point(0.0, 0.0))
    params = conic_to_ellipse_params(conic)
    inc, r = incircle([p.as_tuple() for p in EQUILATERAL.vertices])
    assert params.center.norm() <= 1e-12
    assert abs(params.semi_major - r) <= 1e-12
    assert abs(params.semi_minor - r) <= 1e-12


def test_inconic_of_orbit_is_caustic():
    shape = BilliardShape(1.5, 1.0)
    tri = orbit(shape, 0.9).triangle
    conic = solve_inconic(tri, Point(0.0, 0.0))
    params = conic_to_ellipse_params(conic)
    caus = caustic(shape)
    assert abs(params.semi_major - caus.semi_major) <= 1e-9
    assert abs(params.semi_minor - caus.semi_minor) <= 1e-9
    verts = tri.vertices
    for i in range(3):
        res = line_conic_tangency_residual(conic, verts[(i + 1) % 3], verts[(i + 2) % 3])
        assert res <= 1e-9


def test_inconic_of_excentral_is_billiard():
    shape = BilliardShape(1.5, 1.0)
    tri = orbit(shape, 0.9).triangle
    conic = solve_inconic(excentral(tri), Point(0.0, 0.0))
    params = conic_to_ellipse_params(conic)
    assert abs(params.semi_major - shape.a) <= 1e-9
    assert abs(params.semi_minor - shape.b) <= 1e-9
    assert angle_dist_mod_pi(params.axis_angle, 0.0) <= 1e-9


def test_inconic_hyperbola_region():
    # a center beyond the medial triangle's parabolic boundary gives a real
    # hyperbola still tangent to all three sidelines, with the center honored
    tri = Triangle(Point(0, 0), Point(4, 0), Point(0, 3))
    ctr = Point(-1.0, -1.0)
    conic = solve_inconic(tri, ctr)
    assert classify_conic(conic) is ConicClass.HYPERBOLA
    grad = conic.gradient(ctr)
    assert grad.norm() <= 1e-9 * residual_scale(conic)


def test_inconic_center_on_sideline_raises():
    # the inconic degenerates to a double line, wherever the triangle sits
    for shift in (0.0, 1.0, -2.5):
        tri = Triangle(Point(shift, shift), Point(4 + shift, shift), Point(shift, 3 + shift))
        with pytest.raises(NoRealConic):
            solve_inconic(tri, Point(2.0 + shift, shift))


def test_inconic_center_on_midline_raises():
    # midlines are the parabolic boundaries of the inconic-center regions;
    # no finite-centered inconic exists there
    tri = Triangle(Point(0, 0), Point(4, 0), Point(0, 3))
    with pytest.raises(NoRealConic):
        solve_inconic(tri, Point(2.0, 1.8))


def test_inconic_random_triangles_tangency(rng):
    for _ in range(100):
        tri = random_triangle(rng)
        inc, _ = incircle([p.as_tuple() for p in tri.vertices])
        conic = solve_inconic(tri, Point(inc[0], inc[1]))
        verts = tri.vertices
        for i in range(3):
            res = line_conic_tangency_residual(
                conic, verts[(i + 1) % 3], verts[(i + 2) % 3]
            )
            assert res <= 1e-9


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(-2, 2),
    y=st.floats(-2, 2),
    u=st.floats(-2, 2),
    v=st.floats(-2, 2),
)
def test_conic_eval_definition(x, y, u, v):
    c1, c2, c3, c4, c5 = u, v, x, y or 0.3, v or -0.7
    conic = Conic(c4, c3 / 2, c5, c1 / 2, c2 / 2, 1.0)
    p = Point(x, y)
    direct = 1 + c1 * x + c2 * y + c3 * x * y + c4 * x * x + c5 * y * y
    assert conic_eval(conic, p) == pytest.approx(direct, abs=1e-12)
