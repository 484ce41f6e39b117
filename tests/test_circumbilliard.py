import math

import numpy as np
import pytest

from conftest import angle_dist_mod_pi, placed_triangle, random_triangle
from oracles import (ConicClass, circumbilliard_decimal, classify_conic, intouch_points,
                     intouch_superposition_check, reflection_residual, stack_tris)
from orbitconics import (
    BilliardShape,
    Conic,
    DegenerateConic,
    DegenerateTriangle,
    Point,
    Triangle,
    center,
    circumbilliard,
    derived_cb,
    derived_triangle,
    equilateral_orthic_threshold,
    inradius_to_circumradius,
    orbit,
    orthic_cb_center,
)
from orbitconics.circumbilliard import circumbilliard_axes
from orbitconics.kernel import RAISE, Skips, Tri

SHAPE = BilliardShape(1.5, 1.0)

EQUILATERAL = Triangle(
    Point(1.0, 0.0),
    Point(-0.5, math.sqrt(3.0) / 2.0),
    Point(-0.5, -math.sqrt(3.0) / 2.0),
)


def grid(n):
    return [(k + 0.5) * 2 * math.pi / n for k in range(n)]


def test_reflection_residual_refuses_a_vertex_where_the_gradient_vanishes():
    # the cone x y = 0 is singular at the origin, which has no normal to compare with a bisector
    tri = Triangle(Point(0.0, 0.0), Point(1.0, 0.0), Point(0.0, 1.0))
    with pytest.raises(DegenerateConic):
        reflection_residual(Conic(0.0, 0.5, 0.0, 0.0, 0.0, 0.0), tri)


def test_fixed_point_recovery():
    for t in grid(72):
        result = circumbilliard(orbit(SHAPE, t).triangle)
        p = result.params
        assert p.center.norm() <= 1e-9 * SHAPE.a
        assert abs(p.semi_major - SHAPE.a) <= 1e-9 * SHAPE.a
        assert abs(p.semi_minor - SHAPE.b) <= 1e-9 * SHAPE.a
        assert angle_dist_mod_pi(p.axis_angle, 0.0) <= 1e-9


def test_equilateral_circumbilliard_is_circumcircle():
    result = circumbilliard(EQUILATERAL)
    assert result.aspect == pytest.approx(1.0, abs=1e-12)
    assert result.params.semi_major == pytest.approx(1.0, abs=1e-12)
    assert result.mittenpunkt.norm() <= 1e-12


def test_circumbilliard_decimal_oracle():
    # an orbit triangle's circumbilliard is the billiard, an equilateral one's its circumcircle
    for t in grid(12):
        tri = orbit(SHAPE, t).triangle
        c, major, minor = circumbilliard_decimal([p.as_tuple() for p in tri.vertices])
        assert abs(c) <= 1e-13
        assert major == pytest.approx(SHAPE.a, rel=1e-13)
        assert minor == pytest.approx(SHAPE.b, rel=1e-13)
    c, major, minor = circumbilliard_decimal([p.as_tuple() for p in EQUILATERAL.vertices])
    assert abs(c) <= 1e-15
    assert major == pytest.approx(1.0, rel=1e-15) and minor == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("log_height", range(-12, 0))
def test_thin_triangles_match_the_decimal_circumbilliard(rng, log_height):
    # the closed-form read-off does not cancel however eccentric the ellipse: within 1e-12 of the
    # major axis and of the longest side for apex heights down to 1e-12 of the base, turned,
    # scaled by 10^+-2 and moved; every triangle Triangle accepts answers, one by one and stacked
    triangles = []
    for _ in range(30):
        try:
            triangles.append(placed_triangle(rng.uniform(-0.5, 1.5),
                                             log_height + rng.uniform(0.0, 1.0),
                                             rng.uniform(-2.0, 2.0), rng.uniform(0.0, 2 * math.pi),
                                             rng.uniform(-3.0, 3.0, size=2)))
        except DegenerateTriangle:
            pass
    assert len(triangles) >= 10
    for tri in triangles:
        want_center, want_major, want_minor = circumbilliard_decimal(
            [p.as_tuple() for p in tri.vertices])
        params = circumbilliard(tri).params
        assert abs(params.semi_major - want_major) <= 1e-12 * want_major
        assert abs(params.semi_minor - want_minor) <= 1e-12 * want_major
        assert abs(params.center.z - want_center) <= 1e-12 * max(tri.sidelengths())
    v = stack_tris(triangles)
    skips = Skips(len(triangles))
    circumbilliard_axes(v, skips)
    assert skips.valid.all()


def test_circumbilliard_gives_the_billiard_family_invariants(rng):
    # a triangle is an orbit of its circumbilliard (a, b), so its r/R is the family's and its
    # perimeter Garcia's 2 sqrt(3) (d + a^2 + b^2) / sqrt(2d + a^2 + b^2), d^2 = a^4 - a^2 b^2 + b^4
    for _ in range(200):
        tri = random_triangle(rng)
        params = circumbilliard(tri).params
        a, b = params.semi_major, params.semi_minor
        a2, b2 = a * a, b * b
        d = math.sqrt(a2 * a2 - a2 * b2 + b2 * b2)
        assert tri.inradius() / tri.circumradius() == pytest.approx(
            inradius_to_circumradius(BilliardShape(a, b)), rel=1e-12)
        perimeter = 2.0 * math.sqrt(3.0) * (d + a2 + b2) / math.sqrt(2.0 * d + a2 + b2)
        assert tri.perimeter() == pytest.approx(perimeter, rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_circumbilliard_axes_refuse_beyond_the_float_range_alike():
    # the conic's D and E overflow from 1e77, abc from about 1e103, and abc leaves the normal range
    # below about 1e-103
    vertices = (0j, 3 + 0j, 1 + 2j)
    for scale in (1e80, 1e110, 1e-110):
        one = Tri(*(z * scale for z in vertices))
        with pytest.raises(ValueError, match="^non-finite ellipse center or semi-axes$"):
            circumbilliard_axes(one, RAISE)
    stack = Tri(*(np.array([z * 1e110, z, z * 1e-110]) for z in vertices))
    skips = Skips(3)
    with np.errstate(all="ignore"):
        _, major, minor, _ = circumbilliard_axes(stack, skips)
    assert [skips.reason(i) for i in range(3)] == ["ValueError", "", "ValueError"]
    assert skips.failures == [(ValueError, "non-finite ellipse center or semi-axes")]
    unit = Tri(*vertices)
    assert (major[1], minor[1]) == circumbilliard_axes(unit, RAISE)[1:3]


def test_random_triangles_reflection_law(rng):
    tilted = 0
    for _ in range(50):
        tri = random_triangle(rng)
        result = circumbilliard(tri)
        assert classify_conic(result.conic) is ConicClass.ELLIPSE
        assert result.params.center.dist(result.mittenpunkt) <= 1e-10 * (
            1.0 + result.mittenpunkt.norm()
        )
        assert reflection_residual(result.conic, tri) <= 1e-9
        if angle_dist_mod_pi(result.params.axis_angle, 0.0) > 1e-3:
            tilted += 1
    assert tilted > 25  # axes generally are not horizontal/vertical


def test_derived_cb_centers():
    expectations = {
        "excentral": lambda tri: center(tri, 168),
        "act": lambda tri: center(tri, 7),
        "medial": lambda tri: center(tri, 142),
        "orthic": lambda tri: orthic_cb_center(tri),
    }
    for t in grid(36):
        tri = orbit(SHAPE, t).triangle
        for which, expect in expectations.items():
            result = derived_cb(tri, which)
            assert result.params.center.dist(expect(tri)) <= 1e-9


def test_act_and_medial_cb_geometry():
    act_axes, med_axes = [], []
    for t in grid(72):
        tri = orbit(SHAPE, t).triangle
        cb_act = derived_cb(tri, "act")
        cb_med = derived_cb(tri, "medial")
        act_axes.append((cb_act.params.semi_major, cb_act.params.semi_minor))
        med_axes.append((cb_med.params.semi_major, cb_med.params.semi_minor))
        assert angle_dist_mod_pi(cb_act.params.axis_angle, 0.0) <= 1e-9
        assert angle_dist_mod_pi(cb_med.params.axis_angle, 0.0) <= 1e-9
    act_axes = np.array(act_axes)
    med_axes = np.array(med_axes)
    for axes in (act_axes, med_axes):
        spread = (axes.max(axis=0) - axes.min(axis=0)) / axes.mean(axis=0)
        assert spread.max() <= 1e-9
    # fixed lengths: twice and half of the billiard semi-axes
    assert np.allclose(act_axes.mean(axis=0), (2 * SHAPE.a, 2 * SHAPE.b), atol=1e-9)
    assert np.allclose(med_axes.mean(axis=0), (SHAPE.a / 2, SHAPE.b / 2), atol=1e-9)


def test_cb_always_elliptic_with_aspect_at_least_one(rng):
    for _ in range(100):
        tri = random_triangle(rng)
        result = circumbilliard(tri)
        assert result.aspect >= 1.0
        assert math.isfinite(result.aspect)


def test_orthic_cb_circle_at_equilateral_threshold():
    shape = BilliardShape(equilateral_orthic_threshold(), 1.0)
    tri = orbit(shape, math.pi / 2.0).triangle
    ortho = derived_triangle(tri, "orthic")
    s1, s2, s3 = ortho.sidelengths()
    assert abs(s1 - s2) <= 1e-9 and abs(s2 - s3) <= 1e-9
    result = derived_cb(tri, "orthic")
    assert abs(result.aspect - 1.0) <= 1e-9


def test_intouch_points_touch_incircle(rng):
    for _ in range(20):
        tri = random_triangle(rng)
        inc = center(tri, 1)
        r = tri.inradius()
        for p in intouch_points(tri):
            assert abs(p.dist(inc) - r) <= 1e-9


def test_intouch_superposition_single():
    report = intouch_superposition_check(SHAPE, 0.4)
    assert report.act_on_billiard <= 1e-9
    assert report.reference_on_medial_cb <= 1e-9


def test_intouch_superposition_sweep_golden_ratio():
    shape = BilliardShape(1.618, 1.0)
    worst = 0.0
    for t in grid(72):
        report = intouch_superposition_check(shape, t)
        worst = max(worst, report.act_on_billiard, report.reference_on_medial_cb)
    assert worst <= 1e-9


def test_equilateral_limit_intouch_coincides_with_medial():
    shape = BilliardShape(1.0 + 1e-6, 1.0)
    tri = orbit(shape, 0.77).triangle
    touch = intouch_points(tri)
    mid = derived_triangle(tri, "medial").vertices
    for p in touch:
        assert min(p.dist(q) for q in mid) <= 1e-3
