import math

import numpy as np
import pytest

from conftest import angle_dist_mod_pi, random_triangle
from oracles import intouch_points, intouch_superposition_check
from orbitconics import (
    BilliardShape,
    Conic,
    ConicClass,
    DegenerateConic,
    Point,
    Triangle,
    center,
    circumbilliard,
    classify_conic,
    derived_cb,
    derived_triangle,
    equilateral_orthic_threshold,
    orbit,
    orthic_cb_center,
    reflection_residual,
)

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
