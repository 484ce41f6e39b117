import math

import numpy as np
import pytest

from conftest import angle_dist_mod_pi
from orbitconics import (
    BilliardShape,
    ConicClass,
    DegenerateConic,
    InvalidShape,
    Point,
    PoristicShape,
    billiard_intersections,
    center,
    circumbilliard,
    classify_conic,
    conic_to_ellipse_params,
    count_interior_maxima,
    excentral,
    excentral_inconic_axes,
    feuerbach_hyperbola,
    fit_circle,
    focal_profile,
    focal_ratio_closed_form,
    inradius_to_circumradius,
    jerabek_excentral,
    macbeath_inconic_ratio,
    orbit,
    poristic_cb_aspect,
    poristic_triangle,
    solve_circumconic,
    solve_inconic,
    x3_inconic_ratio,
)

SHAPE = BilliardShape(1.5, 1.0)


def grid(n):
    return [(k + 0.5) * 2 * math.pi / n for k in range(n)]


# ---------------------------------------------------------------- poristic

def test_poristic_shape_validation():
    with pytest.raises(InvalidShape):
        PoristicShape(0.6, 1.0)
    with pytest.raises(InvalidShape):
        PoristicShape(-0.1, 1.0)
    ps = PoristicShape(0.5, 1.0)  # boundary case allowed
    assert ps.d == 0.0
    assert ps.rho == 0.5


def test_poristic_equilateral_at_half():
    ps = PoristicShape(0.5, 1.0)
    for theta in (0.0, 0.4, 2.2):
        tri = poristic_triangle(ps, theta)
        s1, s2, s3 = tri.sidelengths()
        assert abs(s1 - s2) <= 1e-12 and abs(s2 - s3) <= 1e-12


def test_poristic_triangle_tangency_and_incidence():
    ps = PoristicShape(0.3625, 1.0)
    inc = Point(ps.d, 0.0)
    for theta in grid(40):
        tri = poristic_triangle(ps, theta)
        for p in tri.vertices:
            assert abs(p.norm() - ps.R) <= 1e-12
        verts = tri.vertices
        for i in range(3):
            q, r = verts[(i + 1) % 3], verts[(i + 2) % 3]
            n = Point(r.y - q.y, q.x - r.x)
            dist = abs((inc - q).dot(n)) / n.norm()
            assert abs(dist - ps.r) <= 1e-9


def test_poristic_cb_aspect_invariant():
    ps = PoristicShape(0.3625, 1.0)
    aspects = [circumbilliard(poristic_triangle(ps, th)).aspect for th in grid(60)]
    closed = poristic_cb_aspect(ps)
    assert closed == pytest.approx(1.500472973419524, abs=1e-12)
    assert (max(aspects) - min(aspects)) / np.mean(aspects) <= 1e-9
    assert abs(np.mean(aspects) - closed) <= 1e-9


def test_poristic_aspect_limits_and_loop():
    assert poristic_cb_aspect(PoristicShape(0.5, 1.0)) == pytest.approx(1.0, abs=1e-12)
    rho = inradius_to_circumradius(SHAPE)
    assert poristic_cb_aspect(PoristicShape(rho, 1.0)) == pytest.approx(1.5, abs=1e-9)


def test_poristic_mittenpunkt_locus_circular():
    ps = PoristicShape(0.3625, 1.0)
    pts = [center(poristic_triangle(ps, th), 9) for th in grid(90)]
    assert fit_circle(pts).rms <= 1e-7 * ps.R


# -------------------------------------------------------------- hyperbolas

def test_feuerbach_incidences():
    tri = orbit(SHAPE, 0.4).triangle
    hyp = feuerbach_hyperbola(tri)
    scale = math.sqrt(hyp.c1**2 + hyp.c2**2 + hyp.c3**2)
    for p in tri.vertices:
        assert abs(hyp.value(p)) / scale <= 1e-9
    for idx in (1, 4, 9, 1156):
        assert abs(hyp.value(center(tri, idx))) / scale <= 1e-9
    x1156 = center(tri, 1156)
    assert abs(SHAPE.boundary_value(x1156)) <= 1e-9
    assert hyp.center.dist(center(tri, 11)) <= 1e-9
    assert classify_conic(hyp.recentred_conic()) is ConicClass.HYPERBOLA


def test_jerabek_excentral_incidences():
    tri = orbit(SHAPE, 0.4).triangle
    hyp = jerabek_excentral(tri)
    scale = math.sqrt(hyp.c1**2 + hyp.c2**2 + hyp.c3**2)
    for p in excentral(tri).vertices:
        assert abs(hyp.value(p)) / scale <= 1e-9
    for idx in (1, 9, 40):
        assert abs(hyp.value(center(tri, idx))) / scale <= 1e-9
    assert hyp.center.dist(center(tri, 100)) <= 1e-9


def test_hyperbola_degenerates_at_isosceles():
    tri = orbit(SHAPE, 0.0).triangle
    with pytest.raises(DegenerateConic):
        feuerbach_hyperbola(tri)
    tri_up = orbit(SHAPE, math.pi / 2.0).triangle
    with pytest.raises(DegenerateConic):
        feuerbach_hyperbola(tri_up)


def test_focal_ratio_invariant():
    expected = focal_ratio_closed_form(SHAPE)
    assert expected == pytest.approx(2.348363767172005, abs=1e-12)
    assert expected > 2.0
    ratios = []
    for t in grid(360):
        if min(t % (math.pi / 2), (math.pi / 2) - (t % (math.pi / 2))) < 1e-3:
            continue
        tri = orbit(SHAPE, t).triangle
        ratios.append(
            jerabek_excentral(tri).focal_length / feuerbach_hyperbola(tri).focal_length
        )
    ratios = np.array(ratios)
    assert (ratios.max() - ratios.min()) / ratios.mean() <= 1e-9
    assert abs(ratios.mean() - expected) <= 1e-9


@pytest.mark.parametrize("alpha", [1.3, 1.5])
def test_focal_profile_three_maxima(alpha):
    shape = BilliardShape(alpha, 1.0)
    profile = focal_profile(shape, n=2000)
    assert count_interior_maxima([s.feuerbach for s in profile]) == 3
    assert count_interior_maxima([s.jerabek_excentral for s in profile]) == 3
    ratios = np.array([s.ratio for s in profile])
    assert (ratios.max() - ratios.min()) / ratios.mean() <= 1e-9


def test_jerabek_meets_billiard_twice():
    for t in (0.4, 1.1, 2.3):
        hyp = jerabek_excentral(orbit(SHAPE, t).triangle)
        pts = billiard_intersections(SHAPE, hyp)
        assert len(pts) == 2
        for p in pts:
            assert abs(SHAPE.boundary_value(p)) <= 1e-9
            scale = math.sqrt(hyp.c1**2 + hyp.c2**2 + hyp.c3**2)
            assert abs(hyp.value(p)) / scale <= 1e-9


def test_translated_hyperbolas_are_xy_equals_k():
    tri = orbit(SHAPE, 0.4).triangle
    for hyp, center_idx in (
        (feuerbach_hyperbola(tri), 11),
        (jerabek_excentral(tri), 100),
    ):
        shift = center(tri, center_idx)
        # after translating by -shift: coefficient of x and y must vanish
        lin_x = hyp.c1 + hyp.c3 * shift.y
        lin_y = hyp.c2 + hyp.c3 * shift.x
        scale = abs(hyp.c1) + abs(hyp.c2) + abs(hyp.c3)
        assert abs(lin_x) / scale <= 1e-9
        assert abs(lin_y) / scale <= 1e-9
        k = -(hyp.c1 * shift.x + hyp.c2 * shift.y + hyp.c3 * shift.x * shift.y) / hyp.c3
        assert abs(k - hyp.xy_constant) <= 1e-9 * abs(k)
        assert abs(hyp.focal_length - 2.0 * math.sqrt(2.0 * abs(k))) <= 1e-9


# ---------------------------------------------------------------- inconics

def test_excentral_inconic_closed_forms_and_ratios():
    for t in grid(24):
        tri = orbit(SHAPE, t).triangle
        r, R = tri.inradius(), tri.circumradius()
        rho = r / R
        d = math.sqrt(R * (R - 2 * r))
        major, minor = excentral_inconic_axes(tri, "x3")
        assert abs(major - (R + d)) <= 1e-12
        assert abs(minor - (R - d)) <= 1e-12
        assert abs(major / minor - x3_inconic_ratio(rho)) <= 1e-12
        major5, minor5 = excentral_inconic_axes(tri, "macbeath")
        assert abs(major5 - R) <= 1e-12
        assert abs(minor5 - math.sqrt(R * R - d * d)) <= 1e-12
        assert abs(major5 / minor5 - macbeath_inconic_ratio(rho)) <= 1e-12


def test_inconic_ratio_limits():
    assert x3_inconic_ratio(0.5) == pytest.approx(1.0, abs=1e-12)
    assert macbeath_inconic_ratio(0.5) == pytest.approx(1.0, abs=1e-12)
    assert x3_inconic_ratio(0.3625) == pytest.approx(3.205253, abs=1e-6)
    assert macbeath_inconic_ratio(0.725 / 2) == pytest.approx(1.0 / math.sqrt(0.725), abs=1e-12)


def test_dual_solver_reproduces_excentral_x3_inconic():
    for t in (0.4, 1.0, 2.1):
        tri = orbit(SHAPE, t).triangle
        exc = excentral(tri)
        conic = solve_inconic(exc, center(tri, 40))
        params = conic_to_ellipse_params(conic)
        major, minor = excentral_inconic_axes(tri, "x3")
        assert abs(params.semi_major - major) <= 1e-9
        assert abs(params.semi_minor - minor) <= 1e-9
        assert angle_dist_mod_pi(params.axis_angle, math.pi / 2) <= 1e-9


def test_dual_solver_reproduces_macbeath_inconic():
    for t in (0.4, 1.0, 2.1):
        tri = orbit(SHAPE, t).triangle
        exc = excentral(tri)
        conic = solve_inconic(exc, center(exc, 5))
        params = conic_to_ellipse_params(conic)
        major, minor = excentral_inconic_axes(tri, "macbeath")
        assert abs(params.semi_major - major) <= 1e-9
        assert abs(params.semi_minor - minor) <= 1e-9


def test_x3_inconic_is_rotated_incenter_circumconic():
    for t in (0.4, 1.7):
        tri = orbit(SHAPE, t).triangle
        exc = excentral(tri)
        inconic = conic_to_ellipse_params(solve_inconic(exc, center(tri, 40)))
        circ = conic_to_ellipse_params(solve_circumconic(tri, center(tri, 1)))
        assert abs(inconic.semi_major - circ.semi_major) <= 1e-9
        assert abs(inconic.semi_minor - circ.semi_minor) <= 1e-9
        assert angle_dist_mod_pi(inconic.axis_angle, circ.axis_angle + math.pi / 2) <= 1e-9


def test_macbeath_axes_askew_but_ratio_fixed():
    angles, ratios = [], []
    for t in grid(24):
        tri = orbit(SHAPE, t).triangle
        exc = excentral(tri)
        params = conic_to_ellipse_params(solve_inconic(exc, center(exc, 5)))
        angles.append(params.axis_angle)
        ratios.append(params.aspect)
    assert max(angles) - min(angles) > 0.1  # orientation varies over the family
    ratios = np.array(ratios)
    assert (ratios.max() - ratios.min()) / ratios.mean() <= 1e-9
