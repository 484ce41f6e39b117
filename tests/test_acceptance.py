"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them all
even when everything is green).
"""

import functools
import math

import numpy as np

from conftest import angle_dist_mod_pi, xy_coefficients
from oracles import reflection_map_orbit
from orbitconics import (
    BilliardShape,
    Point,
    PoristicShape,
    ShapeClass,
    Verdict,
    billiard_intersections,
    caustic,
    center,
    circumbilliard,
    classify_orbit,
    conic_eval,
    conic_to_ellipse_params,
    count_interior_maxima,
    equilateral_orthic_threshold,
    excentral,
    excentral_inconic_axes,
    feuerbach_hyperbola,
    fit_circle,
    fit_locus,
    focal_length,
    focal_profile,
    inradius_to_circumradius,
    intouch_superposition_check,
    jerabek_excentral,
    obtuse_threshold,
    orbit,
    poristic_cb_aspect,
    poristic_triangle,
    right_angle_vertex,
    solve_circumconic,
    solve_inconic,
    sweep_locus,
)

GRID_360 = [(k + 0.5) * 2 * math.pi / 360 for k in range(360)]


def criterion(num, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num} FAIL: {description}")
                raise
            print(f"criterion {num} PASS: {description}")

        return wrapper

    return deco


@criterion(1, "circumbilliard of every orbit recovers (a, b, angle 0) to 1e-9")
def test_criterion_1_circumbilliard_fixed_point():
    for alpha in (1.2, 1.5, 1.618, 2.5):
        shape = BilliardShape(alpha, 1.0)
        for t in GRID_360:
            params = circumbilliard(orbit(shape, t).triangle).params
            assert params.center.norm() <= 1e-9 * shape.a
            assert abs(params.semi_major - shape.a) / shape.a <= 1e-9
            assert abs(params.semi_minor - shape.b) / shape.b <= 1e-9
            assert angle_dist_mod_pi(params.axis_angle, 0.0) <= 1e-9


@criterion(2, "perimeter, r/R (with closed form) and Mittenpunkt conserved")
def test_criterion_2_conservation():
    for alpha in (1.2, 1.5, 1.618, 2.5):
        shape = BilliardShape(alpha, 1.0)
        perims, rhos, x9 = [], [], []
        for t in GRID_360:
            tri = orbit(shape, t).triangle
            perims.append(tri.perimeter())
            rhos.append(tri.inradius() / tri.circumradius())
            x9.append(center(tri, 9).norm())
        assert (max(perims) - min(perims)) / np.mean(perims) <= 1e-9
        assert (max(rhos) - min(rhos)) / np.mean(rhos) <= 1e-9
        assert abs(np.mean(rhos) - inradius_to_circumradius(shape)) <= 1e-9
        assert max(x9) <= 1e-9 * shape.a


@criterion(3, "right-angle vertex, quartic, classification flip, thresholds")
def test_criterion_3_right_angle_geometry():
    shape = BilliardShape(1.5, 1.0)
    p = right_angle_vertex(shape)
    assert abs(shape.boundary_value(p)) <= 1e-10
    a2, b2 = shape.a**2, shape.b**2
    quartic = (
        shape.c2**4 * p.x**4
        - 2 * a2**2 * shape.c2 * (a2**2 + 3 * b2**2) * p.x**2
        + a2**4 * (a2**2 + 2 * a2 * b2 - 7 * b2**2)
    )
    assert abs(quartic) / a2**4 <= 1e-10
    t_perp = math.atan2(p.y / shape.b, p.x / shape.a)
    tri = orbit(shape, t_perp).triangle
    assert abs((tri.p2 - tri.p1).dot(tri.p3 - tri.p1)) <= 1e-9
    # classification flips at +-x_perp within grid resolution (check the
    # crossing at (x, y) and its mirror at (-x, y))
    step = 1e-5
    for t_cross in (t_perp, math.pi - t_perp):
        ts = np.arange(t_cross - 40 * step, t_cross + 40 * step, step)
        obtuse = [classify_orbit(shape, float(t)) is ShapeClass.OBTUSE for t in ts]
        flips = [i for i in range(len(ts) - 1) if obtuse[i] != obtuse[i + 1]]
        assert len(flips) == 1 and abs(ts[flips[0]] - t_cross) <= 2 * step
    assert abs(obtuse_threshold() - 1.352) <= 1e-3
    assert abs(equilateral_orthic_threshold() - 1.982) <= 1e-3


@criterion(4, "locus census: X7/X142 elliptic with closed-form axes, X168/X6 not")
def test_criterion_4_locus_census():
    shape = BilliardShape(1.5, 1.0)
    k = (2 * shape.delta - shape.a**2 - shape.b**2) / shape.c2
    rep7 = fit_locus(sweep_locus(shape, 7, n=720).points)
    assert rep7.verdict is Verdict.ELLIPTIC
    assert abs(rep7.fitted_axes[0] - k * shape.a) <= 1e-9
    assert abs(rep7.fitted_axes[1] - k * shape.b) <= 1e-9
    rep142 = fit_locus(sweep_locus(shape, 142, n=720).points)
    assert rep142.verdict is Verdict.ELLIPTIC
    assert abs(rep142.fitted_axes[0] - k * shape.a / 2) <= 1e-9
    assert abs(rep142.fitted_axes[1] - k * shape.b / 2) <= 1e-9
    for bad_center, bad_shape in ((6, shape), (168, shape), (168, BilliardShape(1.618, 1.0))):
        rep = fit_locus(sweep_locus(bad_shape, bad_center, n=720).points)
        assert rep.verdict is Verdict.NON_ELLIPTIC
        assert rep.rms_residual >= 1e-4 * rep.mean_radius
    exc = fit_locus(sweep_locus(shape, "vertices", derived="excentral", n=360).points)
    assert exc.verdict is Verdict.ELLIPTIC
    a_e = (shape.b**2 + shape.delta) / shape.a
    b_e = (shape.a**2 + shape.delta) / shape.b
    assert abs(exc.fitted_axes[0] - a_e) <= 1e-9
    assert abs(exc.fitted_axes[1] - b_e) <= 1e-9


@criterion(5, "X7 X142 X2 X9 X144 collinear in ratio 3:1:2:6; intouch superposition")
def test_criterion_5_collinear_chain_and_superposition():
    shape = BilliardShape(1.5, 1.0)
    for t in GRID_360:
        tri = orbit(shape, t).triangle
        pts = [center(tri, idx) for idx in (7, 142, 2, 9, 144)]
        gaps = [pts[i].dist(pts[i + 1]) for i in range(4)]
        unit = gaps[1]
        for gap, want in zip(gaps, (3.0, 1.0, 2.0, 6.0)):
            assert abs(gap / unit - want) <= 1e-9
        direction = pts[-1] - pts[0]
        direction = direction / direction.norm()
        for p in pts[1:-1]:
            assert abs((p - pts[0]).cross(direction)) <= 1e-9 * shape.a
        report = intouch_superposition_check(shape, t)
        assert report.act_on_billiard <= 1e-9
        assert report.reference_on_medial_cb <= 1e-9


@criterion(6, "poristic circumbilliard aspect invariant; Mittenpunkt locus circular")
def test_criterion_6_poristic():
    ps = PoristicShape(0.3625, 1.0)
    aspects, x9 = [], []
    for theta in GRID_360:
        result = circumbilliard(poristic_triangle(ps, theta))
        aspects.append(result.aspect)
        x9.append(result.mittenpunkt)
    aspects = np.array(aspects)
    assert (aspects.max() - aspects.min()) / aspects.mean() <= 1e-9
    closed = poristic_cb_aspect(ps)
    assert abs(aspects.mean() - closed) <= 1e-6
    assert abs(aspects.mean() - 1.5) <= 2e-3
    assert fit_circle(x9).rms <= 1e-7 * ps.R


@criterion(7, "focal ratio sqrt(2/rho) invariant; 3 maxima; hyperbola incidences")
def test_criterion_7_focal_ratio():
    for alpha in (1.3, 1.5):
        shape = BilliardShape(alpha, 1.0)
        expected = math.sqrt(2.0 / inradius_to_circumradius(shape))
        ratios = []
        for t in GRID_360:
            remainder = min(t % (math.pi / 2), (math.pi / 2) - (t % (math.pi / 2)))
            if remainder < 1e-3:
                continue
            tri = orbit(shape, t).triangle
            f = feuerbach_hyperbola(tri)
            j = jerabek_excentral(tri)
            ratios.append(focal_length(j) / focal_length(f))
        ratios = np.array(ratios)
        assert (ratios.max() - ratios.min()) / ratios.mean() <= 1e-9
        assert abs(ratios.mean() - expected) <= 1e-9
        profile = focal_profile(shape, n=2000)
        assert count_interior_maxima([s.feuerbach for s in profile]) == 3
    shape = BilliardShape(1.5, 1.0)
    tri = orbit(shape, 0.4).triangle
    f = feuerbach_hyperbola(tri)
    j = jerabek_excentral(tri)
    f_scale = math.sqrt(sum(c * c for c in xy_coefficients(f)))
    j_scale = math.sqrt(sum(c * c for c in xy_coefficients(j)))
    x1156 = center(tri, 1156)
    assert abs(conic_eval(f, x1156)) / f_scale <= 1e-9
    assert abs(shape.boundary_value(x1156)) <= 1e-9
    for idx in (1, 4, 9):
        assert abs(conic_eval(f, center(tri, idx))) / f_scale <= 1e-9
    for p in excentral(tri).vertices:
        assert abs(conic_eval(j, p)) / j_scale <= 1e-9
    for idx in (1, 9, 40):
        assert abs(conic_eval(j, center(tri, idx))) / j_scale <= 1e-9
    assert len(billiard_intersections(shape, j)) == 2


@criterion(8, "excentral inconic axes (R+d, R-d) and (R, sqrt(R^2-d^2)); duals agree")
def test_criterion_8_inconic_ratios():
    shape = BilliardShape(1.5, 1.0)
    caus = caustic(shape)
    for k in range(24):
        t = (k + 0.5) * 2 * math.pi / 24
        tri = orbit(shape, t).triangle
        exc = excentral(tri)
        # circumcenter-centered inconic of the excentral
        params3 = conic_to_ellipse_params(solve_inconic(exc, center(tri, 40)))
        major3, minor3 = excentral_inconic_axes(tri, "x3")
        assert abs(params3.semi_major - major3) <= 1e-9
        assert abs(params3.semi_minor - minor3) <= 1e-9
        # MacBeath inconic of the excentral
        params5 = conic_to_ellipse_params(solve_inconic(exc, center(exc, 5)))
        major5, minor5 = excentral_inconic_axes(tri, "macbeath")
        assert abs(params5.semi_major - major5) <= 1e-9
        assert abs(params5.semi_minor - minor5) <= 1e-9
        # 90-degree-rotated copy of the incenter-centered circumconic
        circ = conic_to_ellipse_params(solve_circumconic(tri, center(tri, 1)))
        assert abs(params3.semi_major - circ.semi_major) <= 1e-9
        assert abs(params3.semi_minor - circ.semi_minor) <= 1e-9
        assert angle_dist_mod_pi(params3.axis_angle, circ.axis_angle + math.pi / 2) <= 1e-9
        # orbit inconic at the origin is the caustic
        pc = conic_to_ellipse_params(solve_inconic(tri, Point(0.0, 0.0)))
        assert abs(pc.semi_major - caus.semi_major) <= 1e-9
        assert abs(pc.semi_minor - caus.semi_minor) <= 1e-9
        # excentral inconic at the origin is the billiard itself
        pe = conic_to_ellipse_params(solve_inconic(exc, Point(0.0, 0.0)))
        assert abs(pe.semi_major - shape.a) <= 1e-9
        assert abs(pe.semi_minor - shape.b) <= 1e-9


@criterion(9, "closed-form orbits match the reflection-map closure oracle to 1e-8")
def test_criterion_9_oracle_cross_check():
    rng = np.random.default_rng(1234)
    for _ in range(32):
        alpha = rng.uniform(1.05, 2.9)
        t = rng.uniform(0.0, 2.0 * math.pi)
        shape = BilliardShape(alpha, 1.0)
        tri = orbit(shape, t).triangle
        q1, q2, q3 = reflection_map_orbit(alpha, 1.0, t)
        assert tri.p1.dist(Point(*q1)) <= 1e-8
        assert tri.p2.dist(Point(*q2)) <= 1e-8
        assert tri.p3.dist(Point(*q3)) <= 1e-8
