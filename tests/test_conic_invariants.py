import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import angle_dist_mod_pi, xy_coefficients
from oracles import (ConicClass, billiard_intersections_pointwise, centers_decimal, classify_conic,
                     excenters_decimal, excentral_inconic_axes_decimal, stack_tris,
                     xy_focal_decimal)
from orbitconics import (
    BilliardShape,
    Conic,
    DegenerateConic,
    DegenerateTriangle,
    FocalSample,
    IllConditioned,
    InvalidShape,
    Point,
    PointAtInfinity,
    PoristicShape,
    Skips,
    Tri,
    Triangle,
    billiard_intersections,
    center,
    circumbilliard,
    conic_center,
    conic_eval,
    conic_to_ellipse_params,
    count_interior_maxima,
    excentral,
    excentral_inconic_axes,
    feuerbach_hyperbola,
    fit_circle,
    focal_length,
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
    sweep_locus,
    x3_inconic_ratio,
)
from orbitconics.centers import center_of, derived_of
from orbitconics.kernel import RAISE
from orbitconics.loci import poristic_report, sample_grid

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
    for rho in (0.5, 0.3625, 0.1, 1e-3):
        ps = PoristicShape(rho, 1.0)
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


def test_batched_poristic_sweep_matches_the_scalar_centers():
    ps = PoristicShape(0.3625, 1.0)
    sweep = sweep_locus(ps, 9, n=90)
    assert not sweep.skipped
    assert sweep.t_values == sample_grid(90).tolist()
    for p, th in zip(sweep.points, sweep.t_values):
        assert p.dist(center(poristic_triangle(ps, th), 9)) <= 1e-12 * ps.R
    assert fit_circle(sweep.points).rms <= 1e-7 * ps.R


def test_poristic_report_matches_the_scalar_aspects():
    ps = PoristicShape(0.3625, 1.0)
    report = poristic_report(ps, n=60)
    aspects = [circumbilliard(poristic_triangle(ps, th)).aspect for th in grid(60)]
    mean = float(np.mean(aspects))
    assert report.n_skipped == 0
    assert abs(report.aspect_mean - mean) <= 1e-12
    assert abs(report.aspect_spread_rel - (max(aspects) - min(aspects)) / mean) <= 1e-12
    assert report.closed_form == poristic_cb_aspect(ps)


@pytest.mark.parametrize("r, refused", [
    (0.5, True), (0.4999999999, True), (0.49999, False), (0.3625, False)])
def test_fit_circle_refuses_a_locus_bunched_at_a_point(r, refused):
    # at R = 2r every member is equilateral and the Mittenpunkt stays at the center
    ps = PoristicShape(r, 1.0)
    pts = [center(poristic_triangle(ps, th), 9) for th in grid(360)]
    if refused:
        with pytest.raises(IllConditioned):
            fit_circle(pts)
    else:
        assert fit_circle(pts).radius > 0.0


# -------------------------------------------------------------- hyperbolas

def test_feuerbach_incidences():
    tri = orbit(SHAPE, 0.4).triangle
    hyp = feuerbach_hyperbola(tri)
    scale = math.sqrt(sum(c * c for c in xy_coefficients(hyp)))
    for p in tri.vertices:
        assert abs(conic_eval(hyp, p)) / scale <= 1e-9
    for idx in (1, 4, 9, 1156):
        assert abs(conic_eval(hyp, center(tri, idx))) / scale <= 1e-9
    x1156 = center(tri, 1156)
    assert abs(SHAPE.boundary_value(x1156)) <= 1e-9
    assert conic_center(hyp).dist(center(tri, 11)) <= 1e-9
    assert classify_conic(hyp) is ConicClass.HYPERBOLA


def test_jerabek_excentral_incidences():
    tri = orbit(SHAPE, 0.4).triangle
    hyp = jerabek_excentral(tri)
    scale = math.sqrt(sum(c * c for c in xy_coefficients(hyp)))
    for p in excentral(tri).vertices:
        assert abs(conic_eval(hyp, p)) / scale <= 1e-9
    for idx in (1, 9, 40):
        assert abs(conic_eval(hyp, center(tri, idx))) / scale <= 1e-9
    assert conic_center(hyp).dist(center(tri, 100)) <= 1e-9


def test_hyperbola_degenerates_at_isosceles():
    tri = orbit(SHAPE, 0.0).triangle
    with pytest.raises(DegenerateConic):
        feuerbach_hyperbola(tri)
    tri_up = orbit(SHAPE, math.pi / 2.0).triangle
    with pytest.raises(DegenerateConic):
        feuerbach_hyperbola(tri_up)


def test_hyperbola_of_vertices_in_line_with_the_origin_is_refused():
    # c3 = 0 leaves Conic(0, 0, 0, D, E, 0), no hyperbola; the focal length bound refuses c_i = 0
    tri = Tri(1 + 1j, 2 + 2j, 3 + 3j)
    with pytest.raises(DegenerateConic):
        feuerbach_hyperbola(tri)
    skips = Skips(2)
    feuerbach_hyperbola(Tri(*(np.array([p, p]) for p in tri.vertices)), skips)
    assert not skips.valid.any() and skips.failures[0][0] is DegenerateConic


@pytest.mark.parametrize("first", [(0.0, 0.0), (1e-12, -3e-13)])
def test_hyperbola_of_a_vertex_at_the_origin_is_refused(first):
    # a vertex on the origin has a zero row, which every null vector passes, so the Mittenpunkt
    # check held vacuously: at (0, 0) this answered 0.5102260072873557 for a conic whose value at
    # X1 is -6.3e-3
    tri = Triangle.from_coords([first, (1.0, 0.2), (0.3, 0.5)])
    with pytest.raises(DegenerateConic, match="Mittenpunkt") as refused:
        feuerbach_hyperbola(tri)
    good = orbit(SHAPE, 0.4).triangle
    skips = Skips(2)
    hyp = feuerbach_hyperbola(stack_tris([tri, good]), skips)
    assert skips.valid.tolist() == [False, True]
    assert skips.failures[skips.code[0]] == (DegenerateConic, str(refused.value))
    assert [np.broadcast_to(c, 2)[1] for c in hyp.coeffs] == list(feuerbach_hyperbola(good).coeffs)


def test_excentral_of_a_collinear_triangle_is_refused_before_its_division():
    # the float sides add exactly (c + a - b = 0), so an unchecked excenter divides by zero
    tri = Tri(1 + 1j, 2 + 2j, 3 + 3j)
    assert tri.s3 + tri.s1 - tri.s2 == 0.0
    for construct in (lambda: derived_of(tri, "excentral", RAISE),
                      lambda: center_of(tri, 168, RAISE), lambda: jerabek_excentral(tri)):
        with pytest.raises(DegenerateTriangle):
            construct()
    good = orbit(SHAPE, 0.3).triangle.tri
    skips = Skips(2)
    with np.errstate(all="ignore"):  # the refused row still divides by zero
        hyp = jerabek_excentral(Tri(*(np.array([p, q]) for p, q in zip(tri.vertices, good.vertices))),
                                skips)
    assert skips.valid.tolist() == [False, True]
    assert skips.failures[skips.code[0]][0] is DegenerateTriangle
    assert [np.broadcast_to(c, 2)[1] for c in hyp.coeffs] == list(jerabek_excentral(good).coeffs)



@pytest.mark.parametrize("apex_x", [0.1, 0.3, 0.5])
@pytest.mark.parametrize("height", [1e-9, 3e-9, 1e-11])
def test_excentral_of_a_triangle_whose_divisor_rounds_to_zero_is_refused(apex_x, height):
    # b + c - a of the longest side rounds to 0 when formed from the float sides; the excenters
    # take it without cancellation, so the excentral triangle and X168 answer within the decimal
    # oracle's 1e-15 / h bound, one stacked row to the bit, and only the Jerabek hyperbola,
    # whose focal length such a thin triangle leaves unresolved, is refused
    tri = Triangle.from_coords([(0.0, 0.0), (1.0, 0.0), (apex_x, height)])
    s1, s2, s3 = tri.sidelengths()
    assert s1 + s2 - s3 == 0.0
    vertices = [p.as_tuple() for p in tri.vertices]
    want = excenters_decimal(vertices)
    tol = 1e-15 / height * max(abs(want[1] - want[2]), abs(want[2] - want[0]), abs(want[0] - want[1]))
    got = excentral(tri)
    assert all(abs(p.z - w) <= tol for p, w in zip(got.vertices, want))
    assert abs(center(tri, 168).z - centers_decimal(vertices, 168)) <= tol
    skips = Skips(2)
    stacked = derived_of(Tri(*(np.array([p, p]) for p in tri.tri.vertices)), "excentral", skips)
    assert skips.valid.all()
    assert [complex(z[1]) for z in stacked.vertices] == [p.z for p in got.vertices]
    with pytest.raises(DegenerateConic):
        jerabek_excentral(tri)


def test_focal_length_refused_near_isosceles():
    # at t = 1e-12 the smallest xy-coefficient of either hyperbola has
    # cancelled to ~1e-11 of the largest; at t = 1e-6 it is still resolved
    shape = BilliardShape(2.0, 1.0)
    fam = orbit(shape, np.array([1e-12, 1e-6]))
    for hyperbola in (feuerbach_hyperbola, jerabek_excentral):
        skips = Skips(2)
        with np.errstate(all="ignore"):
            batched = focal_length(hyperbola(fam.tri, skips), skips)
        with pytest.raises(DegenerateConic) as refused:
            hyperbola(orbit(shape, 1e-12).triangle)
        assert skips.failures[skips.code[0]] == (DegenerateConic, str(refused.value))
        near = focal_length(hyperbola(orbit(shape, 1e-6).triangle))
        assert skips.valid[1] and near > 0.0
        assert abs(batched[1] - near) <= 1e-9 * near


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
            focal_length(jerabek_excentral(tri)) / focal_length(feuerbach_hyperbola(tri))
        )
    ratios = np.array(ratios)
    assert (ratios.max() - ratios.min()) / ratios.mean() <= 1e-9
    assert abs(ratios.mean() - expected) <= 1e-9


@pytest.mark.parametrize("alpha", [1.0 + 1e-7, 1.00001, 1.3, 1.5])
def test_focal_profile_three_maxima(alpha):
    shape = BilliardShape(alpha, 1.0)
    profile = focal_profile(shape, n=2000)
    assert count_interior_maxima([s.feuerbach for s in profile]) == 3
    assert count_interior_maxima([s.jerabek_excentral for s in profile]) == 3
    ratios = np.array([s.ratio for s in profile])
    assert (ratios.max() - ratios.min()) / ratios.mean() <= 1e-9


def test_focal_profile_is_a_view_of_its_samples():
    shape = BilliardShape(1.5, 1.0)
    profile = focal_profile(shape, n=400)
    t = (np.arange(400) + 0.5) * (0.5 * math.pi / 400)
    t = t[(t >= 1e-3) & (0.5 * math.pi - t >= 1e-3)]
    fam = orbit(shape, t)
    skips = Skips(t.size)
    feuerbach = focal_length(feuerbach_hyperbola(fam.tri, skips), skips)
    jerabek = focal_length(jerabek_excentral(fam.tri, skips), skips)
    assert skips.valid.all()
    # the list of samples focal_profile used to build
    samples = [FocalSample(*s) for s in zip(t.tolist(), feuerbach.tolist(), jerabek.tolist())]
    assert profile == samples and list(profile) == samples and len(profile) == len(samples)
    assert profile[3] == samples[3] and profile[-1] == samples[-1]
    assert profile[5:8] == samples[5:8]
    assert profile == focal_profile(shape, n=400)
    assert profile != focal_profile(shape, n=401)
    assert repr(profile) == f"FocalProfile({samples!r})"
    for s in profile[:40:7]:
        tri = orbit(shape, s.t).triangle
        assert s.feuerbach == pytest.approx(focal_length(feuerbach_hyperbola(tri)), rel=1e-9)
        assert s.jerabek_excentral == pytest.approx(focal_length(jerabek_excentral(tri)), rel=1e-9)


def test_poristic_triangle_and_focal_profile_build_no_value_per_sample(monkeypatch):
    built = []
    for cls in (Point, FocalSample):
        init = cls.__init__

        def counted(self, *args, init=init):
            built.append(type(self))
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    tri = poristic_triangle(PoristicShape(0.3, 1.0), 0.7)
    assert built == []
    profile = focal_profile(BilliardShape(1.5, 1.0), n=200)
    assert built == []
    # items are built when read, through the validating constructors
    tri.vertices, list(profile)
    assert built == [Point] * 3 + [FocalSample] * len(profile)


@pytest.mark.parametrize("alpha", [2.002267669205896, 2.0137899370116554])
def test_focal_profile_leaves_out_refused_samples(alpha):
    # a grid sample lands where both hyperbolae degenerate (focal lengths through 0);
    # it is refused (1997 of the 1998 samples are kept), and the whole profile used to be
    shape = BilliardShape(alpha, 1.0)
    profile = focal_profile(shape, n=2000)
    assert 1996 <= len(profile) <= 1998
    assert len(profile) + len(profile.skipped) == 1998
    ratios = np.array([s.ratio for s in profile])
    assert (ratios.max() - ratios.min()) / ratios.mean() <= 1e-9
    assert count_interior_maxima([s.feuerbach for s in profile]) == 3


def test_focal_profile_says_what_it_skipped():
    profile = focal_profile(BilliardShape(2.002267669205896, 1.0), n=2000)
    assert len(profile) == 1997
    [(t, reason)] = profile.skipped
    assert reason == "DegenerateConic"
    assert 0.5 < t < 0.53 and t not in [s.t for s in profile]
    assert focal_profile(BilliardShape(1.5, 1.0), n=2000).skipped == []


@pytest.mark.parametrize("k", [-100, -30, -14, 14, 30, 100])
def test_focal_profile_scales_exactly(k):
    # the focal-length bound is homogeneous in the coordinates, so 2^k times the shape gives
    # 2^k times every focal length, with the same (no) skips
    base = focal_profile(BilliardShape(1.5, 1.0), 720)
    profile = focal_profile(BilliardShape(math.ldexp(1.5, k), math.ldexp(1.0, k)), 720)
    assert profile.skipped == base.skipped == []
    assert np.array_equal(profile.array[:, 0], base.array[:, 0])
    assert np.array_equal(profile.array[:, 1:], np.ldexp(base.array[:, 1:], k))


@pytest.mark.parametrize("alpha", [1.5, 3.0, 10.0])
def test_decimal_xy_focal_oracle_meets_the_closed_form_ratio(alpha):
    shape = BilliardShape(alpha, 1.0)
    for t in (0.4, 1.1, 2.3):
        tri = orbit(shape, t).triangle
        feuerbach, jerabek = (xy_focal_decimal([p.as_tuple() for p in v.vertices])
                              for v in (tri, excentral(tri)))
        assert abs(jerabek / feuerbach - focal_ratio_closed_form(shape)) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(
    alpha=st.floats(-9.0, math.log10(999.0)).map(lambda k: 1.0 + 10.0**k),
    t=st.floats(0.0, 2.0 * math.pi) | st.builds(
        lambda quarter, offset: quarter * 0.5 * math.pi + offset,
        st.integers(0, 3), st.floats(-2.0, 2.0).map(lambda k: math.copysign(10.0 ** (5 * abs(k) - 11), k))),
    signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=6, max_size=6),
)
def test_xy_focal_lengths_hold_to_a_decimal_solve_or_are_refused(alpha, t, signs):
    # t uniform, or 1e-11 to 0.1 from an isosceles orbit, where the focal lengths cancel; the bound
    # takes each coordinate as off by EPS/2 of the largest, so an answer is within 1e-9 of the
    # decimal focal length at the float vertices and at the vertices moved by half an ulp of the
    # largest coordinate; anything else raises DegenerateConic
    tri = orbit(BilliardShape(alpha, 1.0), t).triangle
    for hyperbola, v in ((feuerbach_hyperbola, tri), (jerabek_excentral, excentral(tri))):
        try:
            got = focal_length(hyperbola(tri))
        except DegenerateConic:
            continue
        xy = [p.as_tuple() for p in v.vertices]
        step = 0.5 * math.ulp(max(abs(x) for p in xy for x in p))
        for move in (0.0, step, -step):
            moved = [(x + move * signs[2 * k], y + move * signs[2 * k + 1]) for k, (x, y) in enumerate(xy)]
            assert abs(got - xy_focal_decimal(moved)) <= 1e-9 * got


def test_jerabek_meets_billiard_twice():
    for t in (0.4, 1.1, 2.3):
        hyp = jerabek_excentral(orbit(SHAPE, t).triangle)
        pts = billiard_intersections(SHAPE, hyp)
        assert len(pts) == 2
        for p in pts:
            assert abs(SHAPE.boundary_value(p)) <= 1e-9
            scale = math.sqrt(sum(c * c for c in xy_coefficients(hyp)))
            assert abs(conic_eval(hyp, p)) / scale <= 1e-9


def test_billiard_intersections_equal_the_pointwise_loop():
    # the hyperbolae of the acceptance criterion and of the demo (t = 0.4) and those above
    for t in (0.4, 1.1, 2.3):
        tri = orbit(SHAPE, t).triangle
        for hyp in (jerabek_excentral(tri), feuerbach_hyperbola(tri)):
            points = billiard_intersections(SHAPE, hyp)
            assert points and points == billiard_intersections_pointwise(SHAPE, hyp)
    # the cone x y = 0 meets the boundary at the four axis ends, the first a grid point on it
    points = billiard_intersections(SHAPE, Conic(0.0, 0.5, 0.0, 0.0, 0.0, 0.0))
    assert len(points) == 4 and points[0] == Point(1.5, 0.0)
    assert points == billiard_intersections_pointwise(SHAPE, Conic(0.0, 0.5, 0.0, 0.0, 0.0, 0.0))


def test_translated_hyperbolas_are_xy_equals_k():
    tri = orbit(SHAPE, 0.4).triangle
    for hyp, center_idx in (
        (feuerbach_hyperbola(tri), 11),
        (jerabek_excentral(tri), 100),
    ):
        shift = center(tri, center_idx)
        c1, c2, c3 = xy_coefficients(hyp)
        # after translating by -shift: coefficient of x and y must vanish
        lin_x = c1 + c3 * shift.y
        lin_y = c2 + c3 * shift.x
        scale = abs(c1) + abs(c2) + abs(c3)
        assert abs(lin_x) / scale <= 1e-9
        assert abs(lin_y) / scale <= 1e-9
        k = -(c1 * shift.x + c2 * shift.y + c3 * shift.x * shift.y) / c3
        assert abs(k - c1 * c2 / (c3 * c3)) <= 1e-9 * abs(k)
        assert abs(focal_length(hyp) - 2.0 * math.sqrt(2.0 * abs(k))) <= 1e-9


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


@pytest.mark.parametrize("alpha", [1.5, 10.0, 100.0, 1000.0])
def test_decimal_inconic_reference_meets_the_closed_form_ratios(alpha):
    shape = BilliardShape(alpha, 1.0)
    rho = inradius_to_circumradius(shape)
    for t in grid(8):
        v = [p.as_tuple() for p in orbit(shape, t).triangle.vertices]
        for which, ratio in (("x3", x3_inconic_ratio), ("macbeath", macbeath_inconic_ratio)):
            major, minor = excentral_inconic_axes_decimal(v, which)
            # the float closed form of rho loses ~6 digits at a/b = 1000
            assert major / minor == pytest.approx(ratio(rho), rel=1e-9)


@pytest.mark.parametrize("alpha", [1.0 + 1e-7, 1.5, 10.0, 100.0, 1000.0])
def test_excentral_inconic_axes_match_decimal_reference(alpha):
    # R - d and sqrt(R^2 - d^2) computed in floats were off by 2.7e-4 of
    # the major axis at a/b = 1000
    shape = BilliardShape(alpha, 1.0)
    for t in grid(16):
        tri = orbit(shape, t).triangle
        for which in ("x3", "macbeath"):
            want = excentral_inconic_axes_decimal([p.as_tuple() for p in tri.vertices], which)
            got = excentral_inconic_axes(tri, which)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_excentral_inconic_axes_refusals():
    # passes the triangle's area check, but its circumcenter is at infinity within rounding
    needle = Triangle.from_coords([(0.0, 0.0), (1.0, 1e-8), (2.0, 0.0)])
    with pytest.raises(PointAtInfinity):
        excentral_inconic_axes(needle, "x3")
    # R overflows
    huge = Triangle.from_coords([(0.0, 0.0), (1e110, 0.0), (0.0, 1e110)])
    for which in ("x3", "macbeath"):
        with pytest.raises(ValueError, match="non-finite"):
            excentral_inconic_axes(huge, which)


@pytest.mark.parametrize("which", ["x3", "macbeath"])
def test_excentral_inconic_axes_answer_or_refuse_at_every_scale(which):
    # R reads s1 s2 s3: below sides of about 3e-103 it goes subnormal (R drifted by 16% at 1e-108)
    # and then 0 (a ZeroDivisionError for "x3", (0, 0) for "macbeath"); above 5.6e102 it is inf
    for k in range(-120, 121):
        v = [(0.0, 0.0), (3.0 * 10.0**k, 0.0), (10.0**k, 2.0 * 10.0**k)]
        try:
            got = excentral_inconic_axes(Triangle.from_coords(v), which)
        except ValueError as exc:
            assert "beyond the float range" in str(exc), k
            continue
        want = excentral_inconic_axes_decimal(v, which)
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12 * want[0], k


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
