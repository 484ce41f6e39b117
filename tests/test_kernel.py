import math
import pickle
import struct
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import angle_dist_mod_pi, five_coefficients, random_triangle, residual_scale
from oracles import (axis_endpoints, circumconic_generic, ellipse_to_conic,
                     excentral_inconic_axes_decimal, extremal_radii, incircle)
from orbitconics import (
    BilliardShape,
    Conic,
    ConicClass,
    DegenerateConic,
    DegenerateTriangle,
    EllipseParams,
    NoRealConic,
    NotAnEllipse,
    OrbitConicsError,
    Point,
    SingularSystem,
    Tri,
    Triangle,
    caustic,
    center,
    classify_conic,
    conic_eval,
    conic_to_ellipse_params,
    excentral,
    line_conic_tangency_residual,
    orbit,
    solve_circumconic,
    solve_inconic,
)
from orbitconics.circumbilliard import circumbilliard_of
from orbitconics.kernel import (RAISE, Skips, _unit, circumconic_of, complex_of, ellipse_axes,
                                tangency_of)

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


def test_complex_of_arrays_keeps_the_bits_of_complex():
    def bits(z):
        return np.asarray(z, dtype=complex).reshape(-1).view(np.uint64)

    payload_nan = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000123))[0]
    parts = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, payload_nan, 5e-324, -1.5, 1e308]
    x = np.repeat(parts, len(parts))
    y = np.tile(parts, len(parts))
    got = complex_of(x, y)
    assert got.shape == x.shape
    assert (bits(got) == bits([complex(a, b) for a, b in zip(x.tolist(), y.tolist())])).all()
    # y broadcast to x's shape: a row against every row of x, and one number
    rows = x.reshape(len(parts), len(parts))
    got = complex_of(rows, y[: len(parts)])
    want = [[complex(a, b) for a, b in zip(row, parts)] for row in rows.tolist()]
    assert got.shape == rows.shape and (bits(got) == bits(want)).all()
    got = complex_of(x, -0.0)
    assert (bits(got) == bits([complex(a, -0.0) for a in x.tolist()])).all()
    # numbers give a Python complex
    assert type(complex_of(-0.0, math.inf)) is complex
    assert (bits(complex_of(-0.0, payload_nan)) == bits(complex(-0.0, payload_nan))).all()


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


def test_classify_is_unchanged_by_a_power_of_two(rng):
    conics = [UNIT_CIRCLE, Conic(0, 0.5, 0, 0, 0, 1.0), Conic(1.0, 0, 0, 0, 0.5, 1.0),
              Conic(-1.0, 0, 0, 0, 0, 1.0)]
    conics += [Conic(*rng.uniform(-10.0, 10.0, 6).tolist()) for _ in range(300)]
    conics += [solve_circumconic(tri, center(tri, 9)) for tri in map(random_triangle, [rng] * 50)]
    for conic in conics:
        cls = classify_conic(conic)
        for k in (-900, -513, -170, -60, -1, 1, 60, 170, 513, 900):
            scaled = Conic(*(math.ldexp(c, k) for c in conic.coeffs), conic.anchor)
            assert classify_conic(scaled) is cls


def test_classify_huge_coefficients():
    # the cube of the largest coefficient would overflow a float
    assert classify_conic(Conic(1e200, 0.0, 2e200, 0.0, 0.0, -3e200)) is ConicClass.ELLIPSE
    assert classify_conic(Conic(1e200, 0.0, -2e200, 0.0, 0.0, -3e200)) is ConicClass.HYPERBOLA
    # its x semi-axis is 10^-51.5 of its y semi-axis: a line pair at the relative threshold
    assert classify_conic(Conic(1e103, 0, 1, 0, 0, -1)) is ConicClass.DEGENERATE


def _bits(x):
    """The float64 bit patterns of a number or an array, so that -0.0 differs from 0.0."""
    return np.asarray(x, dtype=float).view(np.int64).tolist()


def test_circumconic_of_is_the_generic_form_bit_for_bit(rng):
    # random triangles, triangles with sides along the axes and signed zero
    # coordinates, and triangles far from unit size
    grid = np.array([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0])
    stacks = [rng.uniform(-5.0, 5.0, (2000, 3, 2)), rng.choice(grid, (2000, 3, 2)),
              rng.uniform(-1.0, 1.0, (2000, 3, 2)) * 10.0 ** rng.uniform(-60, 150, (2000, 1, 1))]
    for coords in stacks:
        z = coords.view(complex)[..., 0]  # keeps the sign of a zero coordinate
        stack = Tri(z[:, 0], z[:, 1], z[:, 2])
        keep = stack.area > 0.0
        stack = Tri(z[keep, 0], z[keep, 1], z[keep, 2])
        sides = np.array([stack.s1, stack.s2, stack.s3])
        for perspector in (tuple(sides), tuple(rng.choice([-1.0, 1.0], sides.shape) * sides)):
            with np.errstate(over="ignore", invalid="ignore"):  # the largest triangles overflow
                expected = circumconic_generic(stack, perspector)
                assert _bits(circumconic_of(stack, perspector).coeffs) == _bits(expected)
            for i in range(0, len(stack.p1), 7):
                one = Tri(*(complex(p[i]) for p in stack.vertices))
                u = tuple(float(x[i]) for x in perspector)
                assert _bits(circumconic_of(one, u).coeffs) == _bits(circumconic_generic(one, u))


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
        for p in axis_endpoints(back):
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


@pytest.mark.parametrize("s", [1e80, 1e150])
def test_inconic_refuses_a_dual_system_past_the_float_range(s):
    # w^2 for the sidelines' constant terms w overflows, and with it det P
    tri = Triangle(Point(0.0, 0.0), Point(4.0 * s, 0.0), Point(s, 3.0 * s))
    with pytest.raises(SingularSystem, match="not finite"):
        solve_inconic(tri, center(tri, 2))


def test_inconic_refuses_a_center_whose_sidelines_round_to_parallel():
    # about a center 1e17 away, the triangle's vertices round onto one another
    tri = Triangle(Point(0.0, 0.0), Point(4.0, 0.0), Point(1.0, 3.0))
    with pytest.raises(SingularSystem, match="not finite"):
        solve_inconic(tri, Point(1e17, 1e17))


def _thin_orbit(alpha, k):
    return orbit(BilliardShape(alpha, 1.0), 2 * math.pi * (k + 0.5) / 96).triangle


# each refusal below is at least 7x past its threshold and every check before it that raises
# another type is short of its own; the solve is plain float arithmetic, so the check an input
# reaches is the same on every platform
def test_inconic_refuses_thin_inconics_it_cannot_resolve():
    # the MacBeath inconic of a thin orbit's excentral (a/b = 300), which the SVD refused as rank
    # deficient: unresolved's bound is 19x its 1e-9, det3 16x above the degenerate band; the
    # axes it refuses are within 2e-13 of the decimal reference
    exc = excentral(_thin_orbit(300.0, 93))
    with pytest.raises(DegenerateConic):
        solve_inconic(exc, center(exc, 5))
    # a moved x3 inconic of a thin orbit (a/b = 200), which missed its center under the SVD:
    # unresolved's bound is 2,181x its 1e-9, det3 1.17x above the degenerate band and the
    # sidelines 107x inside TANGENCY_TOL; the axes are within 3e-12 of a decimal solve
    tri = Triangle.from_coords([(-9717.395504159926, -9849.893227362007),
                                (-0.2706763788235503, 0.07568421829480057),
                                (-61.57457846262972, 60.40038729630406)])
    with pytest.raises(DegenerateConic):
        solve_inconic(tri, Point(-4883.234108854321, -4900.83684335589))


def test_inconic_refuses_axes_it_cannot_resolve():
    # the x3 inconic: unresolved's bound is 133x its 1e-9; det3 6x above the degenerate band
    tri = _thin_orbit(100.0, 1)
    with pytest.raises(DegenerateConic):
        solve_inconic(excentral(tri), center(tri, 40))


@pytest.mark.parametrize("vertices, ctr", [
    # rounded solutions that miss a sideline (the degenerate and tangency checks raise
    # NoRealConic): a hyperbola of a thin triangle by 403x TANGENCY_TOL, det3 6,277x above the
    # degenerate band
    (((-142.5571322958998, 1805.1709374455716), (-693.8142730920224, 1887.4590271947545),
      (49.92807076572629, 1776.4350693716463)), (-271.6491267921621, 1824.44054620239)),
    # a moved x3 inconic of a thin orbit (a/b = 100) by 7.6x TANGENCY_TOL, det3 2.1x above the
    # degenerate band; its axes are within 3e-13 of a decimal solve
    (((76.0484696586957, -456.81732420218646), (246.87319623688532, 208.54528262716065),
      (-600.2995311014316, 426.00133612196913)), (-262.10281249883053, -15.390589079773036)),
])
def test_inconic_refuses_a_solution_that_misses_its_conditions(vertices, ctr):
    with pytest.raises(NoRealConic, match="tangency residual"):
        solve_inconic(Triangle.from_coords(vertices), Point(*ctr))


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


def test_inconic_axes_match_decimal_references(rng):
    # excentral x3 and MacBeath inconics against their decimal axes, the orbit's inconic at the
    # origin against the caustic, random incircles against the oracle's radius
    cases = []
    for alpha, n in ((1.5, 24), (10.0, 12), (100.0, 12)):
        shape = BilliardShape(alpha, 1.0)
        for k in range(n):  # at a/b = 1.5, criterion 8's samples
            tri = orbit(shape, (k + 0.5) * 2 * math.pi / n).triangle
            exc, v = excentral(tri), [p.as_tuple() for p in tri.vertices]
            caus = caustic(shape)
            cases += [(exc, center(tri, 40), excentral_inconic_axes_decimal(v, "x3")),
                      (exc, center(exc, 5), excentral_inconic_axes_decimal(v, "macbeath")),
                      (tri, Point(0.0, 0.0), (caus.semi_major, caus.semi_minor))]
    for _ in range(100):
        tri = random_triangle(rng)
        inc, r = incircle([p.as_tuple() for p in tri.vertices])
        cases.append((tri, Point(inc[0], inc[1]), (r, r)))
    answered = 0
    for tri, ctr, (major, minor) in cases:
        try:
            got = conic_to_ellipse_params(solve_inconic(tri, ctr))
        except OrbitConicsError:
            continue
        assert abs(got.semi_major - major) <= 1e-9 * major
        assert abs(got.semi_minor - minor) <= 1e-9 * major
        answered += 1
    assert answered >= 150  # 200 of the 244


#: The cone x y = 0, the union of the two axes.
AXES = Conic(0.0, 0.5, 0.0, 0.0, 0.0, 0.0)


def _stacked_tangency(conic, p, q):
    """``tangency_of`` the unit conic on a stack (p, q complex arrays), and each row's failure."""
    skips = Skips(len(p))
    with np.errstate(invalid="ignore"):  # a refused row divides 0 by 0
        residual = tangency_of(_unit(conic)[0], p, q, skips)
    return residual.tolist(), [skips.reason(i) for i in range(len(p))]


@pytest.mark.parametrize("conic, p, q, exc", [
    # the x-axis lies in the cone: its restriction vanishes and has no discriminant
    (AXES, Point(1.0, 0.0), Point(2.0, 0.0), DegenerateConic),
    # the same on a stack of two, whose Skips refuses both rows
    (Conic(*np.multiply.outer(AXES.coeffs, np.ones(2))), np.full(2, 1 + 0j), np.full(2, 2 + 0j),
     DegenerateConic),
    # two equal points span no line, on the conic or off it (where 0.0, "tangent", was returned)
    (AXES, Point(1.0, 0.0), Point(1.0, 0.0), ValueError),
    (Conic(1.0, 0.0, 1.0, 0.0, 0.0, -1.0), Point(3.0, 1.0), Point(3.0, 1.0), ValueError),
], ids=["line in the conic", "line in the conic, stacked", "equal points on the conic",
        "equal points off the conic"])
def test_tangency_residual_of_a_line_it_cannot_measure_is_refused(conic, p, q, exc):
    if isinstance(p, Point):
        with pytest.raises(exc):
            line_conic_tangency_residual(conic, p, q)
    else:
        assert _stacked_tangency(conic, p, q)[1] == [exc.__name__] * len(p)


@pytest.mark.parametrize("s", [1e-170, 1e-160, 1.0, 1e160, 1e170, pytest.param(
    np.array([1e-170, 1e-160, 1.0, 1e160, 1e170]), id="stacked")])
def test_tangency_residual_does_not_depend_on_the_coefficients_scale(s):
    # the y = 0 secant of the unit circle: (2s)^2 / (2s)^2, whose denominator underflows at
    # 1e-170 and overflows at 1e160 unless taken on the unit conic; a stack takes the same path
    circle = Conic(s, 0.0, s, 0.0, 0.0, -s)
    if isinstance(s, float):
        assert line_conic_tangency_residual(circle, Point(0.0, 0.0), Point(1.0, 0.0)) == 1.0
    else:
        n = len(s)
        got = _stacked_tangency(circle, np.zeros(n, complex), np.ones(n, complex))
        assert got == ([1.0] * n, [""] * n)


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ellipse_axes_refuse_axes_beyond_the_float_range_alike():
    # the circumbilliard of a triangle at 1e46 has overflowing coefficients
    one = Tri(0j, 3e46 + 0j, 1e46 + 2e46j)
    with pytest.raises(ValueError, match="^non-finite ellipse center or semi-axes$"):
        ellipse_axes(circumbilliard_of(one), RAISE)
    stack = Tri(*(np.array([z, z * 1e-46]) for z in one.vertices))
    skips = Skips(2)
    with np.errstate(all="ignore"):
        _, major, minor, _ = ellipse_axes(circumbilliard_of(stack), skips)
    assert [skips.reason(i) for i in range(2)] == ["ValueError", ""]
    assert skips.failures == [(ValueError, "non-finite ellipse center or semi-axes")]
    assert np.isfinite([major[1], minor[1]]).all()
