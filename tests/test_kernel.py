import math
import pickle
import struct
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import angle_dist_mod_pi, five_coefficients, random_triangle, residual_scale
from oracles import (ConicClass, axis_endpoints, circumconic_generic, classify_conic,
                     ellipse_to_conic, excentral_inconic_axes_decimal, extremal_radii, gradient,
                     incircle, inconic_decimal, line_conic_tangency_residual)
from orbitconics import (
    BilliardShape,
    Conic,
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
    conic_eval,
    conic_to_ellipse_params,
    excentral,
    orbit,
    solve_circumconic,
    solve_inconic,
)
from orbitconics.circumbilliard import circumbilliard_of
from orbitconics.kernel import RAISE, Skips, circumconic_of, complex_of, ellipse_axes, inconic_of

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
        grad = gradient(conic, ctr)
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


@pytest.mark.parametrize("bad", [math.inf, math.nan],
                         ids=["classify inf conic", "classify nan conic"])
def test_classify_refuses_non_finite_coefficients(bad):
    with pytest.raises(ValueError, match="^non-finite conic coefficients"):
        classify_conic(Conic(bad, 0.0, 1.0, 0.0, 0.0, -1.0))


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
    grad = gradient(conic, ctr)
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


def _quadratic_part_axes(conic):
    """sqrt|l| for the eigenvalues l of [[A, B], [B, C]], the larger first.

    For an inconic anchored at its center, F = -(A C - B^2), so these are
    its semi-axes (for a hyperbola, the transverse and conjugate ones).
    """
    m, r = 0.5 * (conic.A + conic.C), math.hypot(0.5 * (conic.A - conic.C), conic.B)
    return math.sqrt(abs(m) + r), math.sqrt(abs(conic.A * conic.C - conic.B ** 2) / (abs(m) + r))


_EXCENTRAL_300, _ORBIT_100 = excentral(_thin_orbit(300.0, 93)), _thin_orbit(100.0, 1)


# inconics that the degeneracy, tangency and null-vector checks once refused, though an 80-digit
# solve finds each well-defined; the margins are |det P| over its rounding bound, then that bound
# over the largest it may be for the minor semi-axis to hold to 1e-9 of the major (below 1 answers).
# The solve is plain float arithmetic, so every platform gets the same margins
@pytest.mark.parametrize("tri, ctr", [
    # the MacBeath inconic of a thin orbit's excentral (a/b = 300): 3.8e11, 1.2e-5
    pytest.param(_EXCENTRAL_300, center(_EXCENTRAL_300, 5), id="thin MacBeath"),
    # a moved x3 inconic of a thin orbit (a/b = 200), aspect 8e4: 3.7e4, 0.67
    pytest.param(Triangle.from_coords([(-9717.395504159926, -9849.893227362007),
                                       (-0.2706763788235503, 0.07568421829480057),
                                       (-61.57457846262972, 60.40038729630406)]),
                 Point(-4883.234108854321, -4900.83684335589), id="moved thin x3"),
    # the x3 inconic of a thin orbit (a/b = 100): 5.8e9, 8.6e-6
    pytest.param(excentral(_ORBIT_100), center(_ORBIT_100, 40), id="x3"),
    # a hyperbola of a thin triangle: 2.2e7 (no minor-axis check)
    pytest.param(Triangle.from_coords([(-142.5571322958998, 1805.1709374455716),
                                       (-693.8142730920224, 1887.4590271947545),
                                       (49.92807076572629, 1776.4350693716463)]),
                 Point(-271.6491267921621, 1824.44054620239), id="thin hyperbola"),
    # a moved x3 inconic of a thin orbit (a/b = 100), aspect 2e4: 5.2e5, 0.15
    pytest.param(Triangle.from_coords([(76.0484696586957, -456.81732420218646),
                                       (246.87319623688532, 208.54528262716065),
                                       (-600.2995311014316, 426.00133612196913)]),
                 Point(-262.10281249883053, -15.390589079773036), id="moved x3"),
])
def test_inconic_answers_what_its_old_guards_refused(tri, ctr):
    kind, (major, minor) = inconic_decimal([p.as_tuple() for p in tri.vertices], ctr.as_tuple())
    conic = solve_inconic(tri, ctr)
    if kind is ConicClass.ELLIPSE:
        got = conic_to_ellipse_params(conic)
        got = (got.semi_major, got.semi_minor)
    else:
        assert kind is classify_conic(conic) is ConicClass.HYPERBOLA
        got = _quadratic_part_axes(conic)
    assert abs(got[0] - major) <= 1e-9 * major
    assert abs(got[1] - minor) <= 1e-9 * major


# the refusals below were found by probing random triangles against an 80-digit solve; the bound is
# plain float arithmetic, so every platform reaches the same margins
def test_inconic_refuses_thin_inconics_it_cannot_resolve():
    # a small inconic of aspect 2e4 near the obtuse vertex of a thin triangle (area 8.4e-7 of its
    # longest side squared): det P is 2.5e3 times its bound, which is 21 times the largest that
    # holds the minor semi-axis to 1e-9 of the major; unguarded, the major semi-axis is 4.7e-9 off,
    # an error of P's entries that leaves det P unchanged
    tri = Triangle.from_coords([(72.89692636572747, -169.65820910626164),
                                (86.75045949950506, -82.43276792983129),
                                (62.411834606596344, -235.6721493749555)])
    with pytest.raises(DegenerateConic, match="not resolved"):
        solve_inconic(tri, Point(72.75886857838861, -170.52660930516896))


def test_inconic_refuses_axes_it_cannot_resolve():
    # a small inconic near the middle vertex of a thin triangle (area 1.7e-4 of its longest side
    # squared): det P is 8.5e3 times its bound, which is 5.9e4 times the largest that holds the
    # minor semi-axis to 1e-9 of the major; unguarded, the minor semi-axis is 4.9e-7 off
    tri = Triangle.from_coords([(0.055408802554829065, -0.29948218322371045),
                                (-0.12468845279761935, -0.08353667786720417),
                                (-0.23278227499718196, 0.045695499794638716)])
    with pytest.raises(DegenerateConic, match="not resolved"):
        solve_inconic(tri, Point(-0.12473241010171544, -0.08360203103800229))


#: Thresholds of the rounding bound on det P for the triangle (0, 0), (4, 0), (1, 3), measured and
#: kept as numbers: about the point (x, y) of the midline through vertex i, the center
#: (x, y + side h) is refused below the offset h and answered above it.  Near the midline through
#: p_i the bound's term i is more than twice each other term, so an index slip in a term moves its
#: threshold by far more than 1e-6, and a change of rounding by about 1e-16.
_BOUND_THRESHOLDS = [
    # (i, (x, y), side, h, refusal)
    (1, (1.25, 0.75), -1.0, 1.0824674490095276e-14, NoRealConic),
    (2, (2.25, 0.75), -1.0, 4.4797499043625066e-14, NoRealConic),
    (3, (1.5, 1.5), 1.0, 9.43689570931383e-15, NoRealConic),
    (3, (1.5, 1.5), -1.0, 1.0463685473638407e-10, DegenerateConic),  # inside: "not resolved"
]


def test_inconic_bound_refuses_below_each_threshold_and_answers_above_it():
    tri = Triangle.from_coords([(0.0, 0.0), (4.0, 0.0), (1.0, 3.0)])
    cases = [(Point(x, y + side * (h * f)), refusal if f < 1.0 else None)
             for _, (x, y), side, h, refusal in _BOUND_THRESHOLDS for f in (1.0 - 1e-6, 1.0 + 1e-6)]
    skips = Skips(len(cases))
    stack = Tri(*(np.full(len(cases), p.z) for p in tri.vertices))
    many = inconic_of(stack, np.array([ctr.z for ctr, _ in cases]), skips)
    for i, (ctr, refusal) in enumerate(cases):
        if refusal is None:
            one = solve_inconic(tri, ctr)
            assert skips.reason(i) == ""
            assert (many.A[i], many.B[i], many.C[i], many.F[i]) == (one.A, one.B, one.C, one.F)
        else:
            with pytest.raises(refusal):
                solve_inconic(tri, ctr)
            assert skips.reason(i) == refusal.__name__


@settings(max_examples=200, deadline=None)
@given(
    log_height=st.floats(-6.0, 0.0),
    apex=st.floats(-1.0, 2.0),
    rotation=st.floats(0.0, 2 * math.pi),
    log_scale=st.floats(-3.0, 3.0),
    offset=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    weights=st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.5)),
    midline=st.one_of(st.none(), st.tuples(st.integers(0, 2), st.sampled_from([-1.0, 1.0]),
                                           st.floats(-15.0, -3.0))),
)
def test_inconic_answers_hold_to_a_decimal_solve_or_are_refused(log_height, apex, rotation,
                                                                log_scale, offset, weights, midline):
    # a triangle of height 1e-6 to 1 of its base, moved, rotated and scaled by 1e+-3; a center
    # random in barycentrics (inside the medial triangle, where the inconic is an ellipse, for about
    # half of them) or, with midline = (i, sign, log gap), at barycentric 1/2 + gap opposite vertex
    # i, off the midline that turns the inconic from ellipse to hyperbola
    c, s, scale = math.cos(rotation), math.sin(rotation), 10.0 ** log_scale
    tri = Triangle.from_coords([(scale * (c * x - s * y + offset[0]), scale * (s * x + c * y + offset[1]))
                                for x, y in ((0.0, 0.0), (1.0, 0.0), (apex, 10.0 ** log_height))])
    bary = [1.0 - weights[0] - weights[1], *weights]
    if midline is not None:
        i, sign, log_gap = midline
        bary[i] = 0.5 + sign * 10.0 ** log_gap
        bary[i - 1] = 1.0 - bary[i] - bary[i - 2]
    ctr = Point(sum(b * p.x for b, p in zip(bary, tri.vertices)),
                sum(b * p.y for b, p in zip(bary, tri.vertices)))
    kind, (major, minor) = inconic_decimal([p.as_tuple() for p in tri.vertices], ctr.as_tuple())
    try:
        conic = solve_inconic(tri, ctr)
        det = conic.A * conic.C - conic.B * conic.B  # det P
        assert kind is (ConicClass.ELLIPSE if det > 0.0 and conic.A + conic.C > 0.0
                        else ConicClass.HYPERBOLA if det < 0.0 else None)
        if kind is ConicClass.ELLIPSE:
            got = conic_to_ellipse_params(conic)
            assert abs(got.semi_major - major) <= 1e-9 * major
            assert abs(got.semi_minor - minor) <= 1e-9 * major
    except OrbitConicsError:
        pass


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


def _inconic_reference_cases(rng):
    """(triangle, center, (major, minor)) with reference semi-axes not read off the dual solve.

    Excentral x3 and MacBeath inconics against their decimal axes, the
    orbit's inconic at the origin against the caustic, random incircles
    against the oracle's radius.
    """
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
    return cases


def test_decimal_inconic_oracle_meets_the_references(rng):
    for tri, ctr, (major, minor) in _inconic_reference_cases(rng):
        kind, (got_major, got_minor) = inconic_decimal([p.as_tuple() for p in tri.vertices],
                                                       ctr.as_tuple())
        assert kind is ConicClass.ELLIPSE
        assert abs(got_major - major) <= 1e-12 * major
        assert abs(got_minor - minor) <= 1e-12 * major


def test_inconic_axes_match_decimal_references(rng):
    answered = 0
    for tri, ctr, (major, minor) in _inconic_reference_cases(rng):
        try:
            got = conic_to_ellipse_params(solve_inconic(tri, ctr))
        except OrbitConicsError:
            continue
        assert abs(got.semi_major - major) <= 1e-9 * major
        assert abs(got.semi_minor - minor) <= 1e-9 * major
        answered += 1
    assert answered == 244


#: The cone x y = 0, the union of the two axes.
AXES = Conic(0.0, 0.5, 0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("conic, p, q, exc", [
    # the x-axis lies in the cone: its restriction vanishes and has no discriminant
    (AXES, Point(1.0, 0.0), Point(2.0, 0.0), DegenerateConic),
    # two equal points span no line, on the conic or off it (where 0.0, "tangent", was returned)
    (AXES, Point(1.0, 0.0), Point(1.0, 0.0), ValueError),
    (Conic(1.0, 0.0, 1.0, 0.0, 0.0, -1.0), Point(3.0, 1.0), Point(3.0, 1.0), ValueError),
    # a secant of the unit circle so long that the restriction's size squared overflows (read as
    # 0.0, "tangent", if divided through) or its terms do (nan)
    *[(UNIT_CIRCLE, Point(0.0, 0.0), Point(s, 0.0), ValueError) for s in (1e150, 1e155, 1e160, 1e200)],
], ids=["line in the conic", "equal points on the conic", "equal points off the conic",
        "far point 1e150", "far point 1e155", "far point 1e160", "far point 1e200"])
def test_tangency_residual_of_a_line_it_cannot_measure_is_refused(conic, p, q, exc):
    with pytest.raises(exc):
        line_conic_tangency_residual(conic, p, q)


@pytest.mark.parametrize("s", [1e-170, 1e-160, 1.0, 1e160, 1e170])
def test_tangency_residual_does_not_depend_on_the_coefficients_scale(s):
    # the y = 0 secant of the unit circle: (2s)^2 / (2s)^2, whose denominator underflows at
    # 1e-170 and overflows at 1e160 unless taken on the unit conic
    circle = Conic(s, 0.0, s, 0.0, 0.0, -s)
    assert line_conic_tangency_residual(circle, Point(0.0, 0.0), Point(1.0, 0.0)) == 1.0


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
