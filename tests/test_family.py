"""The batched family kernel against the scalar API, sample by sample."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import angle_dist_mod_pi, random_triangle
from oracles import stack_tris
from orbitconics import (
    ORTHIC_CB_CENTER,
    SUPPORTED_CENTERS,
    BilliardShape,
    DegenerateTriangle,
    OrbitConicsError,
    PoristicShape,
    RightTriangle,
    Skips,
    Triangle,
    center,
    circumbilliard,
    conic_to_ellipse_params,
    excentral,
    feuerbach_hyperbola,
    focal_length,
    jerabek_excentral,
    obtuse_threshold,
    orbit,
    poristic_triangle,
    right_angle_vertex,
    solve_inconic,
)
from orbitconics.billiard import SHAPE_CLASSES
from orbitconics.centers import center_of, derived_of
from orbitconics.circumbilliard import DERIVED_TRIANGLES, circumbilliard_axes, derived_triangle
from orbitconics.kernel import RAISE, Tri, ellipse_axes, inconic_of, nonfinite

CENTER_IDS = sorted(SUPPORTED_CENTERS) + [ORTHIC_CB_CENTER]
TAU = 2.0 * math.pi


def _outcome(call):
    """(result, "") or (None, name of the typed error the scalar call raised)."""
    try:
        return call(), ""
    except OrbitConicsError as exc:
        return None, type(exc).__name__


def _moved(tri, rotation, scale, offset):
    c, s = math.cos(rotation), math.sin(rotation)
    return Triangle.from_coords([
        (scale * (c * p.x - s * p.y) - offset[0], scale * (s * p.x + c * p.y) - offset[1])
        for p in tri.vertices
    ])


def _check_points(batch, skips, triangles, scalar, tol):
    for i, tri in enumerate(triangles):
        want, reason = _outcome(lambda: scalar(tri))
        assert skips.reason(i) == reason
        if not reason:
            assert abs(batch[i] - want.z) <= tol[i]


def _excentral_inconic(v, guard, which):
    """The x3 (center X40 of v) or MacBeath (center X5 of the excentral) inconic of v's excentral."""
    exc = derived_of(v, "excentral", guard)
    ctr = center_of(v, 40, guard) if which == "x3" else center_of(exc, 5, guard)
    return inconic_of(exc, ctr, guard)


# the values of failed samples are inf or nan, with numpy's warnings
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(1.01, 3.0),
    ts=st.lists(st.floats(0.0, TAU), min_size=1, max_size=5),
    rotation=st.floats(0.0, TAU),
    log_scale=st.floats(-1.0, 1.0),
    offset=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
)
def test_batched_kernel_matches_scalar_api(alpha, ts, rotation, log_scale, offset):
    shape = BilliardShape(alpha, 1.0)
    if alpha > obtuse_threshold():
        # the right-triangle orbit, where the orthic and X6* rules switch
        p = right_angle_vertex(shape)
        ts = ts + [math.atan2(p.y / shape.b, p.x / shape.a)]
    scale = 10.0**log_scale
    samples = [orbit(shape, t) for t in ts]
    fam = orbit(shape, ts)
    for i, sample in enumerate(samples):
        for k, p in enumerate(sample.triangle.vertices):
            assert math.hypot(*(fam.vertices[i, k] - p.as_tuple())) <= 1e-12 * shape.a
        assert SHAPE_CLASSES[fam.codes[i]] is sample.shape_class

    shift = (offset[0] * scale * alpha, offset[1] * scale * alpha)
    moved = [_moved(s.triangle, rotation, scale, shift) for s in samples]
    v = stack_tris(moved)
    tol = [1e-12 * t.scale() for t in moved]
    for center_id in CENTER_IDS:
        skips = Skips(len(moved))
        z = center_of(v, center_id, skips)
        _check_points(z, skips, moved, lambda t: center(t, center_id), tol)

    for which in DERIVED_TRIANGLES:
        skips = Skips(len(moved))
        d = derived_of(v, which, skips)
        for k in range(3):
            _check_points(d.vertices[k], skips, moved,
                          lambda t: derived_triangle(t, which).vertices[k], tol)

    skips = Skips(len(moved))
    _, cb_major, cb_minor, cb_angle = circumbilliard_axes(v, skips)
    cb_center = center_of(v, 9, skips)
    for i, tri in enumerate(moved):
        want, reason = _outcome(lambda: circumbilliard(tri).params)
        assert skips.reason(i) == reason
        if not reason:
            assert abs(cb_major[i] - want.semi_major) <= tol[i]
            assert abs(cb_minor[i] - want.semi_minor) <= tol[i]
            assert abs(cb_center[i] - want.center.z) <= tol[i]
            assert angle_dist_mod_pi(cb_angle[i], want.axis_angle) <= 1e-12

    for which, scalar in (("x3", lambda t: solve_inconic(excentral(t), center(t, 40))),
                          ("macbeath", lambda t: solve_inconic(excentral(t), center(excentral(t), 5)))):
        skips = Skips(len(moved))
        in_center, in_major, in_minor, _ = ellipse_axes(_excentral_inconic(v, skips, which), skips)
        for i, tri in enumerate(moved):
            want, reason = _outcome(lambda: conic_to_ellipse_params(scalar(tri)))
            assert skips.reason(i) == reason
            if not reason:
                assert abs(in_major[i] - want.semi_major) <= tol[i]
                assert abs(in_minor[i] - want.semi_minor) <= tol[i]
                assert abs(in_center[i] - want.center.z) <= tol[i]

    # the xy-hyperbolae exist for orbits held upright and centred; moved
    # copies must fail with the same reason in both paths
    for triangles in ([_moved(s.triangle, 0.0, scale, (0.0, 0.0)) for s in samples], moved):
        v = stack_tris(triangles)
        for hyperbola in (feuerbach_hyperbola, jerabek_excentral):
            skips = Skips(len(triangles))
            focal = focal_length(hyperbola(v, skips), skips)
            for i, tri in enumerate(triangles):
                want, reason = _outcome(lambda: focal_length(hyperbola(tri)))
                assert skips.reason(i) == reason
                if not reason:
                    assert abs(focal[i] - want) <= 1e-12 * tri.scale()


# the values of failed samples are inf or nan, with numpy's warnings
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(
    rho=st.floats(0.05, 0.49),
    thetas=st.lists(st.floats(0.0, TAU), min_size=1, max_size=5),
    log_scale=st.floats(-1.0, 1.0),
)
def test_batched_poristic_circumbilliard_matches_scalar_api(rho, thetas, log_scale):
    R = 10.0**log_scale
    ps = PoristicShape(rho * R, R)
    skips = Skips(len(thetas))
    v = ps.family(np.array(thetas), skips)
    _, cb_major, cb_minor, cb_angle = circumbilliard_axes(v, skips)
    x9 = center_of(v, 9, skips)
    tol = 1e-12 * R
    for i, theta in enumerate(thetas):
        want, reason = _outcome(lambda: circumbilliard(poristic_triangle(ps, theta)))
        assert skips.reason(i) == reason
        if not reason:
            assert abs(cb_major[i] - want.params.semi_major) <= tol
            assert abs(cb_minor[i] - want.params.semi_minor) <= tol
            assert angle_dist_mod_pi(cb_angle[i], want.params.axis_angle) <= 1e-12
            assert abs(x9[i] - want.mittenpunkt.z) <= tol
            assert want.params.center == want.mittenpunkt


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("shape", [BilliardShape(1.5, 1.0), PoristicShape(0.3625, 1.0)],
                         ids=["billiard", "poristic"])
def test_one_number_and_array_orbit_refuse_nan_alike(shape):
    # infinite parameters too, before math.cos or np.cos sees them
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError) as one:
            orbit(shape, bad)
        with pytest.raises(ValueError) as many:
            orbit(shape, [0.4, bad])
        assert type(one.value) is type(many.value) is ValueError
        assert str(one.value) == str(many.value) == "non-finite orbit vertex"
        skips = Skips(3)
        fam = orbit(shape, np.array([0.4, bad, 1.3]), skips)
        assert [skips.reason(i) for i in range(3)] == ["", "ValueError", ""]
        assert np.isfinite(fam.vertices[[0, 2]]).all()


def _signed_doubled_areas(vertices):
    """cross(p2 - p1, p3 - p1) of (..., 3, 2) vertex arrays: positive when counterclockwise."""
    u, w = vertices[..., 1, :] - vertices[..., 0, :], vertices[..., 2, :] - vertices[..., 0, :]
    return u[..., 0] * w[..., 1] - u[..., 1] * w[..., 0]


@pytest.mark.parametrize("shape",
                         [BilliardShape(alpha, 1.0) for alpha in np.linspace(1.05, 3.0, 14)]
                         + [PoristicShape(rho, 1.0) for rho in (0.5, 0.3625, 0.1, 1e-3)], ids=repr)
def test_both_families_wind_counterclockwise(shape):
    thetas = (np.arange(360) + 0.5) * (TAU / 360)
    fam = orbit(shape, thetas)
    assert (_signed_doubled_areas(fam.vertices) > 0.0).all()
    for theta in thetas[::9].tolist():
        one = np.array([p.as_tuple() for p in orbit(shape, theta).triangle.vertices])
        assert _signed_doubled_areas(one) > 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_first_vertex_inside_the_inner_conic_is_refused_alike():
    # r/R = 1e-17: d rounds to R, so the vertex at angle 0 is the incircle center
    shape = PoristicShape(1e-17, 1.0)
    with pytest.raises(ValueError) as one:
        orbit(shape, 0.0)
    with pytest.raises(ValueError) as many:
        orbit(shape, [0.0])
    assert type(one.value) is type(many.value) is ValueError
    assert str(one.value) == str(many.value) == "first vertex inside the inner conic"


def test_orbit_of_a_poristic_shape_is_its_poristic_triangle():
    ps = PoristicShape(0.3625, 1.0)
    thetas = (np.arange(90) + 0.5) * (TAU / 90)
    fam = orbit(ps, thetas)
    for i, theta in enumerate(thetas.tolist()):
        sample = orbit(ps, theta)
        assert sample.triangle == poristic_triangle(ps, theta)
        assert sample.shape_class is SHAPE_CLASSES[fam.codes[i]]
        for k, p in enumerate(sample.triangle.vertices):
            assert math.hypot(*(fam.vertices[i, k] - p.as_tuple())) <= 1e-15 * ps.R
    with pytest.raises(ValueError, match="non-finite orbit vertex"):
        poristic_triangle(ps, math.nan)


def test_squares_round_alike_for_one_triangle_and_a_stack(rng):
    # products, not float powers, so one triangle rounds as numpy's elementwise square does
    triangles = [random_triangle(rng) for _ in range(2000)]
    v = stack_tris(triangles)
    skips = Skips(len(triangles))
    x1156 = center_of(v, 1156, skips)
    _, major, minor, _ = circumbilliard_axes(v, skips)
    for i, tri in enumerate(triangles):
        if skips.valid[i]:
            assert center(tri, 1156).z == x1156[i]
            params = circumbilliard(tri).params
            assert (params.semi_major, params.semi_minor) == (major[i], minor[i])


def test_skips_keep_the_first_failure_per_sample():
    skips = Skips(3)
    skips.check(skips.valid & [False, True, True], RightTriangle, "first")
    skips.check([True, True, False], DegenerateTriangle, "second")
    assert [skips.reason(i) for i in range(3)] == ["DegenerateTriangle", "RightTriangle",
                                                   "RightTriangle"]
    with pytest.raises(DegenerateTriangle, match="second"):
        skips.raise_first()
    # kept: the mask when enough samples are valid, else the first failure
    with pytest.raises(DegenerateTriangle, match="second"):
        skips.kept(1)
    assert skips.kept(0).tolist() == [False, False, False]
    mixed = Skips(4)
    mixed.check([False, True, False, True], RightTriangle, "odd")
    assert mixed.kept(2).tolist() == [True, False, True, False]
    with pytest.raises(RightTriangle, match="odd"):
        mixed.kept(3)
    with pytest.raises(ValueError, match="need at least 5 samples"):
        Skips(4).kept(5)


def test_skips_check_without_a_failing_sample_changes_nothing():
    skips = Skips(3)
    skips.check([False, True, False], RightTriangle, "first")
    code, failures = skips.code, skips.failures
    before = (code.tolist(), list(failures))
    # an array, a list, and a mask that fails only where a sample already failed
    for failed in (np.zeros(3, dtype=bool), [False, False, False], ~skips.valid & [True, True, True]):
        skips.check(failed, DegenerateTriangle, "second")
    assert skips.code is code and skips.failures is failures
    assert (code.tolist(), failures) == before == ([-1, 0, -1], [(RightTriangle, "first")])


def _center_parts(center_id):
    def parts(v, guard):
        z = center_of(v, center_id, guard)
        return (z.real, z.imag)

    return parts


def _derived_parts(which):
    return lambda v, guard: tuple(x for p in derived_of(v, which, guard).vertices
                                  for x in (p.real, p.imag))


def _circumbilliard_parts(v, guard):
    # not the axis angle: numpy's arctan2 and libm's atan2 may differ in the last bit
    _, major, minor, _ = circumbilliard_axes(v, guard)
    center_z = center_of(v, 9, guard)
    return (center_z.real, center_z.imag, major, minor)


def _inconic_parts(which):
    def parts(v, guard):
        conic = _excentral_inconic(v, guard, which)
        _, major, minor, _ = ellipse_axes(conic, guard)
        return (conic.A, conic.B, conic.C, conic.F, major, minor)

    return parts


#: Every construction on ``Tri`` as a tuple of floats (numbers or arrays), by name.
PARITY = {
    **{f"X{i}" if isinstance(i, int) else i: _center_parts(i) for i in CENTER_IDS},
    **{which: _derived_parts(which) for which in DERIVED_TRIANGLES},
    "circumbilliard": _circumbilliard_parts,
    "x3 inconic": _inconic_parts("x3"),
    "macbeath inconic": _inconic_parts("macbeath"),
    "feuerbach": lambda v, guard: (focal_length(feuerbach_hyperbola(v, guard), guard),),
    "jerabek": lambda v, guard: (focal_length(jerabek_excentral(v, guard), guard),),
}

_UNIT = st.floats(-1.0, 1.0)
_POINT = st.builds(complex, _UNIT, _UNIT)


@st.composite
def _probe_triangle(draw):
    """Vertices (complex) of a random, thin, collinear, repeated, 1e300, non-finite or origin triangle."""
    kind = draw(st.sampled_from(["random", "thin", "collinear", "repeated", "huge", "nonfinite",
                                 "origin"]))
    p, q, r = draw(_POINT), draw(_POINT), draw(_POINT)
    scale = 10.0 ** draw(st.floats(-120.0, 120.0))
    if kind == "thin":
        # base (0, 0)-(1, 0) and apex (x, h), turned, scaled by up to 1e+-100 and moved
        apex = complex(draw(st.floats(-3.0, 4.0)), 10.0 ** draw(st.floats(-16.0, -6.0)))
        turn = complex(math.cos(4.0 * p.real), math.sin(4.0 * p.real))
        scale = 10.0 ** draw(st.floats(-100.0, 100.0))
        return tuple(scale * (turn * z + 10.0 * q) for z in (0.0, 1.0, apex))
    if kind == "collinear":
        r = p + draw(st.floats(-2.0, 2.0)) * (q - p)
    elif kind == "repeated":
        p, q, r = draw(st.sampled_from([(p, p, q), (p, q, q), (q, p, q), (p, p, p)]))
    elif kind == "huge":
        scale = 1e300
    elif kind == "origin":
        p = 0j
    elif kind == "nonfinite":
        bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        r = complex(bad, r.imag) if draw(st.booleans()) else complex(r.real, bad)
    return (scale * p, scale * q, scale * r)


def _checked_parts(name, v, guard):
    """``PARITY[name]`` after finite vertices (as ``Point`` checks them) and ``Tri.thin``.

    Wider than ``Tri.checked``, the rule every ``Triangle`` passes: a row of
    finite vertices whose perimeter overflows still reaches the formulas here.
    """
    zero = [p.real * 0.0 + p.imag * 0.0 for p in v.vertices]  # nan where a coordinate is not finite
    guard.check(nonfinite(zero[0] + zero[1] + zero[2]), ValueError, "non-finite vertex")
    guard.check(v.thin(), DegenerateTriangle, "area below tolerance")
    return PARITY[name](v, guard)


@settings(max_examples=150, deadline=None)
@given(triangles=st.lists(_probe_triangle(), min_size=1, max_size=8))
# the perimeter overflows, so the excentral's 1 / (b + c - a) is inf or nan (s / t with s = inf)
@example(triangles=[(1e-308j, complex(-1e308, -2.381665725338452), complex(-1e308, -0.7656147436456129))])
# b c overflows where the area stays finite, so the excentral's 1 / (b + c - a) is 0 or inf
@example(triangles=[(complex(2.0359714777331855e-214, 2.0359714777331855e-214),
                     complex(1.2195913147207567e+157, 2.0359714777331855e-214),
                     complex(4.614116733194484e+156, 3.3623290086802485e+148))])
# p2 p3 is a side whose squared length underflows, and the area is nan (inf - inf): the orthic's foot
@example(triangles=[(complex(-1e308, -1.873911601806066), complex(4.7638425248632573e-175, 5e-324),
                     complex(1e-308, 0.0))])
def test_a_stacked_row_refuses_or_answers_as_its_one_number_call(triangles):
    # a row refuses with the type the one-number call raises, or both give the same finite bits;
    # any other exception (ZeroDivisionError, OverflowError) fails the test
    with np.errstate(all="ignore"):  # the refused rows overflow or divide by zero
        stack = Tri(*map(np.array, zip(*triangles)))
        for name in PARITY:
            skips = Skips(len(triangles))
            many = _checked_parts(name, stack, skips)
            for i, vertices in enumerate(triangles):
                try:
                    one = _checked_parts(name, Tri(*vertices), RAISE)
                except (OrbitConicsError, ValueError) as exc:
                    assert skips.reason(i) == type(exc).__name__, name
                    continue
                assert skips.reason(i) == "", name
                assert all(map(math.isfinite, one)), name
                assert tuple(float(x[i]) for x in many) == tuple(one), name
