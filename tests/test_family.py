"""The batched family kernel against the scalar API, sample by sample."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import angle_dist_mod_pi
from orbitconics import (
    ORTHIC_CB_CENTER,
    SUPPORTED_CENTERS,
    BilliardShape,
    DegenerateTriangle,
    OrbitConicsError,
    RightTriangle,
    Skips,
    Tri,
    Triangle,
    center,
    circumbilliard,
    feuerbach_hyperbola,
    focal_length,
    jerabek_excentral,
    obtuse_threshold,
    orbit,
    right_angle_vertex,
)
from orbitconics.billiard import SHAPE_CLASSES
from orbitconics.centers import center_of, derived_of
from orbitconics.circumbilliard import DERIVED_TRIANGLES, circumbilliard_of, derived_triangle
from orbitconics.kernel import ellipse_axes

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
    v = Tri.stack(moved)
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
    cb_center, cb_major, cb_minor, cb_angle = ellipse_axes(circumbilliard_of(v), skips)
    for i, tri in enumerate(moved):
        want, reason = _outcome(lambda: circumbilliard(tri).params)
        assert skips.reason(i) == reason
        if not reason:
            assert abs(cb_major[i] - want.semi_major) <= tol[i]
            assert abs(cb_minor[i] - want.semi_minor) <= tol[i]
            assert abs(cb_center[i] - want.center.z) <= tol[i]
            assert angle_dist_mod_pi(cb_angle[i], want.axis_angle) <= 1e-12

    # the xy-hyperbolae exist for orbits held upright and centred; moved
    # copies must fail with the same reason in both paths
    for triangles in ([_moved(s.triangle, 0.0, scale, (0.0, 0.0)) for s in samples], moved):
        v = Tri.stack(triangles)
        for hyperbola in (feuerbach_hyperbola, jerabek_excentral):
            skips = Skips(len(triangles))
            focal = focal_length(hyperbola(v, skips), skips)
            for i, tri in enumerate(triangles):
                want, reason = _outcome(lambda: focal_length(hyperbola(tri)))
                assert skips.reason(i) == reason
                if not reason:
                    assert abs(focal[i] - want) <= 1e-12 * tri.scale()


def test_skips_keep_the_first_failure_per_sample():
    skips = Skips(3)
    skips.check(skips.valid & [False, True, True], RightTriangle, "first")
    skips.check([True, True, False], DegenerateTriangle, "second")
    assert [skips.reason(i) for i in range(3)] == ["DegenerateTriangle", "RightTriangle",
                                                   "RightTriangle"]
    with pytest.raises(DegenerateTriangle, match="second"):
        skips.raise_first()
