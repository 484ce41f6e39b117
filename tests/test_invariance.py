"""Conic axes that must not depend on where the triangle sits, its turn or its size."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from orbitconics import (
    BilliardShape,
    Triangle,
    center,
    circumbilliard,
    conic_to_ellipse_params,
    excentral,
    orbit,
    solve_inconic,
)

TAU = 2.0 * math.pi


def _x3_inconic(tri):
    """The excentral inconic centered on the excentral circumcenter X40."""
    return conic_to_ellipse_params(solve_inconic(excentral(tri), center(tri, 40)))


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(1.01, 3.0),
    t=st.floats(0.0, TAU),
    rotation=st.floats(0.0, TAU),
    log_scale=st.floats(-1.0, 1.0),
    offset=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    slot=st.integers(0, 3),
    vertex=st.integers(0, 2),
)
def test_axes_survive_rotation_scale_and_translation(
    alpha, t, rotation, log_scale, offset, slot, vertex
):
    tri = orbit(BilliardShape(alpha, 1.0), t).triangle
    scale = 10.0**log_scale
    c, s = math.cos(rotation), math.sin(rotation)
    turned = [(scale * (c * p.x - s * p.y), scale * (s * p.x + c * p.y)) for p in tri.vertices]
    # one slot in four puts a vertex exactly on the origin
    if slot == 0:
        shift = turned[vertex]
    else:
        shift = (offset[0] * scale * alpha, offset[1] * scale * alpha)
    moved = Triangle.from_coords([(x - shift[0], y - shift[1]) for x, y in turned])
    if slot == 0:
        assert moved.vertices[vertex].as_tuple() == (0.0, 0.0)

    for build in (lambda tri: circumbilliard(tri).params, _x3_inconic):
        want, got = build(tri), build(moved)
        tol = 1e-9 * scale * want.semi_major
        assert abs(got.semi_major - scale * want.semi_major) <= tol
        assert abs(got.semi_minor - scale * want.semi_minor) <= tol
        assert abs(got.aspect - want.aspect) <= 1e-9 * want.aspect
