import math

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

from orbitconics import DegenerateTriangle, Point, Triangle, conic_eval


def angle_dist_mod_pi(x: float, y: float) -> float:
    """Distance between two axis directions, period pi."""
    d = (x - y) % math.pi
    return min(d, math.pi - d)


def random_triangle(rng: np.random.Generator, span: float = 2.0) -> Triangle:
    """Uniform random triangle, rejecting thin ones."""
    while True:
        coords = rng.uniform(-span, span, size=(3, 2))
        p = [Point(*c) for c in coords]
        area = 0.5 * abs((p[1] - p[0]).cross(p[2] - p[0]))
        longest = max(p[0].dist(p[1]), p[1].dist(p[2]), p[2].dist(p[0]))
        if area > 0.05 * longest * longest:
            return Triangle(*p)


def placed_triangle(apex_x, log_height, log_scale, angle, offset) -> Triangle:
    """Base (0, 0)-(1, 0) and apex (apex_x, 10^log_height), turned by angle, scaled and moved."""
    w = complex(math.cos(angle), math.sin(angle)) * 10.0**log_scale
    shift = complex(*offset) * 10.0**log_scale
    z = [w * p + shift for p in (0.0, 1.0, complex(apex_x, 10.0**log_height))]
    return Triangle(*(Point(p.real, p.imag) for p in z))


#: ``scaled_pair``'s arguments: ``placed_triangle``'s at unit scale, and the exponent k.
SCALED_PAIRS = dict(apex_x=st.floats(-1.5, 2.5), log_height=st.floats(-11.0, 0.0),
                    angle=st.floats(0.0, 6.3),
                    offset=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                    k=st.integers(-1000, 1000))


def scaled_pair(apex_x, log_height, angle, offset, k):
    """``placed_triangle`` at unit scale and its copy scaled by 2^k, or None if either is refused.

    In a hypothesis test: a unit triangle whose coordinates (or their products) would leave the
    normal range, so that the copy is not exact, is assumed away.
    """
    try:
        unit = placed_triangle(apex_x, log_height, 0.0, angle, offset)
    except DegenerateTriangle:
        return None
    assume(all(c == 0.0 or abs(c) >= 2.0**-400 for p in unit.vertices for c in p.as_tuple()))
    coords = [(math.ldexp(p.x, k), math.ldexp(p.y, k)) for p in unit.vertices]
    assume(all(math.ldexp(x, -k) == p.x and math.ldexp(y, -k) == p.y
               for (x, y), p in zip(coords, unit.vertices)))
    try:
        return unit, Triangle.from_coords(coords)
    except (DegenerateTriangle, ValueError):  # the area underflows, or a side overflows
        return None


def origin_form(conic):
    """The conic about the origin: (F0, (c1, .., c5)) of F0 + c1 x + c2 y + c3 xy + c4 x^2 + c5 y^2."""
    gx, gy = conic.anchor.real, conic.anchor.imag
    A, B, C, D, E, _ = conic.coeffs
    c = (2 * (D - A * gx - B * gy), 2 * (E - B * gx - C * gy), 2 * B, A, C)
    return conic_eval(conic, Point(0.0, 0.0)), c


def five_coefficients(conic):
    """(c1, .., c5) of the normalized form 1 + c1 x + c2 y + c3 xy + c4 x^2 + c5 y^2 = 0."""
    f0, c = origin_form(conic)
    return tuple(x / f0 for x in c)


def residual_scale(conic):
    """|F0| (1 + |c|) for the normalized form's coefficients c.

    A residual of the normalized form within tol (1 + |c|) is a residual
    of the conic within tol times this; it stays defined when the conic
    passes through the origin (F0 = 0).
    """
    f0, c = origin_form(conic)
    return abs(f0) + math.sqrt(sum(x * x for x in c))


def xy_coefficients(hyp):
    """(c1, c2, c3) of a hyperbola c1 x + c2 y + c3 xy = 0 through the origin."""
    assert hyp.anchor == 0 and hyp.A == hyp.C == hyp.F == 0.0
    return 2 * hyp.D, 2 * hyp.E, 2 * hyp.B


@pytest.fixture
def rng():
    return np.random.default_rng(20240814)
