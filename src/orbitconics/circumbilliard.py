"""Circumbilliard construction for arbitrary and derived triangles.

The circumbilliard of a triangle is the unique circumellipse centered
on its Mittenpunkt; the triangle is then a billiard orbit of that
ellipse (the boundary normal at each vertex bisects the vertex angle).
It is the circumconic with perspector X1, ``a yz + b zx + c xy = 0`` in
barycentrics, so it has a closed form (``circumbilliard_of``) that
needs no linear solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import centers
from .billiard import BilliardShape, orbit
from .errors import NotAnEllipse, SingularSystem
from .kernel import (
    CONDITION_LIMIT,
    RAISE,
    Conic,
    EllipseParams,
    Point,
    Tri,
    Triangle,
    conic_eval,
    cross,
    perp_foot,
)

DERIVED_TRIANGLES = ("excentral", "act", "medial", "orthic")

#: Expected circumbilliard center of each derived triangle, as a center
#: id of the reference triangle.
DERIVED_CB_CENTER = {
    "excentral": 168,
    "act": 7,
    "medial": 142,
    "orthic": centers.ORTHIC_CB_CENTER,
}


@dataclass(frozen=True)
class CircumbilliardResult:
    conic: Conic
    params: EllipseParams
    mittenpunkt: Point

    @property
    def aspect(self) -> float:
        return self.params.aspect


@dataclass(frozen=True)
class ClosedForm:
    """The circumbilliard as ``A x^2 + 2B xy + C y^2 + 2D x + 2E y + F = 0``.

    ``coeffs`` are (A, B, C, D, E, F) in coordinates relative to the first
    vertex ``g``; ``center`` is absolute.  Fields are numbers for one
    triangle and arrays for a stack.
    """

    coeffs: tuple
    g: complex
    center: complex
    semi_major: float
    semi_minor: float
    axis_angle: float


def circumbilliard_of(v: Tri, guard) -> ClosedForm:
    """Closed-form circumbilliard ``Q = B^-T M B^-1``, ``M = [[0, c, b], [c, 0, a], [b, a, 0]]``.

    B has the homogeneous vertices as columns, so the rows of ``B^-1``
    are the sidelines up to a common factor; they are used directly.
    The center, semi-axes and axis angle are read off Q;
    circle-degenerate ellipses report axis angle 0.
    """
    g = v.p1
    q1, q2, q3 = v.p1 - g, v.p2 - g, v.p3 - g
    lines = []
    for qj, qk in ((q2, q3), (q3, q1), (q1, q2)):
        d = qk - qj
        lines.append((-d.imag, d.real, cross(qj, qk)))
    (a1, b1, c1), (a2, b2, c2), (a3, b3, c3) = lines
    s1, s2, s3 = v.s1, v.s2, v.s3

    def form(u1, u2, u3, w1, w2, w3):
        return s1 * (u2 * w3 + u3 * w2) + s2 * (u3 * w1 + u1 * w3) + s3 * (u1 * w2 + u2 * w1)

    A, B, C = form(a1, a2, a3, a1, a2, a3), form(a1, a2, a3, b1, b2, b3), form(b1, b2, b3, b1, b2, b3)
    D, E, F = form(a1, a2, a3, c1, c2, c3), form(b1, b2, b3, c1, c2, c3), form(c1, c2, c3, c1, c2, c3)
    det = A * C - B * B
    guard.check(det <= 1e-12 * (B * B + abs(A * C)), NotAnEllipse,
                "circumbilliard does not classify as an ellipse")
    cx, cy = (B * E - C * D) / det, (B * D - A * E) / det
    m = 0.5 * (A + C)
    sign = m / abs(m)
    K = -(F + D * cx + E * cy) * sign
    guard.check(K <= 0.0, NotAnEllipse, "conic has no real points")
    r = np.sqrt(0.25 * (A - C) ** 2 + B * B)
    big = abs(m) + r
    semi_minor = np.sqrt(K / big)
    semi_major = semi_minor * np.sqrt(np.maximum(big * big / det, 1.0))
    angle = (0.5 * np.arctan2(-2.0 * B * sign, (C - A) * sign)) % math.pi
    angle = angle * ((2.0 * r >= 1e-12 * big) & (math.pi - angle >= 1e-12))
    return ClosedForm((A, B, C, D, E, F), g, g + (cx + 1j * cy), semi_major, semi_minor, angle)


def _five_coefficient(cf: ClosedForm) -> Conic:
    """The conic in the form 1 + c1 x + ... = 0; SingularSystem when it meets the origin."""
    A, B, C, D, E, F = cf.coeffs
    gx, gy = cf.g.real, cf.g.imag
    terms = (A * gx * gx, 2.0 * B * gx * gy, C * gy * gy, -2.0 * D * gx, -2.0 * E * gy, F)
    k = sum(terms)
    if abs(k) * CONDITION_LIMIT <= sum(abs(x) for x in terms):
        raise SingularSystem("circumbilliard passes through the origin")
    D0, E0 = D - A * gx - B * gy, E - B * gx - C * gy
    return Conic(2.0 * D0 / k, 2.0 * E0 / k, 2.0 * B / k, A / k, C / k)


def circumbilliard(t: Triangle) -> CircumbilliardResult:
    """Unique circumellipse of ``t`` centered on its Mittenpunkt."""
    cf = circumbilliard_of(t.tri, RAISE)
    params = EllipseParams(
        Point.from_complex(cf.center), float(cf.semi_major), float(cf.semi_minor),
        float(cf.axis_angle),
    )
    return CircumbilliardResult(_five_coefficient(cf), params, centers.center(t, 9))


def derived_triangle(t: Triangle, which: str) -> Triangle:
    return Triangle.from_tri(centers.derived_of(t.tri, which, RAISE))


def derived_cb(t: Triangle, which: str) -> CircumbilliardResult:
    """Circumbilliard of a derived triangle of ``t``.

    Its center coincides with a named center of the reference triangle:
    excentral -> X168, act -> X7, medial -> X142, orthic -> X6*.
    """
    return circumbilliard(derived_triangle(t, which))


def reflection_residual(conic: Conic, t: Triangle) -> float:
    """Largest angle between a conic normal and the vertex-angle bisector.

    Zero (to rounding) exactly when ``t`` is a billiard orbit of the
    conic; radians.
    """
    worst = 0.0
    verts = t.vertices
    for i in range(3):
        p, q, r = verts[i], verts[(i + 1) % 3], verts[(i + 2) % 3]
        g = conic.gradient(p)
        g = g / g.norm()
        u = (q - p) / q.dist(p)
        v = (r - p) / r.dist(p)
        bis = u + v
        bis = bis / bis.norm()
        worst = max(worst, math.asin(min(1.0, abs(bis.cross(g)))))
    return worst


def intouch_points(t: Triangle) -> tuple[Point, Point, Point]:
    """Incircle tangency points, as perpendicular feet from the incenter."""
    inc = centers.center(t, 1).z
    p1, p2, p3 = (p.z for p in t.vertices)
    return tuple(
        Point.from_complex(perp_foot(inc, q, r)) for q, r in ((p2, p3), (p3, p1), (p1, p2))
    )


@dataclass(frozen=True)
class SuperpositionReport:
    act_on_billiard: float
    reference_on_medial_cb: float


def intouch_superposition_check(shape: BilliardShape, t: float) -> SuperpositionReport:
    """Residuals of two superposition facts for the orbit at parameter t.

    The intouch points of the anticomplementary triangle lie on the
    billiard boundary, and the intouch points of the orbit itself lie
    on the medial triangle's circumbilliard.
    """
    tri = orbit(shape, t).triangle
    act_touch = intouch_points(centers.act(tri))
    res_act = max(abs(shape.boundary_value(p)) for p in act_touch)
    medial_cb = derived_cb(tri, "medial")
    scale = 1.0 + medial_cb.conic.coeff_norm()
    res_med = max(
        abs(conic_eval(medial_cb.conic, p)) / scale for p in intouch_points(tri)
    )
    return SuperpositionReport(res_act, res_med)
