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

from . import centers
from .billiard import BilliardShape, orbit
from .centers import derived_triangle
from .kernel import (
    Conic,
    EllipseParams,
    Point,
    Tri,
    Triangle,
    circumconic_of,
    conic_eval,
    conic_to_ellipse_params,
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


def circumbilliard_of(v: Tri) -> Conic:
    """Closed-form circumbilliard: the circumconic with perspector X1 = (a : b : c)."""
    return circumconic_of(v, (v.s1, v.s2, v.s3))


def circumbilliard(t: Triangle) -> CircumbilliardResult:
    """Unique circumellipse of ``t`` centered on its Mittenpunkt."""
    conic = circumbilliard_of(t.tri)
    return CircumbilliardResult(conic, conic_to_ellipse_params(conic), centers.center(t, 9))


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
    p1, p2, p3 = t.tri.vertices
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
    medial_cb = derived_cb(tri, "medial").conic
    res_med = max(
        abs(conic_eval(medial_cb, p)) / medial_cb.coeff_norm() for p in intouch_points(tri)
    )
    return SuperpositionReport(res_act, res_med)
