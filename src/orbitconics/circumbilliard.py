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

from .centers import center, derived_triangle
from .errors import DegenerateConic
from .kernel import Conic, EllipseParams, Point, Tri, Triangle, circumconic_of, conic_to_ellipse_params

DERIVED_TRIANGLES = ("excentral", "act", "medial", "orthic")

@dataclass(frozen=True, init=False)
class CircumbilliardResult:
    conic: Conic
    params: EllipseParams
    mittenpunkt: Point

    def __init__(self, conic, params, mittenpunkt):
        d = self.__dict__
        d["conic"], d["params"], d["mittenpunkt"] = conic, params, mittenpunkt

    @property
    def aspect(self) -> float:
        return self.params.aspect


def circumbilliard_of(v: Tri) -> Conic:
    """Closed-form circumbilliard: the circumconic with perspector X1 = (a : b : c)."""
    return circumconic_of(v, (v.s1, v.s2, v.s3))


def circumbilliard(t: Triangle) -> CircumbilliardResult:
    """Unique circumellipse of ``t`` centered on its Mittenpunkt."""
    conic = circumbilliard_of(t.tri)
    return CircumbilliardResult(conic, conic_to_ellipse_params(conic), center(t, 9))


def derived_cb(t: Triangle, which: str) -> CircumbilliardResult:
    """Circumbilliard of a derived triangle of ``t``.

    Its center coincides with a named center of the reference triangle:
    excentral -> X168, act -> X7, medial -> X142, orthic -> X6*.
    """
    return circumbilliard(derived_triangle(t, which))


def reflection_residual(conic: Conic, t: Triangle) -> float:
    """Largest angle between a conic normal and the vertex-angle bisector.

    Zero (to rounding) exactly when ``t`` is a billiard orbit of the
    conic; radians.  A conic whose gradient vanishes at a vertex has no
    normal there (DegenerateConic).
    """
    worst = 0.0
    verts = t.vertices
    for i in range(3):
        p, q, r = verts[i], verts[(i + 1) % 3], verts[(i + 2) % 3]
        g = conic.gradient(p)
        norm = g.norm()
        if norm == 0.0:
            raise DegenerateConic("conic has no normal at a vertex: its gradient vanishes")
        g = g / norm
        u = (q - p) / q.dist(p)
        v = (r - p) / r.dist(p)
        bis = u + v
        bis = bis / bis.norm()
        worst = max(worst, math.asin(min(1.0, abs(bis.cross(g)))))
    return worst
