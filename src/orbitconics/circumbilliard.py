"""Circumbilliard construction for arbitrary and derived triangles.

The circumbilliard of a triangle is the unique circumellipse centered
on its Mittenpunkt; the triangle is then a billiard orbit of that
ellipse (the boundary normal at each vertex bisects the vertex angle).
It is the circumconic with perspector X1, ``a yz + b zx + c xy = 0`` in
barycentrics, so it has a closed form (``circumbilliard_of``) that
needs no linear solve.  ``circumbilliard_axes`` builds it from the
triangle alone and reads its ellipse off in closed form too: the center
is X9 itself (``params.center``, also read as ``mittenpunkt``), and the
semi-axes come from the area, s, r/R and one eigenvalue half-gap, where
the generic read-off's AC - B^2 cancels on eccentric ellipses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .centers import center, derived_triangle
from .errors import DegenerateConic
from .kernel import (RAISE, Conic, EllipseParams, Point, Tri, Triangle, circumconic_of,
                     larger_eigenvalue_and_angle, nonfinite, ufuncs)

DERIVED_TRIANGLES = ("excentral", "act", "medial", "orthic")

@dataclass(frozen=True, init=False)
class CircumbilliardResult:
    conic: Conic
    params: EllipseParams

    def __init__(self, conic, params):
        d = self.__dict__
        d["conic"], d["params"] = conic, params

    @property
    def mittenpunkt(self) -> Point:
        return self.params.center

    @property
    def aspect(self) -> float:
        return self.params.aspect


def circumbilliard_of(v: Tri) -> Conic:
    """Closed-form circumbilliard: the circumconic with perspector X1 = (a : b : c)."""
    return circumconic_of(v, (v.s1, v.s2, v.s3))


def circumbilliard_axes(v: Tri, guard):
    """``q = circumbilliard_of(v)`` with its semi-major, semi-minor axis and major-axis angle.

    For this conic A + C = -2abc(1 + r/R), AC - B^2 = 16 area^2 r (4R + r) and
    its level is 2 area^2 abc / (r (4R + r)) (Yiu; Johnson).  With w = 1 + r/R
    + g/abc for the half-gap g of [[A, B], [B, C]], the semi-axes are
    s sqrt(2w) / (4 + r/R) and s sqrt(2 (r/R) / ((4 + r/R) w)): nothing
    cancels, however eccentric the ellipse.  g is scaled by 1/abc before it
    is squared, so this holds wherever abc and ``q`` are finite floats, and
    is refused (ValueError) beyond.  Numbers or arrays; ``guard`` is RAISE
    or a Skips.
    """
    q = circumbilliard_of(v)
    s1, s2, s3, area = v.s1, v.s2, v.s3, v.area
    s = 0.5 * (s1 + s2 + s3)
    k = 1.0 / (s1 * s2) / s3  # 1 / abc; no factor is 0 on a triangle that Tri.thin passes
    rho = (area / s) * (4.0 * area * k)  # r / R
    w, angle = larger_eigenvalue_and_angle(q, -1.0, 1.0 + rho, k)
    f = ufuncs(w)
    semi_minor = s * f.sqrt(2.0 * rho / ((4.0 + rho) * w))
    semi_major = f.maximum(s * f.sqrt(2.0 * w) / (4.0 + rho), semi_minor)
    # below about 1e-103 abc leaves the normal range, k is inf and the axes nan; above, D and E
    # (of length degree 4, where abc and A, B, C are of 3) overflow first, from about 1e77
    guard.check(nonfinite(semi_major + q.D * 0.0 + q.E * 0.0), ValueError,
                "non-finite ellipse center or semi-axes")
    return q, semi_major, semi_minor, angle


def circumbilliard(t: Triangle) -> CircumbilliardResult:
    """Unique circumellipse of ``t`` centered on its Mittenpunkt X9."""
    conic, semi_major, semi_minor, angle = circumbilliard_axes(t.tri, RAISE)
    return CircumbilliardResult(conic, EllipseParams(center(t, 9), semi_major, semi_minor, angle))


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
    normal there (DegenerateConic).  The normal of an eccentric conic,
    taken from its coefficients, is ill-conditioned: on the circumbilliards
    of thin triangles this reads 3.9e-9 at heights of about 1e-4 of the
    base and up to 1.6 rad below 1e-8, for an exact conic too, so it is no
    oracle for thin triangles.
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
