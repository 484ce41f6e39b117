"""Invariance theorems beyond the circumbilliard itself.

Covers the poristic family (fixed incircle and circumcircle) and its
invariant circumbilliard aspect ratio, the Feuerbach circumhyperbola
and the excentral Jerabek circumhyperbola with their invariant focal
length ratio, and the excentral inconics whose semi-axes are closed
forms in the reference inradius and circumradius.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import centers
from .billiard import BilliardShape, inradius_to_circumradius, orbit
from .errors import ClosureFailure, DegenerateConic, DegenerateTriangle, InvalidShape
from .kernel import RAISE, Conic, Point, Skips, Tri, Triangle, cross, dot, length, where

# Relative focal-length floor below which a hyperbola counts as collapsed.
FOCAL_COLLAPSE_TOL = 1e-6


@dataclass(frozen=True)
class PoristicShape:
    """Fixed incircle radius r and circumcircle radius R with R >= 2r.

    The incircle center sits at distance d = sqrt(R (R - 2r)) from the
    circumcircle center, which is what makes the one-parameter triangle
    family close up.
    """

    r: float
    R: float

    def __post_init__(self):
        if not (0.0 < self.r and 0.0 < self.R):
            raise InvalidShape("radii must be positive")
        if self.R < 2.0 * self.r:
            raise InvalidShape(f"require R >= 2 r, got r={self.r}, R={self.R}")

    @property
    def d(self) -> float:
        return math.sqrt(self.R * (self.R - 2.0 * self.r))

    @property
    def rho(self) -> float:
        return self.r / self.R


def poristic_of(ps: PoristicShape, theta, guard) -> Tri:
    """Family members with first vertex at angle theta on the circumcircle.

    The two tangents from the vertex to the incircle meet the
    circumcircle again at the other two vertices; tangency of the third
    side then holds by the Poncelet porism and is verified
    (ClosureFailure).  ``theta`` is a number (``guard`` RAISE) or an
    array (``guard`` a Skips).
    """
    inc = complex(ps.d, 0.0)
    v1 = ps.R * (np.cos(theta) + 1j * np.sin(theta))
    w = inc - v1
    reach = length(w)
    # sine and cosine of the half angle between the two tangents
    sin_half = np.minimum(1.0, ps.r / reach)
    cos_half = np.sqrt(1.0 - sin_half * sin_half)
    # unit directions of the tangents: w / reach turned by +-half
    ex, ey = w.real * (1.0 / reach), w.imag * (1.0 / reach)
    v2, v3 = (
        v1 + (-2.0 * dot(v1, u)) * u
        for u in (
            (ex * cos_half - ey * sin_half) + 1j * (ey * cos_half + ex * sin_half),
            (ex * cos_half + ey * sin_half) + 1j * (ey * cos_half - ex * sin_half),
        )
    )
    closure = abs(abs(cross(v3 - v2, inc - v2)) / length(v3 - v2) - ps.r)
    guard.check(closure > 1e-9 * ps.R, ClosureFailure, "third side misses the incircle")
    out = Tri(v1, v2, v3)
    guard.check(out.thin(), DegenerateTriangle, "poristic triangle area below tolerance")
    return out


def poristic_triangle(ps: PoristicShape, theta: float) -> Triangle:
    """Family member with first vertex at angle theta on the circumcircle."""
    return Triangle.from_tri(poristic_of(ps, theta, RAISE))


def poristic_cb_aspect(ps: PoristicShape) -> float:
    """Invariant circumbilliard aspect ratio of the poristic family."""
    rho = ps.rho
    num = rho * rho + 2.0 * (rho + 1.0) * math.sqrt(1.0 - 2.0 * rho) + 2.0
    return math.sqrt(num / (rho * (rho + 4.0)))


@dataclass(frozen=True)
class RectHyperbola:
    """Rectangular hyperbola c1 x + c2 y + c3 xy = 0 through the origin.

    Its asymptotes are axis-parallel; translating it by minus its center
    gives x y = k with k = c1 c2 / c3^2.
    """

    c1: float
    c2: float
    c3: float

    @property
    def focal_length(self) -> float:
        """Distance between the foci; elementwise when the coefficients are arrays."""
        return np.sqrt(8.0 * abs(self.c1 / self.c3) * abs(self.c2 / self.c3))

    @property
    def center(self) -> Point:
        return Point(-self.c2 / self.c3, -self.c1 / self.c3)

    @property
    def xy_constant(self) -> float:
        """k in the recentred form x y = k."""
        return self.c1 * self.c2 / (self.c3 * self.c3)

    def value(self, p: Point) -> float:
        return self.c1 * p.x + self.c2 * p.y + self.c3 * p.x * p.y

    def recentred_conic(self) -> Conic:
        """Five-coefficient form of the copy translated to the origin."""
        k = self.xy_constant
        if k == 0.0:
            raise DegenerateConic("hyperbola collapsed to its asymptotes")
        return Conic(0.0, 0.0, -1.0 / k, 0.0, 0.0)


def _row_cross(u, w):
    return (u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2], u[0] * w[1] - u[1] * w[0])


def _row_dot(u, w):
    return u[0] * w[0] + u[1] * w[1] + u[2] * w[2]


def _largest(*xs):
    return functools.reduce(np.maximum, xs)


def _xy_hyperbola(v: Tri, guard) -> RectHyperbola:
    """Conic c1 x + c2 y + c3 xy = 0 through the vertices of ``v`` and the origin.

    Exists only when the 3x3 coefficient matrix is singular, which for
    orbit triangles (and their excentrals) holds because the conic also
    passes through the stationary Mittenpunkt at the origin.  The
    coefficient vector is the null vector, taken as the largest cross
    product of two rows (the first, on ties).  Elementwise arithmetic
    only, so one triangle runs on numbers and a stack row by row.
    """
    rows = [(p.real, p.imag, p.real * p.imag) for p in v.vertices]
    candidates = (_row_cross(rows[1], rows[2]), _row_cross(rows[2], rows[0]),
                  _row_cross(rows[0], rows[1]))
    n0, n1, n2 = (np.sqrt(_row_dot(c, c)) for c in candidates)
    first, second = (n0 >= n1) & (n0 >= n2), n1 >= n2
    c = tuple(where(first, x0, where(second, x1, x2)) for x0, x1, x2 in zip(*candidates))
    biggest = _largest(*(abs(x) for row in rows for x in row))
    scale = _largest(biggest, 1e-300) * where(first, n0, where(second, n1, n2))
    residual = _largest(*(abs(_row_dot(row, c)) for row in rows)) / scale
    guard.check(residual > 1e-9, DegenerateConic,
                "no axis-parallel circumhyperbola through the origin; "
                "is the Mittenpunkt at the origin?")
    L = _largest(v.s1, v.s2, v.s3)
    norm = abs(c[0]) + abs(c[1]) + abs(c[2]) * L
    guard.check(abs(c[2]) * L <= 1e-12 * norm, DegenerateConic, "hyperbola center at infinity")
    hyp = RectHyperbola(*c)
    guard.check(hyp.focal_length <= FOCAL_COLLAPSE_TOL * L, DegenerateConic,
                "focal points collapsed (isosceles configuration)")
    return hyp


def _as_tri(t) -> Tri:
    return t.tri if isinstance(t, Triangle) else t


def feuerbach_hyperbola(t, guard=RAISE) -> RectHyperbola:
    """Feuerbach circumhyperbola of an orbit triangle centered at the origin.

    Passes through the vertices, the incenter, the orthocenter and the
    origin; centered on the Feuerbach point X11.  ``t`` is a Triangle,
    or a stacked ``Tri`` with ``guard`` a Skips, which gives array fields.
    """
    return _xy_hyperbola(_as_tri(t), guard)


def jerabek_excentral(t, guard=RAISE) -> RectHyperbola:
    """Jerabek circumhyperbola of the excentral triangle.

    Passes through the three excenters, the incenter and the origin;
    centered on X100.  ``t`` and ``guard`` as for ``feuerbach_hyperbola``.
    """
    return _xy_hyperbola(centers.derived_of(_as_tri(t), "excentral", guard), guard)


def focal_ratio_closed_form(shape: BilliardShape) -> float:
    """Invariant ratio of the excentral-Jerabek to Feuerbach focal lengths."""
    return math.sqrt(2.0 / inradius_to_circumradius(shape))


@dataclass(frozen=True)
class FocalSample:
    t: float
    feuerbach: float
    jerabek_excentral: float

    @property
    def ratio(self) -> float:
        return self.jerabek_excentral / self.feuerbach


def focal_profile(shape: BilliardShape, n: int = 720) -> list[FocalSample]:
    """Focal lengths of both hyperbolas over t in (0, pi/2).

    Parameters within 1e-3 rad of the isosceles endpoints are excluded
    (the hyperbolas degenerate there).  Raises the failure of the first
    sample whose hyperbola degenerates.
    """
    t = (np.arange(n) + 0.5) * (0.5 * math.pi / n)
    t = t[(t >= 1e-3) & (0.5 * math.pi - t >= 1e-3)]
    fam = orbit(shape, t)
    skips = Skips(t.size)
    with np.errstate(all="ignore"):
        feuerbach = feuerbach_hyperbola(fam.tri, skips).focal_length
        jerabek = jerabek_excentral(fam.tri, skips).focal_length
    skips.raise_first()
    return [
        FocalSample(*sample)
        for sample in zip(t.tolist(), feuerbach.tolist(), jerabek.tolist())
    ]


def count_interior_maxima(values) -> int:
    v = list(values)
    return sum(
        1 for i in range(1, len(v) - 1) if v[i] > v[i - 1] and v[i] > v[i + 1]
    )


def billiard_intersections(
    shape: BilliardShape, hyp: RectHyperbola, grid: int = 4096
) -> list[Point]:
    """Real intersections of the hyperbola with the billiard boundary.

    Counts sign changes of the hyperbola form on a boundary grid and
    refines each bracket by bisection.
    """
    ts = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    vals = np.array([hyp.value(shape.boundary_point(float(t))) for t in ts])
    points = []
    for i in range(grid):
        j = (i + 1) % grid
        if vals[i] == 0.0:
            points.append(shape.boundary_point(float(ts[i])))
            continue
        if vals[i] * vals[j] < 0.0:
            lo, hi = float(ts[i]), float(ts[i]) + 2.0 * math.pi / grid
            flo = vals[i]
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                fm = hyp.value(shape.boundary_point(mid))
                if flo * fm <= 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            points.append(shape.boundary_point(0.5 * (lo + hi)))
    return points


def excentral_inconic_axes(t: Triangle, which: str) -> tuple[float, float]:
    """Semi-axes of a named inconic of the excentral triangle.

    ``which`` is "x3" for the inconic centered on the excentral
    circumcenter, giving (R + d, R - d), or "macbeath" for the inconic
    centered on the excentral nine-point center, giving
    (R, sqrt(R^2 - d^2)); R is the circumradius of the reference
    triangle and d = sqrt(R (R - 2r)) its incenter-circumcenter
    distance (Euler).  d is measured as that distance, since R - 2r
    cancels for nearly equilateral triangles.
    """
    R = t.circumradius()
    d = centers.center(t, 3).dist(centers.center(t, 1))
    if which == "x3":
        return (R + d, R - d)
    if which == "macbeath":
        return (R, math.sqrt(R * R - d * d))
    raise KeyError(f"unknown inconic {which!r}")


def x3_inconic_ratio(rho: float) -> float:
    """Aspect ratio of the excentral circumcenter-centered inconic."""
    return (1.0 + math.sqrt(1.0 - 2.0 * rho)) / rho - 1.0


def macbeath_inconic_ratio(rho: float) -> float:
    """Aspect ratio of the excentral MacBeath inconic."""
    return 1.0 / math.sqrt(2.0 * rho)
