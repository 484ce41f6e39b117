"""Invariance theorems beyond the circumbilliard itself.

Covers the poristic family (fixed incircle and circumcircle) and its
invariant circumbilliard aspect ratio, the Feuerbach circumhyperbola
and the excentral Jerabek circumhyperbola with their invariant focal
length ratio, and the excentral inconics whose semi-axes are closed
forms in the reference inradius and circumradius.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import centers
from .billiard import (MIN_SAMPLES, BilliardShape, inradius_to_circumradius, orbit,
                       poncelet_vertices, sample_grid)
from .errors import (ClosureFailure, DegenerateConic, DegenerateTriangle, InvalidShape,
                     PointAtInfinity)
from .kernel import (
    EPS,
    RAISE,
    ArrayView,
    Conic,
    Point,
    Skips,
    Tri,
    Triangle,
    conic_eval,
    conic_form,
    cross,
    focal_length,
    largest,
    nonfinite,
    ufuncs,
    where,
)

#: Boundary samples on which ``billiard_intersections`` brackets the crossings.
INTERSECTION_GRID = 4096


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
        if not (math.isfinite(self.R) and self.R >= 2.0 * self.r > 0.0 and math.isfinite(self.d)):
            raise InvalidShape(f"require finite r and R with R >= 2 r > 0 and a finite "
                               f"center distance, got r={self.r}, R={self.R}")

    @cached_property
    def d(self) -> float:
        return math.sqrt(self.R * (self.R - 2.0 * self.r))

    @property
    def rho(self) -> float:
        return self.r / self.R

    def family(self, theta, guard) -> Tri:
        """Family members with first vertex at angle theta on the circumcircle.

        The Poncelet triangles of the circumcircle and the incircle
        (``billiard.poncelet_vertices``), counterclockwise; tangency of
        the third side holds by the porism and is verified
        (ClosureFailure).  ``theta`` is a number (``guard`` RAISE) or an
        array (``guard`` a Skips).
        """
        r2 = self.r * self.r
        v1, v2, v3 = poncelet_vertices(theta, self.R, self.R, self.d, r2, r2, guard)
        out = Tri(v1, v2, v3)
        guard.check(out.nonfinite(), ValueError, "non-finite orbit vertex")
        # distance of the incircle center (d, 0) from the third side, minus r, times |v2 v3|
        side = out.s1
        guard.check(abs(abs(cross(v3 - v2, self.d - v2)) - self.r * side) > 1e-9 * self.R * side,
                    ClosureFailure, "third side misses the incircle")
        guard.check(out.thin(), DegenerateTriangle, "poristic triangle area below tolerance")
        return out


def poristic_triangle(ps: PoristicShape, theta: float) -> Triangle:
    """Family member with first vertex at angle theta on the circumcircle."""
    return Triangle.from_tri(ps.family(theta, RAISE))


def poristic_cb_aspect(ps: PoristicShape) -> float:
    """Invariant circumbilliard aspect ratio of the poristic family."""
    rho = ps.rho
    num = rho * rho + 2.0 * (rho + 1.0) * math.sqrt(1.0 - 2.0 * rho) + 2.0
    return math.sqrt(num / (rho * (rho + 4.0)))


def _row_cross(u, w):
    return (u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2], u[0] * w[1] - u[1] * w[0])


def _row_dot(u, w):
    return u[0] * w[0] + u[1] * w[1] + u[2] * w[2]


def _xy_hyperbola(v: Tri, guard) -> Conic:
    """Conic c1 x + c2 y + c3 xy = 0 through the vertices of ``v`` and the origin.

    Exists only when the 3x3 coefficient matrix is singular, which for
    orbit triangles (and their excentrals) holds because the conic also
    passes through the stationary Mittenpunkt at the origin.  The
    coefficient vector is the null vector, the cross product of the two
    rows whose cross product is largest (the first pair, on ties).  A
    vertex within 1e-9 of the largest coordinate from the origin has a
    zero row, which no null vector can test, and is refused.  Near the
    isosceles orbits the conic nears its asymptotes and its focal length
    2 sqrt(2 |c1 c2|) / |c3| cancels; it is refused once a first-order
    rounding bound on it passes 1e-9 relative, which also refuses any
    c_i = 0 (c3 = 0: vertices in line with the origin).  Elementwise
    arithmetic only, so one triangle runs on numbers and a stack row by row.
    """
    rows = [(p.real, p.imag, p.real * p.imag) for p in v.vertices]
    candidates = (_row_cross(rows[1], rows[2]), _row_cross(rows[2], rows[0]),
                  _row_cross(rows[0], rows[1]))
    f = ufuncs(v.p1)
    n0, n1, n2 = (f.sqrt(_row_dot(c, c)) for c in candidates)
    first, second = (n0 >= n1) & (n0 >= n2), n1 >= n2
    pj = where(first, v.p2, where(second, v.p3, v.p1))
    pk = where(first, v.p3, where(second, v.p1, v.p2))
    c = _row_cross((pj.real, pj.imag, pj.real * pj.imag), (pk.real, pk.imag, pk.real * pk.imag))
    mags = [[abs(x) for x in row] for row in rows]
    scale = largest(*(x for row in mags for x in row)) * where(first, n0, where(second, n1, n2))
    residual = largest(*(abs(_row_dot(row, c)) for row in rows))
    r0, r1, r2 = (largest(ax, ay) for ax, ay, _ in mags)  # each vertex's largest coordinate
    M = largest(r0, r1, r2)
    # a non-finite vertex makes M non-finite, also where c does not read that vertex
    guard.check(nonfinite(c[0] + c[1] + c[2] + M), ValueError, "non-finite hyperbola coefficients")
    guard.check((residual > 1e-9 * scale) | (f.minimum(f.minimum(r0, r1), r2) <= 1e-9 * M),
                DegenerateConic, "no axis-parallel circumhyperbola through the origin; "
                "is the Mittenpunkt at the origin?")
    # First-order rounding (Higham, ch. 3) in units of u = EPS / 2: each coordinate carries M u (the
    # orbit's own rounding), each xy entry u (M (|x| + |y|) + |xy|), and each product and
    # difference rounds once.  For a = |x|, b = |y| of the two vertices j, k, A = aj + ak,
    # B = bj + bk, that moves c1 by u (M (A B + 2 bj bk) + 3 A bj bk), c2 by
    # u (M (A B + 2 aj ak) + 3 B aj ak) and c3 by u (M (A + B) + 2 (aj bk + bj ak)).  The length
    # takes half of c1's and c2's relative errors plus c3's; over 1e-9, multiplied out by
    # 2 |c1 c2 c3|, so any c_i = 0 is refused.
    aj, bj, ak, bk = abs(pj.real), abs(pj.imag), abs(pk.real), abs(pk.imag)
    A, B, P, Q = aj + ak, bj + bk, aj * ak, bj * bk
    e1, e2 = M * (A * B + 2 * Q) + 3 * A * Q, M * (A * B + 2 * P) + 3 * B * P
    e3 = M * (A + B) + 2 * (aj * bk + bj * ak)
    a1, a2, a3 = abs(c[0]), abs(c[1]), abs(c[2])
    guard.check(EPS * (a3 * (e1 * a2 + e2 * a1) + 2 * e3 * (a1 * a2)) >= 4e-9 * (a1 * a2 * a3),
                DegenerateConic,
                "hyperbola too close to its asymptotes: focal length not resolved to 1e-9")
    return Conic(0.0, 0.5 * c[2], 0.0, 0.5 * c[0], 0.5 * c[1], 0.0)


def _as_tri(t) -> Tri:
    return t.tri if isinstance(t, Triangle) else t


def feuerbach_hyperbola(t, guard=RAISE) -> Conic:
    """Feuerbach circumhyperbola of an orbit triangle centered at the origin.

    Passes through the vertices, the incenter, the orthocenter and the
    origin; centered on the Feuerbach point X11.  ``t`` is a Triangle,
    or a stacked ``Tri`` with ``guard`` a Skips, which gives array fields.
    """
    return _xy_hyperbola(_as_tri(t), guard)


def jerabek_excentral(t, guard=RAISE) -> Conic:
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


def _focal_sample(row) -> FocalSample:
    return FocalSample(*row)


class FocalProfile(ArrayView):
    """FocalSamples over (t, feuerbach, jerabek) rows; ``skipped`` as in ``LocusSweep``."""

    __slots__ = ("skipped",)

    def __init__(self, rows, skipped: list[tuple[float, str]]):
        super().__init__(rows, _focal_sample)
        self.skipped = skipped


def focal_profile(shape: BilliardShape, n: int = 720) -> FocalProfile:
    """FocalSamples over the quarter of the family grid in t in (0, pi/2).

    Parameters within 1e-3 rad of the isosceles endpoints are excluded:
    the hyperbolas degenerate there, and at a/b = 100 the n = 2000 sample
    next to pi/2 passes each focal length's bound with a ratio 2.0e-9 off
    sqrt(2 / rho).  Refused samples are skipped and reported, as by
    ``loci.sweep_locus``.
    """
    t = sample_grid(n) / 4
    t = t[(t >= 1e-3) & (0.5 * math.pi - t >= 1e-3)]
    skips = Skips(t.size)
    with np.errstate(all="ignore"):
        v = orbit(shape, t, skips).tri
        feuerbach = focal_length(feuerbach_hyperbola(v, skips), skips)
        jerabek = focal_length(jerabek_excentral(v, skips), skips)
    keep = skips.kept(MIN_SAMPLES)
    return FocalProfile(np.column_stack((t, feuerbach, jerabek))[keep], skips.skipped(t))


def count_interior_maxima(values) -> int:
    v = list(values)
    return sum(
        1 for i in range(1, len(v) - 1) if v[i] > v[i - 1] and v[i] > v[i + 1]
    )


def billiard_intersections(shape: BilliardShape, hyp: Conic) -> list[Point]:
    """Real intersections of the hyperbola with the billiard boundary.

    Finds the sign changes of the hyperbola form (``kernel.conic_form``)
    on a boundary grid of INTERSECTION_GRID points, evaluated as one
    array, and refines each bracket by bisection through the same form.
    A non-finite coefficient is refused (ValueError).
    """
    if any(map(nonfinite, hyp.coeffs)):
        raise ValueError(f"non-finite conic coefficients {hyp.coeffs}")
    grid = INTERSECTION_GRID
    ts = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    vals = conic_form(hyp, shape.a * np.cos(ts), shape.b * np.sin(ts))
    points = []
    for i in np.flatnonzero((vals == 0.0) | (vals * np.roll(vals, -1) < 0.0)).tolist():
        lo = float(ts[i])
        if vals[i] == 0.0:
            points.append(shape.boundary_point(lo))
            continue
        hi, flo = lo + 2.0 * math.pi / grid, vals[i]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            fm = conic_eval(hyp, shape.boundary_point(mid))
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
    (R, sqrt(R^2 - d^2)); R and r are the circumradius and inradius of
    the reference triangle and d = sqrt(R (R - 2r)) its
    incenter-circumcenter distance (Euler).  Nothing cancels: for sides
    a >= b >= c and area K, R - 2r = ((a-b)^2 (a+b-c) + c (a-c)(b-c)) / 4K,
    a sum of nonnegative terms (Schur), and the semi-minor axes use
    R^2 - d^2 = 2 R r, so R - d = 2 R r / (R + d).  A triangle whose
    area is not resolved to 1e-9, EPS a^2 > 1e-9 K, is refused
    (PointAtInfinity): its circumcenter is at infinity within rounding,
    and R and r are rounded beyond 1e-9.
    """
    a, b, c = sorted(t.sidelengths(), reverse=True)
    if EPS * a * a > 1e-9 * t.area():
        raise PointAtInfinity("triangle area not resolved to 1e-9")
    R, r = t.circumradius(), t.inradius()
    d = math.sqrt(R * (((a - b) * (a - b) * (a + b - c) + c * (a - c) * (b - c)) / (4.0 * t.area())))
    # R reads s1 s2 s3, which is subnormal or 0 below sides of about 3e-103 and inf above 5.6e102;
    # where it is a normal float, only d's numerator can overflow
    if not (sys.float_info.min <= math.prod(t.sidelengths()) < math.inf and math.isfinite(d)):
        raise ValueError("non-finite inconic axes (coordinates beyond the float range)")
    if which == "x3":
        return (R + d, 2.0 * R * r / (R + d))
    if which == "macbeath":
        return (R, math.sqrt(2.0 * R * r))
    raise KeyError(f"unknown inconic {which!r}")


def x3_inconic_ratio(rho: float) -> float:
    """Aspect ratio of the excentral circumcenter-centered inconic."""
    return (1.0 + math.sqrt(1.0 - 2.0 * rho)) / rho - 1.0


def macbeath_inconic_ratio(rho: float) -> float:
    """Aspect ratio of the excentral MacBeath inconic."""
    return 1.0 / math.sqrt(2.0 * rho)
