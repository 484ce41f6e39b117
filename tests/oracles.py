"""Independent numerical oracles used by the tests.

Everything here deliberately avoids the library's own construction
paths: the orbit oracle iterates the raw reflection map and solves the
closure condition by bisection, the extremal-radius search measures
ellipse axes by brute force along rays, and the excentral inconic axes,
the inconic solve and the xy-hyperbola focal length are computed in
high-precision decimals.  Then come references of another kind: the
generic circumconic form and the point-by-point intersection loop, which
the library's written-out and array versions must equal bit for bit,
and three measures the library never takes of its own conics: their type
(``classify_conic``), a line's tangency to them
(``line_conic_tangency_residual``) and the reflection law at a
triangle's vertices (``reflection_residual``).  The helpers at the end build test
inputs and check classical facts through the library (trilinears to
Cartesians, canonical ellipse parameters to a conic, the upright
isosceles orbit, intouch points and their superposition facts, stacked
triangles); only the tests use them, so the package does not export them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from enum import Enum

import numpy as np

from orbitconics import (
    BilliardShape,
    Conic,
    DegenerateConic,
    EllipseParams,
    Point,
    Tri,
    Triangle,
    act,
    center,
    conic_eval,
    derived_cb,
    orbit,
)
from orbitconics.centers import _point_of
from orbitconics.kernel import RAISE, determinants, nonfinite, perp_foot


def reflection_map_orbit(a: float, b: float, t: float):
    """Orbit triangle via three reflections and bisection on closure.

    Returns the vertices as numpy arrays (P1, P2, P3) with P2 the first
    bounce in increasing boundary parameter.
    """
    a2, b2 = a * a, b * b

    def boundary(u):
        return np.array([a * math.cos(u), b * math.sin(u)])

    def chord_end(P, u):
        qa = u[0] ** 2 / a2 + u[1] ** 2 / b2
        qb = 2.0 * (P[0] * u[0] / a2 + P[1] * u[1] / b2)
        return P + (-qb / qa) * u

    def reflect(u, Q):
        n = np.array([Q[0] / a2, Q[1] / b2])
        n /= np.linalg.norm(n)
        return u - 2.0 * np.dot(u, n) * n

    def lifted(Q, prev):
        th = math.atan2(Q[1] / b, Q[0] / a)
        while th <= prev + 1e-15:
            th += 2.0 * math.pi
        return th

    def bounce3(psi):
        P = boundary(t)
        u = np.array([math.cos(psi), math.sin(psi)])
        th = t
        pts = []
        for _ in range(3):
            Q = chord_end(P, u)
            u = reflect(u, Q)
            th = lifted(Q, th)
            pts.append(Q)
            P = Q
        return th, pts

    tangent = math.atan2(b * math.cos(t), -a * math.sin(t))
    lo, hi = tangent + 1e-12, tangent + math.pi - 1e-12
    flo = bounce3(lo)[0] - (t + 2.0 * math.pi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = bounce3(mid)[0] - (t + 2.0 * math.pi)
        if flo * fm <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    _, pts = bounce3(0.5 * (lo + hi))
    return boundary(t), pts[0], pts[1]


def extremal_radii(conic_coeffs, center, n: int = 2_000_000):
    """Max and min distance from the center to the conic along ray directions.

    Conic in the five-coefficient form; relies only on evaluating the
    restricted quadratic along each direction.
    """
    c1, c2, c3, c4, c5 = conic_coeffs
    cx, cy = center
    d0 = 1.0 + c1 * cx + c2 * cy + c3 * cx * cy + c4 * cx * cx + c5 * cy * cy
    theta = np.linspace(0.0, math.pi, n)
    ux, uy = np.cos(theta), np.sin(theta)
    d2 = c4 * ux * ux + c3 * ux * uy + c5 * uy * uy
    tt = np.sqrt(-d0 / d2)
    return float(tt.max()), float(tt.min())


def incircle(vertices):
    """Incenter and inradius from first principles."""
    P = [np.asarray(v, dtype=float) for v in vertices]
    s1 = np.linalg.norm(P[1] - P[2])
    s2 = np.linalg.norm(P[0] - P[2])
    s3 = np.linalg.norm(P[0] - P[1])
    I = (s1 * P[0] + s2 * P[1] + s3 * P[2]) / (s1 + s2 + s3)
    sp = 0.5 * (s1 + s2 + s3)
    area = math.sqrt(max(sp * (sp - s1) * (sp - s2) * (sp - s3), 0.0))
    return I, area / sp


def circumcircle(vertices):
    """Circumcenter and circumradius from perpendicular bisectors."""
    A, B, C = [np.asarray(v, dtype=float) for v in vertices]
    d = 2.0 * (A[0] * (B[1] - C[1]) + B[0] * (C[1] - A[1]) + C[0] * (A[1] - B[1]))
    ux = (
        (A @ A) * (B[1] - C[1]) + (B @ B) * (C[1] - A[1]) + (C @ C) * (A[1] - B[1])
    ) / d
    uy = (
        (A @ A) * (C[0] - B[0]) + (B @ B) * (A[0] - C[0]) + (C @ C) * (B[0] - A[0])
    ) / d
    O = np.array([ux, uy])
    return O, float(np.linalg.norm(A - O))


def excentral_inconic_axes_decimal(vertices, which: str, digits: int = 60):
    """Semi-axes of the excentral X3 or MacBeath inconic, in ``digits``-digit decimals.

    From the float vertices taken exactly: side lengths, area (shoelace),
    circumradius R = abc / 4K, inradius r = K / s, and d = |X3 X1| from
    the circumcenter and incenter coordinates, with no use of Euler's
    relation.  Then (R + d, R - d) for "x3" and (R, sqrt(R^2 - d^2)) for
    "macbeath", rounded to floats.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        (x1, y1), (x2, y2), (x3, y3) = [(Decimal(x), Decimal(y)) for x, y in vertices]
        a = ((x2 - x3) ** 2 + (y2 - y3) ** 2).sqrt()
        b = ((x3 - x1) ** 2 + (y3 - y1) ** 2).sqrt()
        c = ((x1 - x2) ** 2 + (y1 - y2) ** 2).sqrt()
        cross = (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1)
        area = abs(cross) / 2
        R = a * b * c / (4 * area)
        ix, iy = (a * x1 + b * x2 + c * x3) / (a + b + c), (a * y1 + b * y2 + c * y3) / (a + b + c)
        ox, oy = _circumcenter_decimal((x1, y1), (x2, y2), (x3, y3))
        d = ((ox - ix) ** 2 + (oy - iy) ** 2).sqrt()
        if which == "x3":
            axes = (R + d, R - d)
        elif which == "macbeath":
            axes = (R, (R * R - d * d).sqrt())
        else:
            raise KeyError(which)
        return tuple(float(v) for v in axes)


def inconic_decimal(vertices, center, digits: int = 80):
    """Type and semi-axes of the conic tangent to the sidelines with the given center, in decimals.

    From the float vertices and center taken exactly, in ``digits``-digit
    decimals: about the center a conic's tangential equation is
    u^2 p11 + 2uv p12 + v^2 p22 = w^2, one row for each sideline
    u x + v y + w = 0, and the 3x3 system is solved by Cramer's rule on its
    full determinants.  The type is ELLIPSE where det P > 0 with a positive
    trace, HYPERBOLA where det P < 0, DEGENERATE otherwise; the semi-axes
    are sqrt|l| for P's eigenvalues l, the larger first, rounded to floats.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        cx, cy = Decimal(center[0]), Decimal(center[1])
        q = [(Decimal(x) - cx, Decimal(y) - cy) for x, y in vertices]
        rows = []
        for (xj, yj), (xk, yk) in ((q[1], q[2]), (q[2], q[0]), (q[0], q[1])):
            u, v, w = yj - yk, xk - xj, xj * yk - yj * xk
            rows.append((u * u, 2 * u * v, v * v, w * w))

        def det3(m):
            return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                    - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                    + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

        full = det3([r[:3] for r in rows])
        p11, p12, p22 = (det3([r[:k] + (r[3],) + r[k + 1:3] for r in rows]) / full for k in range(3))
        det, half_trace = p11 * p22 - p12 * p12, (p11 + p22) / 2
        radius = ((p11 - p22) * (p11 - p22) / 4 + p12 * p12).sqrt()
        if det > 0 and half_trace > 0:
            kind = ConicClass.ELLIPSE
        elif det < 0:
            kind = ConicClass.HYPERBOLA
        else:
            kind = ConicClass.DEGENERATE
        small, large = sorted((abs(half_trace - radius), abs(half_trace + radius)))
        return kind, (float(large.sqrt()), float(small.sqrt()))


def xy_focal_decimal(vertices, digits: int = 80) -> float:
    """Focal length 2 sqrt(2 |c1 c2|) / |c3| of c1 x + c2 y + c3 xy = 0 through the vertices and 0.

    From the float vertices taken exactly, in ``digits``-digit decimals:
    the rows (x, y, xy), and as c the largest of the three cross products
    of two rows (the conic through those two vertices and the origin),
    rounded to a float.  At 80 digits every product is exact.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        rows = [(Decimal(x), Decimal(y), Decimal(x) * Decimal(y)) for x, y in vertices]
        crosses = [(u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2], u[0] * w[1] - u[1] * w[0])
                   for u, w in ((rows[1], rows[2]), (rows[2], rows[0]), (rows[0], rows[1]))]
        c1, c2, c3 = max(crosses, key=lambda c: c[0] * c[0] + c[1] * c[1] + c[2] * c[2])
        return float(2 * (2 * abs(c1 * c2)).sqrt() / abs(c3))


def circumbilliard_decimal(vertices, digits: int = 80):
    """Center and semi-axes of the circumconic of perspector (a : b : c), in decimals.

    From the float vertices taken exactly, in ``digits``-digit decimals:
    each barycentric coordinate lambda_i(x, y) is an affine function (the
    signed area of the point and the other two vertices), the conic is
    a lambda_2 lambda_3 + b lambda_3 lambda_1 + c lambda_1 lambda_2 = 0
    with the side lengths a, b, c, expanded to its six coefficients, and
    its center, level and eigenvalues are read off generically, where 80
    digits leave AC - B^2 exact enough for any aspect a float can hold.
    Returns (center, semi_major, semi_minor): a complex number and two
    floats.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        p = [(Decimal(x), Decimal(y)) for x, y in vertices]
        lam = []  # lambda_i = alpha x + beta y + gamma, up to the common factor 2 area
        for (xj, yj), (xk, yk) in ((p[1], p[2]), (p[2], p[0]), (p[0], p[1])):
            lam.append((yj - yk, xk - xj, xj * yk - xk * yj))
        A = B2 = C = D2 = E2 = F = Decimal(0)
        for u, i, j in zip(_sides_decimal(p), (1, 2, 0), (2, 0, 1)):
            (al, be, ga), (al2, be2, ga2) = lam[i], lam[j]
            A += u * al * al2
            B2 += u * (al * be2 + al2 * be)
            C += u * be * be2
            D2 += u * (al * ga2 + al2 * ga)
            E2 += u * (be * ga2 + be2 * ga)
            F += u * ga * ga2
        B, D, E = B2 / 2, D2 / 2, E2 / 2
        det = A * C - B * B
        cx, cy = (B * E - C * D) / det, (B * D - A * E) / det
        K = -(D * cx + E * cy + F)
        mid, gap = (A + C) / 2, (((A - C) / 2) ** 2 + B * B).sqrt()
        small, large = sorted((abs(mid - gap), abs(mid + gap)))
        return (complex(float(cx), float(cy)), float((abs(K) / small).sqrt()),
                float((abs(K) / large).sqrt()))


def inradius_to_circumradius_decimal(a: float, b: float, digits: int = 60) -> float:
    """The family's r/R = 2(d - b^2)(a^2 - d)/(a^2 - b^2)^2, d = sqrt(a^4 - a^2 b^2 + b^4).

    The cancelling textbook form, evaluated in ``digits``-digit decimals
    from a and b taken exactly, then rounded to a float.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        a2, b2 = Decimal(a) ** 2, Decimal(b) ** 2
        d = (a2 * a2 - a2 * b2 + b2 * b2).sqrt()
        return float(2 * (d - b2) * (a2 - d) / (a2 - b2) ** 2)


def _circumcenter_decimal(p1, p2, p3):
    """Circumcenter of three points in Decimal coordinates, from the perpendicular bisectors."""
    (x1, y1), (x2, y2), (x3, y3) = p1, p2, p3
    den = 2 * ((x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1))
    n1, n2, n3 = x1 * x1 + y1 * y1, x2 * x2 + y2 * y2, x3 * x3 + y3 * y3
    ox = (n1 * (y2 - y3) + n2 * (y3 - y1) + n3 * (y1 - y2)) / den
    oy = (n1 * (x3 - x2) + n2 * (x1 - x3) + n3 * (x2 - x1)) / den
    return ox, oy


def euler_centers_decimal(vertices, digits: int = 60):
    """Orthocenter X4 and nine-point center X5 in ``digits``-digit decimals.

    From the float vertices taken exactly: H is where the altitudes from
    p1 and p2 meet, each the line (X - p_i) . (p_k - p_j) = 0, solved by
    Cramer's rule; N is the midpoint of H and the circumcenter from the
    perpendicular bisectors.  No Euler-line identity is used.  Returns
    the two points as complex numbers rounded to floats.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        p1, p2, p3 = [(Decimal(x), Decimal(y)) for x, y in vertices]
        (a1, b1, c1), (a2, b2, c2) = [
            (xk - xj, yk - yj, x * (xk - xj) + y * (yk - yj))
            for (x, y), (xj, yj), (xk, yk) in ((p1, p2, p3), (p2, p3, p1))
        ]
        det = a1 * b2 - a2 * b1
        hx, hy = (c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det
        ox, oy = _circumcenter_decimal(p1, p2, p3)
        return complex(float(hx), float(hy)), complex(float((ox + hx) / 2), float((oy + hy) / 2))


#: ETC trilinears of the direct centers and of X142 and X144, as the first
#: coordinate in the sides (a, b, c); the others follow cyclically.
_TRILINEARS_DECIMAL = {
    1: lambda a, b, c: 1,
    2: lambda a, b, c: 1 / a,
    6: lambda a, b, c: a,
    7: lambda a, b, c: 1 / (a * (b + c - a)),
    8: lambda a, b, c: (b + c - a) / a,
    9: lambda a, b, c: b + c - a,
    10: lambda a, b, c: (b + c) / a,
    11: lambda a, b, c: (b - c) ** 2 * (b + c - a) / a,
    69: lambda a, b, c: (b * b + c * c - a * a) / a,
    100: lambda a, b, c: 1 / (b - c),
    142: lambda a, b, c: b + c - (b - c) ** 2 / a,
    144: lambda a, b, c: (3 * a * a - 2 * a * (b + c) - (b - c) ** 2) / a,
    1156: lambda a, b, c: 1 / ((b - c) ** 2 + a * (b + c - 2 * a)),
}


def centers_decimal(vertices, index: int, digits: int = 60) -> complex:
    """Kimberling center X_index in ``digits``-digit decimals.

    From the float vertices taken exactly: the direct centers, X142 and
    X144 from their ETC trilinears times the sides, X3 from the
    perpendicular bisectors, X4 and X5 from ``euler_centers_decimal``,
    and X40 and X168 as X3 and X9 of the excentral triangle, whose
    vertices are the excenters.  Returns a complex number rounded to floats.
    """
    if index in (4, 5):
        return euler_centers_decimal(vertices, digits)[index - 4]
    with localcontext() as ctx:
        ctx.prec = digits
        p = [(Decimal(x), Decimal(y)) for x, y in vertices]
        if index in (40, 168):
            p = _excenters_decimal(p)
            index = 3 if index == 40 else 9
        if index == 3:
            x, y = _circumcenter_decimal(*p)
        else:
            a, b, c = _sides_decimal(p)
            t = _TRILINEARS_DECIMAL[index]
            w = (a * t(a, b, c), b * t(b, c, a), c * t(c, a, b))
            x, y = (sum(wi * pi[k] for wi, pi in zip(w, p)) / sum(w) for k in (0, 1))
        return complex(float(x), float(y))


def excenters_decimal(vertices, digits: int = 60) -> list[complex]:
    """The three excenters in ``digits``-digit decimals, rounded to complex floats.

    From the float vertices taken exactly, as (-a p1 + b p2 + c p3) / (b + c - a)
    and its cyclic shifts, the cancelling textbook form.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        return [complex(float(x), float(y))
                for x, y in _excenters_decimal([(Decimal(x), Decimal(y)) for x, y in vertices])]


def _excenters_decimal(p):
    """Excenters of three Decimal points, opposite each in turn."""
    a, b, c = _sides_decimal(p)
    return [
        tuple((wa * p[0][k] + wb * p[1][k] + wc * p[2][k]) / (wa + wb + wc) for k in (0, 1))
        for wa, wb, wc in ((-a, b, c), (a, -b, c), (a, b, -c))
    ]


def _sides_decimal(p):
    """Side lengths opposite each of three Decimal points."""
    return tuple(((p[j][0] - p[k][0]) ** 2 + (p[j][1] - p[k][1]) ** 2).sqrt()
                 for j, k in ((1, 2), (2, 0), (0, 1)))


def cosines_decimal(vertices, digits: int = 60):
    """Cosine of the angle at each vertex in ``digits``-digit decimals.

    From the float vertices taken exactly, by the law of cosines
    (b^2 + c^2 - a^2) / 2bc on the squared side lengths; at 60 digits
    its cancellation leaves well over 16 correct digits.  Rounded to floats.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        p = [(Decimal(x), Decimal(y)) for x, y in vertices]
        sq = [(p[j][0] - p[k][0]) ** 2 + (p[j][1] - p[k][1]) ** 2
              for j, k in ((1, 2), (2, 0), (0, 1))]
        return tuple(
            float((sq[j] + sq[k] - sq[i]) / (2 * (sq[j] * sq[k]).sqrt()))
            for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
        )


def circumconic_generic(v, perspector):
    """Circumconic of perspector (u1 : u2 : u3) as the generic form ``Q = L^T M L``.

    ``M = [[0, u3, u2], [u3, 0, u1], [u2, u1, 0]]`` is mapped through the
    three sidelines of ``Tri.sidelines(p1)``, each coefficient a bilinear
    form of two of their columns: the reference that the library's
    written-out ``kernel.circumconic_of`` must equal bit for bit.
    Returns (A, B, C, D, E, F).
    """
    u1, u2, u3 = perspector
    (a1, b1, c1), (a2, b2, c2), (a3, b3, c3) = v.sidelines(v.p1)
    a, b, c = (a1, a2, a3), (b1, b2, b3), (c1, c2, c3)

    def form(p, q):
        return (u1 * (p[1] * q[2] + p[2] * q[1]) + u2 * (p[2] * q[0] + p[0] * q[2])
                + u3 * (p[0] * q[1] + p[1] * q[0]))

    return (form(a, a), form(a, b), form(b, b), form(a, c), form(b, c), form(c, c))


def billiard_intersections_pointwise(shape, hyp, grid: int = 4096):
    """``conic_invariants.billiard_intersections`` with the grid evaluated one point at a time.

    The same arithmetic in the same order, so the library's one-array
    evaluation must give the same points.
    """
    ts = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    vals = np.array([conic_eval(hyp, shape.boundary_point(float(t))) for t in ts])
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
                fm = conic_eval(hyp, shape.boundary_point(mid))
                if flo * fm <= 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            points.append(shape.boundary_point(0.5 * (lo + hi)))
    return points


class ConicClass(Enum):
    ELLIPSE = "ellipse"
    HYPERBOLA = "hyperbola"
    PARABOLA = "parabola"
    DEGENERATE = "degenerate"


def _unit(q: Conic):
    """q divided, exactly, by the power of two that brings its largest coefficient into [0.5, 1).

    Returns it with that coefficient as scaled; one conic of numbers.
    """
    big = max(map(abs, (q.A, 2 * q.B, q.C, 2 * q.D, 2 * q.E, q.F)))
    scale, exponent = math.frexp(big)
    return Conic(*[math.ldexp(x, -exponent) for x in q.coeffs], q.anchor), scale


def classify_conic(conic: Conic) -> ConicClass:
    """Ellipse / hyperbola / parabola of the ``_unit`` conic; a non-finite coefficient: ValueError.

    The type read off the six coefficients with the library's dead band
    (``kernel.determinants``), for conics the library builds without
    reading their type: the tests check that a circumbilliard is an
    ellipse, an xy-hyperbola a hyperbola.
    """
    if any(map(nonfinite, conic.coeffs)):
        raise ValueError(f"non-finite conic coefficients {conic.coeffs}")
    unit, scale = _unit(conic)
    A, B, C, D, E, F = unit.coeffs
    det, band = determinants(unit)
    det3 = D * (B * E - C * D) + E * (B * D - A * E) + F * det
    # a line pair where |det3| is at most 1e-12 times the unit conic's largest coefficient cubed
    if abs(det3) <= 1e-12 * scale**3:
        return ConicClass.DEGENERATE
    if det > band:
        return ConicClass.ELLIPSE
    if det < -band:
        return ConicClass.HYPERBOLA
    return ConicClass.PARABOLA


def line_conic_tangency_residual(conic: Conic, p: Point, q: Point) -> float:
    """Scaled discriminant of the ``_unit`` conic restricted to the line pq (0 = tangent).

    A line in the conic has no discriminant (DegenerateConic); equal points span no line, and a
    residual whose terms leave the float range cannot be measured (ValueError).
    """
    if p == q:
        raise ValueError("tangency residual of a line through two equal points")
    u, d = _unit(conic)[0], q - p
    qa = u.A * d.x * d.x + 2 * u.B * d.x * d.y + u.C * d.y * d.y
    qb, qc = gradient(u, p).dot(d), conic_eval(u, p)
    if qa == qb == qc == 0.0:
        raise DegenerateConic("the line lies in the conic")
    size = abs(qa) + abs(qb) + abs(qc)
    discriminant, squared = abs(qb * qb - 4.0 * qa * qc), size * size
    if nonfinite(discriminant + squared):
        raise ValueError("tangency residual beyond the float range")
    return discriminant / squared


def gradient(conic: Conic, p: Point) -> Point:
    """Gradient of the conic's quadratic form at ``p``."""
    x, y = p.x - conic.anchor.real, p.y - conic.anchor.imag
    return Point(
        2 * (conic.A * x + conic.B * y + conic.D),
        2 * (conic.B * x + conic.C * y + conic.E),
    )


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
        g = gradient(conic, p)
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


def trilinear_to_cartesian(t: Triangle, tri: tuple[float, float, float]) -> Point:
    """Cartesian position of homogeneous trilinears (t1 : t2 : t3).

    The trilinears are weighted by the sides here, into the barycentrics
    (s1 t1 : s2 t2 : s3 t3) that the library's ``_point_of`` places.
    """
    weights = tuple(s * x for s, x in zip(t.sidelengths(), tri))
    return Point.from_complex(_point_of(t.tri, weights, RAISE))


def ellipse_to_conic(params: EllipseParams) -> Conic:
    """An ellipse given by its canonical parameters, anchored at its center."""
    A, B = params.semi_major, params.semi_minor
    ca, sa = math.cos(params.axis_angle), math.sin(params.axis_angle)
    qxx = ca * ca / (A * A) + sa * sa / (B * B)
    qyy = sa * sa / (A * A) + ca * ca / (B * B)
    qxy = ca * sa * (1.0 / (A * A) - 1.0 / (B * B))
    return Conic(qxx, qxy, qyy, 0.0, 0.0, -1.0, params.center.z)


def axis_endpoints(params: EllipseParams) -> list[Point]:
    """The four ends of the major and minor axes."""
    ca, sa = math.cos(params.axis_angle), math.sin(params.axis_angle)
    u = Point(ca, sa)
    v = Point(-sa, ca)
    return [
        params.center + params.semi_major * u,
        params.center - params.semi_major * u,
        params.center + params.semi_minor * v,
        params.center - params.semi_minor * v,
    ]


def isosceles_dimensions(shape: BilliardShape) -> tuple[float, float]:
    """Base half-width and height of the upright isosceles orbit, in b = 1 units."""
    al = shape.alpha
    al2 = al * al
    dn = math.sqrt(al2 * al2 - al2 + 1.0)
    s_eq = al2 / (al2 - 1.0) * math.sqrt(2.0 * dn - al2 - 1.0)
    h = (al2 + dn + 1.0) / (al2 + dn)
    return s_eq, h


def intouch_points(t: Triangle) -> tuple[Point, Point, Point]:
    """Incircle tangency points, as perpendicular feet from the incenter."""
    inc = center(t, 1).z
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
    act_touch = intouch_points(act(tri))
    res_act = max(abs(shape.boundary_value(p)) for p in act_touch)
    medial_cb = derived_cb(tri, "medial").conic
    A, B, C, D, E, F = medial_cb.coeffs  # the norm of the polynomial's (A, 2B, C, 2D, 2E, F)
    norm = math.sqrt(A * A + 4 * B * B + C * C + 4 * D * D + 4 * E * E + F * F)
    res_med = max(abs(conic_eval(medial_cb, p)) / norm for p in intouch_points(tri))
    return SuperpositionReport(res_act, res_med)


def stack_tris(triangles) -> Tri:
    """One stacked ``Tri`` of the vertices of ``Triangle``s."""
    z = np.array([t.tri.vertices for t in triangles])
    return Tri(z[:, 0], z[:, 1], z[:, 2])
