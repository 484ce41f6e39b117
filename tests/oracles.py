"""Independent numerical oracles used by the tests.

Everything here deliberately avoids the library's own construction
paths: the orbit oracle iterates the raw reflection map and solves the
closure condition by bisection, the extremal-radius search measures
ellipse axes by brute force along rays, and the excentral inconic axes
are computed in high-precision decimals.  The last two functions are
references of another kind: the generic circumconic form and the
point-by-point intersection loop that the library's written-out and
array versions must equal bit for bit.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np

from orbitconics import conic_eval


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
        den = 2 * cross
        n1, n2, n3 = x1 * x1 + y1 * y1, x2 * x2 + y2 * y2, x3 * x3 + y3 * y3
        ox = (n1 * (y2 - y3) + n2 * (y3 - y1) + n3 * (y1 - y2)) / den
        oy = (n1 * (x3 - x2) + n2 * (x1 - x3) + n3 * (x2 - x1)) / den
        d = ((ox - ix) ** 2 + (oy - iy) ** 2).sqrt()
        if which == "x3":
            axes = (R + d, R - d)
        elif which == "macbeath":
            axes = (R, (R * R - d * d).sqrt())
        else:
            raise KeyError(which)
        return tuple(float(v) for v in axes)


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
