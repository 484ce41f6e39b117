"""Planar points, triangles and general conic algebra.

Triangles are also available as ``Tri``: complex vertices with side
lengths, where each vertex is either one complex number or an array of
them.  The triangle-center, derived-triangle and circumbilliard formulas
are written once on ``Tri``, so the same code serves the scalar API (one
triangle, failures raise through ``RAISE``) and the batched family
kernel (arrays, failures recorded per sample in ``Skips``).

Conics use the five-coefficient form

    1 + c1*x + c2*y + c3*x*y + c4*x**2 + c5*y**2 = 0

which covers every conic not passing through the origin.  A circumconic
with a prescribed center is obtained from a 5x5 linear system (three
incidence rows, two vanishing-gradient rows); an inconic with a
prescribed center is obtained in the dual plane and mapped back through
the adjugate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateTriangle,
    NoRealConic,
    NotAnEllipse,
    SingularSystem,
)

# Pivot-ratio threshold for declaring a linear system singular.
CONDITION_LIMIT = 1e12
# Triangle degeneracy: area >= AREA_TOL * (longest side)^2.
AREA_TOL = 1e-12
# Tangency verification for inconics (scaled discriminant).
TANGENCY_TOL = 1e-9
# Cosine dead band separating acute / right / obtuse.
RIGHT_DEADBAND = 1e-12


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite point ({self.x}, {self.y})")

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __mul__(self, k: float) -> "Point":
        return Point(self.x * k, self.y * k)

    __rmul__ = __mul__

    def __truediv__(self, k: float) -> "Point":
        return Point(self.x / k, self.y / k)

    def dot(self, other: "Point") -> float:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Point") -> float:
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def dist(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)

    @classmethod
    def from_complex(cls, z) -> "Point":
        return cls(z.real, z.imag)


def dot(u, v):
    """Dot product of plane vectors given as complex numbers or arrays of them."""
    return u.real * v.real + u.imag * v.imag


def cross(u, v):
    """z-component of the cross product of complex-coded plane vectors."""
    return u.real * v.imag - u.imag * v.real


def length(d):
    """|d| through libm hypot, bit for bit alike for a complex number and an array.

    (numpy's complex ``abs`` and ``math.hypot`` each round differently.)
    """
    if type(d) is complex:
        return abs(d)
    return np.hypot(d.real, d.imag)


def where(cond, a, b):
    """``np.where`` for an array condition; a plain choice for one bool."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def perp_foot(p, q, r):
    """Foot of the perpendicular from p to the line qr (complex numbers or arrays)."""
    d = r - q
    return q + (dot(p - q, d) / dot(d, d)) * d


class Raise:
    """Failure policy of the scalar API: the first failed check raises."""

    @staticmethod
    def check(failed, exc, message: str) -> None:
        if failed:
            raise exc(message)


RAISE = Raise()


class Skips:
    """Failure policy of the batched kernel: a validity mask plus a reason per sample.

    ``check`` records, for every sample still valid where ``failed`` holds,
    the exception the scalar API would raise there; later checks do not
    overwrite it, so each sample keeps its first failure, as a raise would.
    """

    def __init__(self, n: int):
        self.code = np.full(n, -1, dtype=np.intp)
        self.failures: list[tuple[type, str]] = []

    @property
    def valid(self) -> np.ndarray:
        return self.code < 0

    def check(self, failed, exc, message: str) -> None:
        new = failed & (self.code < 0)
        if np.any(new):
            self.code[new] = len(self.failures)
            self.failures.append((exc, message))

    def absorb(self, other: "Skips", where) -> None:
        """Take over the failures of ``other`` on the samples selected by ``where``."""
        new = where & (other.code >= 0) & (self.code < 0)
        self.code[new] = other.code[new] + len(self.failures)
        self.failures.extend(other.failures)

    def reason(self, i: int) -> str:
        """Exception type name of sample i's failure ("" when valid)."""
        code = self.code[i]
        return self.failures[code][0].__name__ if code >= 0 else ""

    def raise_first(self) -> None:
        """Raise the failure of the first failed sample, if any."""
        bad = np.flatnonzero(self.code >= 0)
        if bad.size:
            exc, message = self.failures[self.code[bad[0]]]
            raise exc(message)


class Tri:
    """Triangle with complex vertices: numbers for one, arrays for a stack.

    Side s1 = |p2 p3| is opposite p1, etc.  Formulas on Tri give the same
    bits for a number as for an array element: they add, subtract and
    scale complex values by reals, but never multiply two complex values
    or divide a complex value by a real, which numpy rounds differently
    from Python.
    """

    __slots__ = ("p1", "p2", "p3", "s1", "s2", "s3", "area")

    def __init__(self, p1, p2, p3):
        self.p1, self.p2, self.p3 = p1, p2, p3
        self.s1, self.s2, self.s3 = length(p2 - p3), length(p3 - p1), length(p1 - p2)
        self.area = 0.5 * abs(cross(p2 - p1, p3 - p1))

    @classmethod
    def stack(cls, triangles) -> "Tri":
        z = np.array([[p.z for p in t.vertices] for t in triangles])
        return cls(z[:, 0], z[:, 1], z[:, 2])

    @property
    def vertices(self):
        return (self.p1, self.p2, self.p3)

    def cosines(self):
        """Cosine of the angle at each vertex, from the law of cosines."""
        s1, s2, s3 = self.s1, self.s2, self.s3
        return (
            (s2 * s2 + s3 * s3 - s1 * s1) / (2 * s2 * s3),
            (s1 * s1 + s3 * s3 - s2 * s2) / (2 * s1 * s3),
            (s1 * s1 + s2 * s2 - s3 * s3) / (2 * s1 * s2),
        )

    def shape_code(self):
        """0 acute, 1 right (within RIGHT_DEADBAND), 2 obtuse, from the smallest cosine."""
        ca, cb, cc = self.cosines()
        cmin = np.minimum(np.minimum(ca, cb), cc)
        return 1 * (cmin <= RIGHT_DEADBAND) + 1 * (cmin < -RIGHT_DEADBAND)

    def perimeter(self):
        return self.s1 + self.s2 + self.s3

    def inradius(self):
        return self.area / (0.5 * self.perimeter())

    def circumradius(self):
        return self.s1 * self.s2 * self.s3 / (4 * self.area)

    def thin(self):
        """Area below AREA_TOL times the square of the longest side."""
        s1, s2, s3 = self.s1, self.s2, self.s3
        return (
            (self.area < AREA_TOL * s1 * s1)
            | (self.area < AREA_TOL * s2 * s2)
            | (self.area < AREA_TOL * s3 * s3)
        )


class ConicClass(Enum):
    ELLIPSE = "ellipse"
    HYPERBOLA = "hyperbola"
    PARABOLA = "parabola"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class Conic:
    """Coefficients of 1 + c1 x + c2 y + c3 xy + c4 x^2 + c5 y^2 = 0."""

    c1: float
    c2: float
    c3: float
    c4: float
    c5: float

    def __post_init__(self):
        for name in ("c1", "c2", "c3", "c4", "c5"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @property
    def coeffs(self) -> tuple[float, float, float, float, float]:
        return (self.c1, self.c2, self.c3, self.c4, self.c5)

    def coeff_norm(self) -> float:
        return math.sqrt(sum(c * c for c in self.coeffs))

    def hessian(self) -> np.ndarray:
        return np.array([[2 * self.c4, self.c3], [self.c3, 2 * self.c5]])

    def gradient(self, p: Point) -> Point:
        return Point(
            self.c1 + self.c3 * p.y + 2 * self.c4 * p.x,
            self.c2 + self.c3 * p.x + 2 * self.c5 * p.y,
        )


@dataclass(frozen=True)
class EllipseParams:
    """Center, semi-axis lengths and major-axis direction of an ellipse.

    ``axis_angle`` is normalized to [0, pi); circle-degenerate ellipses
    report axis_angle = 0 by convention.
    """

    center: Point
    semi_major: float
    semi_minor: float
    axis_angle: float

    def __post_init__(self):
        if not (self.semi_major >= self.semi_minor > 0.0):
            raise ValueError(
                f"require semi_major >= semi_minor > 0, got "
                f"({self.semi_major}, {self.semi_minor})"
            )

    @property
    def aspect(self) -> float:
        return self.semi_major / self.semi_minor

    def axis_endpoints(self) -> list[Point]:
        ca, sa = math.cos(self.axis_angle), math.sin(self.axis_angle)
        u = Point(ca, sa)
        v = Point(-sa, ca)
        return [
            self.center + self.semi_major * u,
            self.center - self.semi_major * u,
            self.center + self.semi_minor * v,
            self.center - self.semi_minor * v,
        ]


@dataclass(frozen=True)
class Triangle:
    p1: Point
    p2: Point
    p3: Point

    def __post_init__(self):
        if self.tri.thin():
            raise DegenerateTriangle(f"area {self.area():.3e} below tolerance")

    @classmethod
    def from_coords(cls, coords) -> "Triangle":
        (x1, y1), (x2, y2), (x3, y3) = coords
        return cls(Point(x1, y1), Point(x2, y2), Point(x3, y3))

    @classmethod
    def from_tri(cls, v: Tri) -> "Triangle":
        return cls(*(Point.from_complex(z) for z in v.vertices))

    @property
    def vertices(self) -> tuple[Point, Point, Point]:
        return (self.p1, self.p2, self.p3)

    @cached_property
    def tri(self) -> Tri:
        return Tri(self.p1.z, self.p2.z, self.p3.z)

    def sidelengths(self) -> tuple[float, float, float]:
        """(s1, s2, s3) with s1 = |p2 p3| opposite p1, etc."""
        return (self.tri.s1, self.tri.s2, self.tri.s3)

    @property
    def s1(self) -> float:
        return self.tri.s1

    @property
    def s2(self) -> float:
        return self.tri.s2

    @property
    def s3(self) -> float:
        return self.tri.s3

    def area(self) -> float:
        return self.tri.area

    def perimeter(self) -> float:
        return self.tri.perimeter()

    def cosines(self) -> tuple[float, float, float]:
        """Cosine of the angle at each vertex, from the law of cosines."""
        return self.tri.cosines()

    def inradius(self) -> float:
        return self.tri.inradius()

    def circumradius(self) -> float:
        return self.tri.circumradius()

    def scale(self) -> float:
        return max(self.sidelengths())


def solve_linear(A, rhs, exc=SingularSystem):
    """Solve a small dense system by partial-pivot Gaussian elimination.

    Raises ``exc`` when the max/min pivot ratio exceeds CONDITION_LIMIT
    (or a pivot vanishes outright).
    """
    A = np.array(A, dtype=float)
    b = np.array(rhs, dtype=float)
    n = b.size
    pmax = 0.0
    for k in range(n):
        i = k + int(np.argmax(np.abs(A[k:, k])))
        if i != k:
            A[[k, i]] = A[[i, k]]
            b[[k, i]] = b[[i, k]]
        piv = abs(A[k, k])
        pmax = max(pmax, piv)
        if piv == 0.0 or pmax / piv > CONDITION_LIMIT:
            raise exc(f"pivot ratio beyond {CONDITION_LIMIT:.0e}")
        for j in range(k + 1, n):
            f = A[j, k] / A[k, k]
            A[j, k:] -= f * A[k, k:]
            b[j] -= f * b[k]
    x = np.zeros(n)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - A[k, k + 1 :] @ x[k + 1 :]) / A[k, k]
    return x


def conic_eval(conic: Conic, p: Point) -> float:
    """Value of 1 + c1 x + c2 y + c3 xy + c4 x^2 + c5 y^2 at p."""
    x, y = p.x, p.y
    return 1.0 + conic.c1 * x + conic.c2 * y + conic.c3 * x * y + conic.c4 * x * x + conic.c5 * y * y


def solve_circumconic(t: Triangle, center: Point) -> Conic:
    """Conic through the three vertices whose gradient vanishes at ``center``.

    The five coefficients solve the exact 5x5 system: one incidence row
    per vertex plus the two first-order stationarity rows at the center.
    """
    rows = []
    for p in t.vertices:
        rows.append([p.x, p.y, p.x * p.y, p.x * p.x, p.y * p.y])
    rows.append([1.0, 0.0, center.y, 2.0 * center.x, 0.0])
    rows.append([0.0, 1.0, center.x, 0.0, 2.0 * center.y])
    sol = solve_linear(rows, [-1.0, -1.0, -1.0, 0.0, 0.0])
    return Conic(*sol)


def classify_conic(conic: Conic) -> ConicClass:
    """Ellipse / hyperbola / parabola via the sign of 4 c4 c5 - c3^2."""
    c1, c2, c3, c4, c5 = conic.coeffs
    det3 = (
        c4 * (c5 - c2 * c2 / 4.0)
        - (c3 / 2.0) * (c3 / 2.0 - c1 * c2 / 4.0)
        + (c1 / 2.0) * (c2 * c3 / 4.0 - c1 * c5 / 2.0)
    )
    scale3 = max(abs(v) for v in (c1, c2, c3, c4, c5, 1.0)) ** 3
    if abs(det3) <= 1e-12 * scale3:
        return ConicClass.DEGENERATE
    disc = 4.0 * c4 * c5 - c3 * c3
    scale = c3 * c3 + 4.0 * abs(c4 * c5) + 1e-300
    if disc > 1e-12 * scale:
        return ConicClass.ELLIPSE
    if disc < -1e-12 * scale:
        return ConicClass.HYPERBOLA
    return ConicClass.PARABOLA


def conic_to_ellipse_params(conic: Conic) -> EllipseParams:
    """Canonical center / semi-axes / axis direction of an elliptical conic.

    The center solves the two gradient equations; axis directions are the
    Hessian eigenvectors.  One semi-axis length comes from the quadratic
    d0 + d2 t^2 along an eigenvector, the other from the square root of
    the eigenvalue ratio.
    """
    if classify_conic(conic) is not ConicClass.ELLIPSE:
        raise NotAnEllipse("conic does not classify as an ellipse")
    c1, c2, c3, c4, c5 = conic.coeffs
    H = conic.hessian()
    sol = solve_linear(H, [-c1, -c2], exc=NotAnEllipse)
    center = Point(sol[0], sol[1])
    d0 = conic_eval(conic, center)
    w, V = np.linalg.eigh(H)
    # semi-axis along eigenvector 0, the other via sqrt(eigenvalue ratio)
    u = V[:, 0]
    d2 = c4 * u[0] ** 2 + c3 * u[0] * u[1] + c5 * u[1] ** 2
    ratio0 = -d0 / d2
    if ratio0 <= 0.0:
        raise NotAnEllipse("conic has no real points")
    t0 = math.sqrt(ratio0)
    t1 = t0 * math.sqrt(abs(w[0] / w[1]))
    if t0 >= t1:
        major, minor, umaj = t0, t1, u
    else:
        major, minor, umaj = t1, t0, V[:, 1]
    if abs(w[0] - w[1]) < 1e-12 * max(abs(w[0]), abs(w[1])):
        angle = 0.0
    else:
        angle = math.atan2(umaj[1], umaj[0]) % math.pi
        if math.pi - angle < 1e-12:
            angle = 0.0
    return EllipseParams(center, major, minor, angle)


def ellipse_to_conic(params: EllipseParams) -> Conic:
    """Five-coefficient form of an ellipse given by its canonical parameters.

    The origin must not lie on the ellipse (the representation fixes the
    constant term to 1).
    """
    A, B = params.semi_major, params.semi_minor
    ca, sa = math.cos(params.axis_angle), math.sin(params.axis_angle)
    qxx = ca * ca / (A * A) + sa * sa / (B * B)
    qyy = sa * sa / (A * A) + ca * ca / (B * B)
    qxy = 2.0 * ca * sa * (1.0 / (A * A) - 1.0 / (B * B))
    cx, cy = params.center.x, params.center.y
    k1 = -2.0 * qxx * cx - qxy * cy
    k2 = -2.0 * qyy * cy - qxy * cx
    k0 = qxx * cx * cx + qxy * cx * cy + qyy * cy * cy - 1.0
    if abs(k0) < 1e-14 * (1.0 + abs(qxx) + abs(qyy)):
        raise SingularSystem("ellipse passes through the origin")
    return Conic(k1 / k0, k2 / k0, qxy / k0, qxx / k0, qyy / k0)


def _sideline_homogeneous(p: Point, q: Point) -> np.ndarray:
    a = np.array([p.x, p.y, 1.0])
    b = np.array([q.x, q.y, 1.0])
    return np.cross(a, b)


def line_conic_tangency_residual(conic: Conic, p: Point, q: Point) -> float:
    """Scaled discriminant of the conic restricted to line pq (0 = tangent)."""
    dx, dy = q.x - p.x, q.y - p.y
    c1, c2, c3, c4, c5 = conic.coeffs
    qa = c3 * dx * dy + c4 * dx * dx + c5 * dy * dy
    qb = c1 * dx + c2 * dy + c3 * (p.x * dy + p.y * dx) + 2 * c4 * p.x * dx + 2 * c5 * p.y * dy
    qc = conic_eval(conic, p)
    disc = qb * qb - 4.0 * qa * qc
    return abs(disc) / (abs(qa) + abs(qb) + abs(qc)) ** 2


def solve_inconic(t: Triangle, center: Point) -> Conic:
    """Conic tangent to the three sidelines with the prescribed center.

    Works in the dual plane: the dual conic matrix must be incident with
    each sideline (three linear conditions) and must map the line at
    infinity to the homogeneous center (two conditions).  The resulting
    homogeneous 5x6 system is solved by SVD and mapped back through the
    adjugate.  Tangency of all three sidelines is verified before
    returning.
    """
    lines = [
        _sideline_homogeneous(t.p2, t.p3),
        _sideline_homogeneous(t.p3, t.p1),
        _sideline_homogeneous(t.p1, t.p2),
    ]
    rows = []
    for u, v, w in lines:
        rows.append([u * u, 2 * u * v, 2 * u * w, v * v, 2 * v * w, w * w])
    # (d13, d23, d33) proportional to (xc, yc, 1)
    rows.append([0.0, 0.0, 0.0, 0.0, 1.0, -center.y])
    rows.append([0.0, 0.0, -1.0, 0.0, 0.0, center.x])
    M = np.array(rows, dtype=float)
    _, sv, Vt = np.linalg.svd(M)
    if sv[0] == 0.0 or sv[3] < sv[0] / CONDITION_LIMIT:
        raise SingularSystem("dual inconic system is rank deficient")
    d = Vt[-1]
    D = np.array([[d[0], d[1], d[2]], [d[1], d[3], d[4]], [d[2], d[4], d[5]]])
    C = _adjugate(D)
    k = C[2, 2]
    if abs(k) < 1e-14 * np.abs(C).max():
        raise SingularSystem("inconic passes through the origin")
    conic = Conic(
        2 * C[0, 2] / k, 2 * C[1, 2] / k, 2 * C[0, 1] / k, C[0, 0] / k, C[1, 1] / k
    )
    # a center on a parabolic boundary (a midline of t) makes the solution
    # collapse to a double line, which passes tangency checks trivially
    if classify_conic(conic) is ConicClass.DEGENERATE:
        raise NoRealConic("inconic degenerates for this center")
    verts = t.vertices
    for i in range(3):
        res = line_conic_tangency_residual(conic, verts[(i + 1) % 3], verts[(i + 2) % 3])
        if res > TANGENCY_TOL:
            raise NoRealConic(f"sideline tangency residual {res:.3e}")
    grad = conic.gradient(center)
    if grad.norm() > TANGENCY_TOL * (1.0 + conic.coeff_norm()) * (1.0 + center.norm()):
        raise NoRealConic("constructed conic is not centered at the requested point")
    return conic


def _adjugate(m: np.ndarray) -> np.ndarray:
    out = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            minor = np.delete(np.delete(m, j, axis=0), i, axis=1)
            out[i, j] = ((-1) ** (i + j)) * (
                minor[0, 0] * minor[1, 1] - minor[0, 1] * minor[1, 0]
            )
    return out
