"""Planar points, triangles and general conic algebra.

Triangles are also available as ``Tri``: complex vertices with side
lengths, where each vertex is either one complex number or an array of
them.  The triangle-center, derived-triangle and circumbilliard formulas
are written once on ``Tri``, so the same code serves the scalar API (one
triangle, failures raise through ``RAISE``) and the batched family
kernel (arrays, failures recorded per sample in ``Skips``).  Their math
functions come from ``ufuncs``: ``math`` for one triangle, which then
computes in plain Python floats, numpy for a stack.  ``Points`` is a
read-only sequence of ``Point`` over a complex array, and a ``Triangle``
a view over its one-triangle ``Tri`` that builds Points when read.

numpy is imported only where arrays are made or read (``is_array``
tells them apart), so one triangle never loads it.

Every conic is a ``Conic``: the six coefficients of

    A x^2 + 2B xy + C y^2 + 2D x + 2E y + F = 0

in coordinates relative to an anchor point.  Circumconics are closed
forms: a symmetric barycentric matrix mapped through the sidelines
(``circumconic_of``).  An inconic with a prescribed center is obtained
in the dual plane and mapped back through the adjugate.  Center,
semi-axes, axis angle and hyperbola focal length are read off the six
coefficients (``ellipse_axes``, ``focal_length``).
"""

from __future__ import annotations

import cmath
import math
import sys
from collections.abc import Sequence
from dataclasses import FrozenInstanceError, dataclass
from enum import Enum
from functools import reduce

from .errors import (
    DegenerateConic,
    DegenerateTriangle,
    NoRealConic,
    NotAnEllipse,
    PointAtInfinity,
    SingularSystem,
)

# Pivot-ratio threshold for declaring a linear system singular.
CONDITION_LIMIT = 1e12
# Spacing of doubles at 1.
EPS = sys.float_info.epsilon
# Triangle degeneracy: area >= AREA_TOL * (longest side)^2.
AREA_TOL = 1e-12
# Tangency verification for inconics (scaled discriminant).
TANGENCY_TOL = 1e-9
# Cosine dead band separating acute / right / obtuse.
RIGHT_DEADBAND = 1e-12


@dataclass(frozen=True, slots=True, init=False)
class Point:
    x: float
    y: float

    def __init__(self, x: float, y: float):
        x, y = float(x), float(y)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"non-finite point ({x}, {y})")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

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


class ArrayView(Sequence):
    """Read-only sequence over an array's first axis, items built by ``item`` on access.

    ``item`` gets an entry's ``tolist()``: a number, or a row's list.
    ``array`` is a read-only view of the array, for code that works on
    all items at once.  A view equals a view of the same items, or a
    list or tuple of them; its repr lists the items exactly.
    """

    __slots__ = ("array", "item")

    def __init__(self, array, item):
        import numpy as np

        self.array = np.asarray(array).view()
        self.array.flags.writeable = False
        self.item = item

    def __len__(self) -> int:
        return len(self.array)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(self.item, self.array[i].tolist()))
        return self.item(self.array[i].tolist())

    def __iter__(self):
        return map(self.item, self.array.tolist())

    def __eq__(self, other):
        if isinstance(other, ArrayView):
            import numpy as np

            return self.item == other.item and np.array_equal(self.array, other.array)
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"


class Points(ArrayView):
    """Points over a 1-D complex array z, ``Point(z.real, z.imag)`` for each entry."""

    __slots__ = ()

    def __init__(self, z):
        import numpy as np

        z = np.asarray(z, dtype=complex)
        bad = np.flatnonzero(~np.isfinite(z))
        if bad.size:
            w = complex(z[bad[0]])
            raise ValueError(f"non-finite point ({w.real}, {w.imag})")
        super().__init__(z, Point.from_complex)

    @classmethod
    def of(cls, samples) -> "Points":
        """``samples`` if it is Points, else the Points of its Points or (x, y) pairs."""
        if isinstance(samples, Points):
            return samples
        return cls([(p if isinstance(p, Point) else Point(p[0], p[1])).z for p in samples])


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
    import numpy as np

    return np.hypot(d.real, d.imag)


def is_array(x) -> bool:
    """Whether x is a numpy array, asked without importing numpy: before that, no array exists."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(x, np.ndarray)


def where(cond, a, b):
    """``np.where`` for an array condition; a plain choice for one bool."""
    if is_array(cond):
        import numpy as np

        return np.where(cond, a, b)
    return a if cond else b


class _Scalars:
    """``math`` and builtins under numpy's names, nan-propagating like numpy."""

    sqrt, cos, sin, copysign, arctan2 = math.sqrt, math.cos, math.sin, math.copysign, math.atan2

    @staticmethod
    def maximum(a, b):
        return a if a >= b or a != a else b

    @staticmethod
    def minimum(a, b):
        return a if a <= b or a != a else b

    @staticmethod
    def sign(x):
        return float((x > 0.0) - (x < 0.0)) if x == x else x


_SCALARS = _Scalars()


def ufuncs(*xs):
    """numpy if any argument is an array, else ``_SCALARS``.

    Formulas shared by one triangle and a stack call their functions
    through this, so one triangle computes in plain Python floats and
    never makes a numpy scalar.  ``math.sqrt`` raises on a negative
    number where ``np.sqrt`` returns nan, so each call sits behind the
    check that refuses such an input.
    """
    for x in xs:
        if is_array(x):
            import numpy as np

            return np
    return _SCALARS


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
        import numpy as np

        self.code = np.full(n, -1, dtype=np.intp)
        self.failures: list[tuple[type, str]] = []

    @property
    def valid(self):
        return self.code < 0

    def check(self, failed, exc, message: str) -> None:
        new = failed & (self.code < 0)
        if new.any():
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

    def skipped(self, t) -> list[tuple[float, str]]:
        """(t[i], exception type name) of each failed sample i, for the samples' parameters t."""
        return [(float(t[i]), self.reason(i)) for i in (self.code >= 0).nonzero()[0]]

    def raise_first(self) -> None:
        """Raise the failure of the first failed sample, if any."""
        bad = (self.code >= 0).nonzero()[0]
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
        import numpy as np

        z = np.array([t.tri.vertices for t in triangles])
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
        minimum = ufuncs(ca).minimum
        cmin = minimum(minimum(ca, cb), cc)
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

    def sidelines(self, g):
        """Sidelines opposite p1, p2, p3 as (a, b, c): a x + b y + c = 0, (x, y) relative to g.

        At a point the three values are its barycentrics times twice the
        signed area.
        """
        q1, q2, q3 = self.p1 - g, self.p2 - g, self.p3 - g
        lines = []
        for qj, qk in ((q2, q3), (q3, q1), (q1, q2)):
            d = qk - qj
            lines.append((-d.imag, d.real, cross(qj, qk)))
        return lines


class ConicClass(Enum):
    ELLIPSE = "ellipse"
    HYPERBOLA = "hyperbola"
    PARABOLA = "parabola"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class Conic:
    """``A x^2 + 2B xy + C y^2 + 2D x + 2E y + F = 0``, (x, y) relative to ``anchor``.

    Circumconics are anchored at the first vertex of their triangle and
    inconics at their prescribed center, so rounding does not grow with
    the distance from the origin.  Each field is a number for one conic
    or an array for a stack.
    """

    A: float
    B: float
    C: float
    D: float
    E: float
    F: float
    anchor: complex = 0j

    @property
    def coeffs(self) -> tuple:
        return (self.A, self.B, self.C, self.D, self.E, self.F)

    def coeff_norm(self) -> float:
        """Euclidean norm of the polynomial's coefficients (A, 2B, C, 2D, 2E, F)."""
        A, B, C, D, E, F = self.coeffs
        return math.sqrt(A * A + 4 * B * B + C * C + 4 * D * D + 4 * E * E + F * F)

    def gradient(self, p: Point) -> Point:
        x, y = p.x - self.anchor.real, p.y - self.anchor.imag
        return Point(
            2 * (self.A * x + self.B * y + self.D),
            2 * (self.B * x + self.C * y + self.E),
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


class Triangle:
    """Triangle with Point vertices, a view over its one-triangle ``tri``.

    Frozen, and equal, hashed and printed by its vertices.  ``from_tri``
    builds the Point vertices only when they are read.
    """

    __slots__ = ("tri", "_vertices")

    def __init__(self, p1: Point, p2: Point, p3: Point):
        self._bind(Tri(p1.z, p2.z, p3.z), (p1, p2, p3))

    def _bind(self, v: Tri, vertices) -> None:
        object.__setattr__(self, "tri", v)
        object.__setattr__(self, "_vertices", vertices)
        if v.thin():
            raise DegenerateTriangle(f"area {v.area:.3e} below tolerance")

    def __setattr__(self, name, *value):
        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.vertices == other.vertices
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        return "Triangle(p1={!r}, p2={!r}, p3={!r})".format(*self.vertices)

    def __reduce__(self):
        return type(self), self.vertices

    @classmethod
    def from_coords(cls, coords) -> "Triangle":
        (x1, y1), (x2, y2), (x3, y3) = coords
        return cls(Point(x1, y1), Point(x2, y2), Point(x3, y3))

    @classmethod
    def from_tri(cls, v: Tri) -> "Triangle":
        """Triangle of a one-triangle Tri, kept as its ``tri`` (the same bits)."""
        if not all(map(cmath.isfinite, v.vertices)):
            list(map(Point.from_complex, v.vertices))  # raises Point's ValueError
        t = cls.__new__(cls)
        t._bind(v, None)
        return t

    @property
    def vertices(self) -> tuple[Point, Point, Point]:
        if self._vertices is None:
            object.__setattr__(self, "_vertices", tuple(map(Point.from_complex, self.tri.vertices)))
        return self._vertices

    p1 = property(lambda self: self.vertices[0])
    p2 = property(lambda self: self.vertices[1])
    p3 = property(lambda self: self.vertices[2])

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


def conic_eval(conic: Conic, p: Point) -> float:
    """Value of A x^2 + 2B xy + C y^2 + 2D x + 2E y + F at p."""
    A, B, C, D, E, F = conic.coeffs
    x, y = p.x - conic.anchor.real, p.y - conic.anchor.imag
    return A * x * x + 2 * B * x * y + C * y * y + 2 * D * x + 2 * E * y + F


def largest(*xs):
    """Elementwise maximum of numbers or arrays (nan if any is nan)."""
    return reduce(ufuncs(*xs).maximum, xs)


def circumconic_of(v: Tri, perspector) -> Conic:
    """Circumconic ``u1 yz + u2 zx + u3 xy = 0`` of perspector (u1 : u2 : u3), anchored at p1.

    ``Q = L^T M L`` for the barycentric matrix ``M = [[0, u3, u2], [u3, 0, u1],
    [u2, u1, 0]]`` and the sidelines ``L`` about p1, written out.  With
    q_k = p_k - p1 = x_k + i y_k the sidelines are (y2 - y3, x3 - x2, q2 x q3),
    (y3, -x3, 0) and (-y2, x2, 0): the two through p1 have no constant
    term, so D and E keep one product each and F, the value at p1, is a
    zero.  F keeps the sign of the generic product (``cb`` prints it),
    taken from the signed zeros of those two cross products.  Equal bit
    for bit to the generic form (``tests/oracles.circumconic_generic``)
    on every triangle of nonzero area, up to the sign of a D or E that
    underflows to zero.  Works on numbers and arrays alike.
    """
    u1, u2, u3 = perspector
    q2, q3 = v.p2 - v.p1, v.p3 - v.p1
    a1, b1, c1 = q2.imag - q3.imag, q3.real - q2.real, cross(q2, q3)
    a2, b2, a3, b3 = q3.imag, -q3.real, -q2.imag, q2.real
    c2, c3 = cross(q3, 0j), cross(0j, q2)
    return Conic(
        u1 * (2 * (a2 * a3)) + u2 * (2 * (a3 * a1)) + u3 * (2 * (a1 * a2)),
        u1 * (a2 * b3 + a3 * b2) + u2 * (a3 * b1 + a1 * b3) + u3 * (a1 * b2 + a2 * b1),
        u1 * (2 * (b2 * b3)) + u2 * (2 * (b3 * b1)) + u3 * (2 * (b1 * b2)),
        u2 * (a3 * c1) + u3 * (a2 * c1),
        u2 * (b3 * c1) + u3 * (b2 * c1),
        u1 * (c2 * c3) + u2 * (c3 * c1) + u3 * (c1 * c2),
        v.p1,
    )


def solve_circumconic(t: Triangle, center: Point) -> Conic:
    """Conic through the three vertices centered at ``center``, in closed form.

    For center barycentrics (α : β : γ) the perspector is
    (α(β+γ−α) : β(γ+α−β) : γ(α+β−γ)).  A center on a sideline or on a
    sideline of the medial triangle has no such conic (SingularSystem).
    """
    v = t.tri
    x, y = center.x - v.p1.real, center.y - v.p1.imag
    al, be, ga = (a * x + b * y + c for a, b, c in v.sidelines(v.p1))
    perspector = (al * (be + ga - al), be * (ga + al - be), ga * (al + be - ga))
    sizes = [abs(u) for u in perspector]
    if min(sizes) <= max(sizes) / CONDITION_LIMIT:
        raise SingularSystem("circumconic degenerates for this center")
    return circumconic_of(v, perspector)


def determinants(q: Conic):
    """det = A C - B^2, its dead band 1e-12 (B^2 + |A C|), and the 3x3 determinant det3.

    Ellipses have det > band, hyperbolae det < -band, line pairs det3 = 0.  Numbers or arrays.
    """
    A, B, C, D, E, F = q.coeffs
    det = A * C - B * B
    det3 = D * (B * E - C * D) + E * (B * D - A * E) + F * det
    return det, 1e-12 * (B * B + abs(A * C)), det3


def classify_conic(conic: Conic) -> ConicClass:
    """Ellipse / hyperbola / parabola via the sign of A C - B^2.

    The coefficients are first divided by the power of two that brings
    the largest below 1: exact, so the class is that of the conic as
    given, and neither the cube of the scale nor det3 overflows.
    """
    A, B, C, D, E, F = conic.coeffs
    scale, exponent = math.frexp(max(abs(A), abs(2 * B), abs(C), abs(2 * D), abs(2 * E), abs(F)))
    det, band, det3 = determinants(Conic(*(math.ldexp(x, -exponent) for x in conic.coeffs)))
    if abs(det3) <= 1e-12 * scale**3:
        return ConicClass.DEGENERATE
    if det > band:
        return ConicClass.ELLIPSE
    if det < -band:
        return ConicClass.HYPERBOLA
    return ConicClass.PARABOLA


def _center_and_level(q: Conic, det):
    """Center relative to the anchor, and the level K, given det = A C - B^2 != 0.

    About its center the conic reads ``A u^2 + 2B uv + C v^2 = K``.
    """
    A, B, C, D, E, F = q.coeffs
    cx, cy = (B * E - C * D) / det, (B * D - A * E) / det
    return cx, cy, -(F + D * cx + E * cy)


def ellipse_axes(q: Conic, guard):
    """Center (complex, absolute), semi-axes and major-axis angle of an elliptical conic.

    Read off the six coefficients: the eigenvalues of [[A, B], [B, C]]
    are m +- r, and the semi-axes are sqrt(K / eigenvalue).  The angle
    lies in [0, pi); circle-degenerate ellipses report 0.  Numbers or
    arrays; ``guard`` is RAISE or a Skips.
    """
    A, B, C = q.A, q.B, q.C
    det, band, _ = determinants(q)
    guard.check(det <= band, NotAnEllipse, "conic does not classify as an ellipse")
    cx, cy, K = _center_and_level(q, det)
    m = 0.5 * (A + C)
    sign = m / abs(m)
    K = K * sign
    guard.check(K <= 0.0, NotAnEllipse, "conic has no real points")
    f = ufuncs(K)
    r = f.sqrt(0.25 * (A - C) ** 2 + B * B)
    big = abs(m) + r
    semi_minor = f.sqrt(K / big)
    semi_major = semi_minor * f.sqrt(f.maximum(big * big / det, 1.0))
    angle = (0.5 * f.arctan2(-2.0 * B * sign, (C - A) * sign)) % math.pi
    angle = angle * ((2.0 * r >= 1e-12 * big) & (math.pi - angle >= 1e-12))
    return q.anchor + (cx + 1j * cy), semi_major, semi_minor, angle


def conic_to_ellipse_params(conic: Conic) -> EllipseParams:
    """Canonical center / semi-axes / axis direction of an elliptical conic."""
    center, major, minor, angle = ellipse_axes(conic, RAISE)
    return EllipseParams(Point.from_complex(center), float(major), float(minor), float(angle))


def conic_center(conic: Conic) -> Point:
    """Center of a central conic (ellipse or hyperbola)."""
    det, band, _ = determinants(conic)
    if abs(det) <= band:
        raise PointAtInfinity("a parabolic conic has no center")
    cx, cy, _ = _center_and_level(conic, det)
    return Point.from_complex(conic.anchor + (cx + 1j * cy))


def focal_length(q: Conic, guard=RAISE):
    """Length 2a of the transverse axis of a hyperbola.

    ``a^2 = |K| / |l|`` for the eigenvalue l of [[A, B], [B, C]] with the
    sign of K, from the same read-off as ``ellipse_axes``: |l| = r + s m
    for s the sign of K.  Where s m < 0 that cancels, and |l| is taken as
    -det over the other eigenvalue's magnitude r + |m|.  For the
    rectangular xy-hyperbolae of ``conic_invariants`` (m = 0) this is
    ``2 sqrt(2 |k|)`` for the recentred form x y = k.
    """
    A, B, C = q.A, q.B, q.C
    det, band, _ = determinants(q)
    guard.check(det >= -band, DegenerateConic, "conic does not classify as a hyperbola")
    _, _, K = _center_and_level(q, det)
    f = ufuncs(K)
    m = 0.5 * (A + C)
    big = f.sqrt(0.25 * (A - C) ** 2 + B * B) + abs(m)
    return 2.0 * f.sqrt(abs(K) / where(m * f.sign(K) >= 0.0, big, -det / big))


def unresolved(q: Conic):
    """Whether rounding may move the semi-axes (or focal length) of q by over 1e-9 relative.

    First-order bound for coefficients each off by one unit in the last
    place of the largest, as a null-vector solve leaves them: the
    |cofactors| of ``[[A, B, D], [B, C, E], [D, E, F]]`` bound the change
    of its determinant det3 = -det K, |A| + |C| + 2|B| that of det, and
    the semi-axes go with sqrt(K / eigenvalue).  Numbers or arrays.
    """
    A, B, C, D, E, F = q.coeffs
    det, _, det3 = determinants(q)
    cofactors = (abs(C * F - E * E) + abs(A * F - D * D) + abs(det)
                 + 2 * (abs(D * E - B * F) + abs(B * E - C * D) + abs(B * D - A * E)))
    ulp = EPS * largest(*(abs(x) for x in q.coeffs))
    # ulp (cofactors / |det3| + 2 (|A| + |C| + 2|B|) / |det|) / 2 > 1e-9, multiplied out
    return (0.5 * ulp * (cofactors * abs(det) + 2 * (abs(A) + abs(C) + 2 * abs(B)) * abs(det3))
            >= 1e-9 * abs(det3 * det))


def ellipse_to_conic(params: EllipseParams) -> Conic:
    """An ellipse given by its canonical parameters, anchored at its center."""
    A, B = params.semi_major, params.semi_minor
    ca, sa = math.cos(params.axis_angle), math.sin(params.axis_angle)
    qxx = ca * ca / (A * A) + sa * sa / (B * B)
    qyy = sa * sa / (A * A) + ca * ca / (B * B)
    qxy = ca * sa * (1.0 / (A * A) - 1.0 / (B * B))
    return Conic(qxx, qxy, qyy, 0.0, 0.0, -1.0, params.center.z)


def line_conic_tangency_residual(conic: Conic, p: Point, q: Point) -> float:
    """Scaled discriminant of the conic restricted to line pq (0 = tangent)."""
    A, B, C, D, E, _ = conic.coeffs
    dx, dy = q.x - p.x, q.y - p.y
    x, y = p.x - conic.anchor.real, p.y - conic.anchor.imag
    qa = A * dx * dx + 2 * B * dx * dy + C * dy * dy
    qb = 2 * (A * x * dx + B * (x * dy + y * dx) + C * y * dy + D * dx + E * dy)
    qc = conic_eval(conic, p)
    disc = qb * qb - 4.0 * qa * qc
    return abs(disc) / (abs(qa) + abs(qb) + abs(qc)) ** 2


def solve_inconic(t: Triangle, center: Point) -> Conic:
    """Conic tangent to the three sidelines with the prescribed center.

    Works in the dual plane: the dual conic matrix must be incident with
    each sideline (three linear conditions) and must map the line at
    infinity to the homogeneous center (two conditions).  The resulting
    homogeneous 5x6 system is solved by SVD; the conic is the adjugate
    of the dual.  It is anchored at the prescribed center, which keeps
    its coefficients and checks independent of where the triangle sits.
    Tangency of all three sidelines is verified before returning.
    """
    import numpy as np

    rows = []
    for u, v, w in t.tri.sidelines(center.z):
        rows.append([u * u, 2 * u * v, 2 * u * w, v * v, 2 * v * w, w * w])
    # (d13, d23, d33) proportional to the center, (0, 0, 1) about itself
    rows.append([0.0, 0.0, 0.0, 0.0, 1.0, 0.0])
    rows.append([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    M = np.array(rows, dtype=float)
    _, sv, Vt = np.linalg.svd(M)
    if sv[0] == 0.0 or sv[3] < sv[0] / CONDITION_LIMIT:
        raise SingularSystem("dual inconic system is rank deficient")
    d = Vt[-1]
    D = np.array([[d[0], d[1], d[2]], [d[1], d[3], d[4]], [d[2], d[4], d[5]]])
    (a, b, dd), (_, c, e), (_, _, f) = _adjugate(D).tolist()
    conic = Conic(a, b, c, dd, e, f, center.z)
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
    if grad.norm() > TANGENCY_TOL * conic.coeff_norm():
        raise NoRealConic("constructed conic is not centered at the requested point")
    if unresolved(conic):
        raise DegenerateConic("inconic axes not resolved to 1e-9")
    return conic


def _adjugate(m):
    import numpy as np

    out = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            minor = np.delete(np.delete(m, j, axis=0), i, axis=1)
            out[i, j] = ((-1) ** (i + j)) * (
                minor[0, 0] * minor[1, 1] - minor[0, 1] * minor[1, 0]
            )
    return out
