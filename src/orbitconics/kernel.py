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

in coordinates relative to an anchor point; ``conic_form`` evaluates it
at numbers or arrays of coordinates.  Circumconics are closed
forms: a symmetric barycentric matrix mapped through the sidelines
(``circumconic_of``).  An inconic with a prescribed center is solved on
``Tri`` in closed form in the dual plane, behind one rounding bound (``inconic_of``).
Center, semi-axes, axis angle and hyperbola focal length are read off
the six coefficients (``ellipse_axes``, ``focal_length``), except for
the circumbilliard, whose invariants are known: ``circumbilliard_axes``
builds it from its triangle alone, reads it off in closed form and
shares only the half-gap and angle lines (``larger_eigenvalue_and_angle``).
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import FrozenInstanceError, dataclass
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
# Cosine dead band separating acute / right / obtuse.
RIGHT_DEADBAND = 1e-12


@dataclass(frozen=True, slots=True, init=False)
class Point:
    x: float
    y: float

    def __init__(self, x: float, y: float):
        if type(x) is not float or type(y) is not float:
            x, y = float(x), float(y)
        if not x - x == 0.0 == y - y:  # nan for nan and +-inf
            raise ValueError(f"non-finite point ({x}, {y})")
        _set_x(self, x)
        _set_y(self, y)

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


_set_x, _set_y = Point.x.__set__, Point.y.__set__  # the slots' setters, past the frozen __setattr__


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


def lengths(u, v, w):
    """(|u|, |v|, |w|) through libm hypot, bit for bit alike for complex numbers and arrays.

    (numpy's complex ``abs`` and ``math.hypot`` each round differently.)
    """
    if type(u) is type(v) is type(w) is complex:
        try:
            return abs(u), abs(v), abs(w)
        except OverflowError:  # a length past the float range, which np.hypot reads as inf
            return tuple(math.hypot(d.real, d.imag) for d in (u, v, w))
    import numpy as np

    return tuple(abs(d) if type(d) is complex else np.hypot(d.real, d.imag) for d in (u, v, w))


def complex_of(x, y):
    """x + iy, both parts kept bit for bit (signed zeros too); y a number or broadcast to x's shape."""
    if type(x) in _NUMBERS or not is_array(x):
        return complex(x, y)
    import numpy as np

    z = np.empty(x.shape, complex)
    z.real, z.imag = x, y
    return z


#: Types ``is_array`` answers at once; its hottest callers test them first and skip the call.
_NUMBERS = frozenset((bool, int, float, complex))


def is_array(x) -> bool:
    """Whether x is a numpy array: a Python number by its type, else without importing numpy."""
    if type(x) in _NUMBERS:
        return False
    np = sys.modules.get("numpy")
    return np is not None and isinstance(x, np.ndarray)


def nonfinite(x):
    """Whether x is nan or infinite; numbers or arrays."""
    return (x != x) | (abs(x) == math.inf)


def where(cond, a, b):
    """``np.where`` for an array condition; a plain choice for one bool."""
    if type(cond) in _NUMBERS or not is_array(cond):
        return a if cond else b
    import numpy as np

    return np.where(cond, a, b)


class _Scalars:
    """``math`` and builtins under numpy's names, nan-propagating like numpy."""

    sqrt, cos, sin, copysign, arctan2 = math.sqrt, math.cos, math.sin, math.copysign, math.atan2

    def maximum(self, a, b):
        return a if a >= b or a != a else b

    def minimum(self, a, b):
        return a if a <= b or a != a else b

    def sign(self, x):
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
        if type(x) not in _NUMBERS and is_array(x):
            import numpy as np

            return np
    return _SCALARS


class Raise:
    """Failure policy of the scalar API: the first failed check raises."""

    def check(self, failed, exc, message: str) -> None:
        if failed:
            raise exc(message)


RAISE = Raise()


def perp_foot(p, q, r, guard=RAISE):
    """Foot of the perpendicular from p to the line qr (complex numbers or arrays).

    A qr whose squared length underflows to 0, as a side of a triangle whose nan area passes
    ``Tri.thin`` can, is refused before dividing (ValueError), as its stacked row would be.
    """
    d = r - q
    dd = dot(d, d)
    guard.check(dd == 0.0, ValueError, "non-finite derived triangle")
    return q + (dot(p - q, d) / dd) * d


class Skips:
    """Failure policy of the batched kernel: a validity mask plus a reason per sample.

    ``check`` records, for every sample still valid where ``failed`` holds,
    the exception the scalar API would raise there; later checks do not
    overwrite it, so each sample keeps its first failure, as a raise would.
    A check where no sample fails returns after that one test.
    """

    def __init__(self, n: int):
        import numpy as np

        self.code = np.full(n, -1, dtype=np.intp)
        self.failures: list[tuple[type, str]] = []

    @property
    def valid(self):
        return self.code < 0

    def check(self, failed, exc, message: str) -> None:
        import numpy as np

        if not np.count_nonzero(failed):
            return
        new = failed & (self.code < 0)
        if new.any():
            self.code[new] = len(self.failures)
            self.failures.append((exc, message))

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

    def kept(self, minimum: int):
        """The validity mask; else the first failure (or ValueError) if fewer than minimum."""
        keep = self.valid
        if keep.sum() < minimum:
            self.raise_first()
            raise ValueError(f"need at least {minimum} samples")
        return keep


class Tri:
    """Triangle with complex vertices: numbers for one, arrays for a stack.

    Side s1 = |p2 p3| is opposite p1, etc.  Formulas on Tri give the same
    bits for a number as for an array element: they add, subtract and
    scale complex values by reals, but never multiply two complex values
    or divide a complex value by a real, which numpy rounds differently
    from Python.  One exception is known: an ellipse's axis angle, where
    ``math.atan2`` and ``np.arctan2`` can differ in the last bit.
    """

    __slots__ = ("p1", "p2", "p3", "s1", "s2", "s3", "area")

    def __init__(self, p1, p2, p3):
        self.p1, self.p2, self.p3 = p1, p2, p3
        b, c = p2 - p1, p3 - p1
        # |p1 - p2| is |b| to the bit: negation is exact and hypot reads magnitudes
        self.s1, self.s2, self.s3 = lengths(p2 - p3, c, b)
        self.area = 0.5 * abs(b.real * c.imag - b.imag * c.real)  # cross(b, c)

    @property
    def vertices(self):
        return (self.p1, self.p2, self.p3)

    def cosines(self):
        """Cosine of the angle at each vertex, from the dot product of its two edges."""
        p1, p2, p3 = self.vertices
        return (
            dot(p2 - p1, p3 - p1) / (self.s3 * self.s2),
            dot(p3 - p2, p1 - p2) / (self.s1 * self.s3),
            dot(p1 - p3, p2 - p3) / (self.s2 * self.s1),
        )

    def shape_code(self):
        """0 acute, 1 right (within RIGHT_DEADBAND), 2 obtuse, from the smallest cosine."""
        ca, cb, cc = self.cosines()
        minimum = ufuncs(ca).minimum
        cmin = minimum(minimum(ca, cb), cc)
        return 1 * (cmin <= RIGHT_DEADBAND) + 1 * (cmin < -RIGHT_DEADBAND)

    def perimeter(self):
        return self.s1 + self.s2 + self.s3

    def nonfinite(self):
        """Whether a vertex is nan or infinite, read off the perimeter (numbers or arrays)."""
        return nonfinite(self.s1 + self.s2 + self.s3)

    def inradius(self):
        return self.area / (0.5 * self.perimeter())

    def circumradius(self):
        return self.s1 * self.s2 * self.s3 / (4 * self.area)

    def thin(self):
        """Area below AREA_TOL times the square of the longest side, or 0, or two vertices equal."""
        s1, s2, s3, area = self.s1, self.s2, self.s3, self.area
        # area <= 0 catches a zero area whose squares underflow too (sides near 1e-170), s == 0 two
        # equal vertices of nan area (0 times an edge that overflows); any other nan area passes
        return ((area < AREA_TOL * s1 * s1) | (area < AREA_TOL * s2 * s2) | (area < AREA_TOL * s3 * s3)
                | (area <= 0.0) | (s1 == 0.0) | (s2 == 0.0) | (s3 == 0.0))

    def sidelines(self, g):
        """Sidelines opposite p1, p2, p3 as (a, b, c): a x + b y + c = 0, (x, y) relative to g.

        At a point the three values are its barycentrics times twice the
        signed area.
        """
        q1, q2, q3 = self.p1 - g, self.p2 - g, self.p3 - g
        d1, d2, d3 = q3 - q2, q1 - q3, q2 - q1
        return ((-d1.imag, d1.real, cross(q2, q3)), (-d2.imag, d2.real, cross(q3, q1)),
                (-d3.imag, d3.real, cross(q1, q2)))


@dataclass(frozen=True, init=False)
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

    def __init__(self, A, B, C, D, E, F, anchor=0j):
        # item stores into the frozen instance's dict: no call per field, no keyword dict
        d = self.__dict__
        d["A"], d["B"], d["C"], d["D"], d["E"], d["F"], d["anchor"] = A, B, C, D, E, F, anchor

    @property
    def coeffs(self) -> tuple:
        return (self.A, self.B, self.C, self.D, self.E, self.F)


@dataclass(frozen=True, init=False)
class EllipseParams:
    """Center, semi-axis lengths and major-axis direction of an ellipse.

    ``axis_angle`` is normalized to [0, pi); circle-degenerate ellipses
    report axis_angle = 0 by convention.
    """

    center: Point
    semi_major: float
    semi_minor: float
    axis_angle: float

    def __init__(self, center, semi_major, semi_minor, axis_angle):
        if not (semi_major >= semi_minor > 0.0):
            raise ValueError(f"require semi_major >= semi_minor > 0, got ({semi_major}, {semi_minor})")
        d = self.__dict__
        d["center"], d["semi_major"], d["semi_minor"], d["axis_angle"] = (center, semi_major,
                                                                          semi_minor, axis_angle)

    @property
    def aspect(self) -> float:
        return self.semi_major / self.semi_minor


class Triangle:
    """Triangle with Point vertices, a view over its one-triangle ``tri``.

    Frozen, and equal, hashed and printed by its vertices.  ``from_tri``
    builds the Point vertices only when they are read.
    """

    __slots__ = ("tri", "_vertices")

    def __init__(self, p1: Point, p2: Point, p3: Point):
        self._bind(Tri(p1.z, p2.z, p3.z), (p1, p2, p3))

    def _bind(self, v: Tri, vertices) -> None:
        _set_tri(self, v)
        _set_vertices(self, vertices)
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
        if v.nonfinite():
            list(map(Point.from_complex, v.vertices))  # raises Point's ValueError
        t = cls.__new__(cls)
        t._bind(v, None)
        return t

    @property
    def vertices(self) -> tuple[Point, Point, Point]:
        if self._vertices is None:
            _set_vertices(self, tuple(map(Point.from_complex, self.tri.vertices)))
        return self._vertices

    p1 = property(lambda self: self.vertices[0])
    p2 = property(lambda self: self.vertices[1])
    p3 = property(lambda self: self.vertices[2])

    def sidelengths(self) -> tuple[float, float, float]:
        """(s1, s2, s3) with s1 = |p2 p3| opposite p1, etc."""
        return (self.tri.s1, self.tri.s2, self.tri.s3)

    def area(self) -> float:
        return self.tri.area

    def perimeter(self) -> float:
        return self.tri.perimeter()

    def cosines(self) -> tuple[float, float, float]:
        """Cosine of the angle at each vertex, from the dot product of its two edges."""
        return self.tri.cosines()

    def inradius(self) -> float:
        return self.tri.inradius()

    def circumradius(self) -> float:
        return self.tri.circumradius()

    def scale(self) -> float:
        return max(self.sidelengths())


_set_tri, _set_vertices = Triangle.tri.__set__, Triangle._vertices.__set__


def conic_form(q: Conic, x, y):
    """Value of A x^2 + 2B xy + C y^2 + 2D x + 2E y + F at the point (x, y); numbers or arrays."""
    A, B, C, D, E, F = q.coeffs
    x, y = x - q.anchor.real, y - q.anchor.imag
    return A * x * x + 2 * B * x * y + C * y * y + 2 * D * x + 2 * E * y + F


def conic_eval(conic: Conic, p: Point) -> float:
    """Value of A x^2 + 2B xy + C y^2 + 2D x + 2E y + F at p."""
    return conic_form(conic, p.x, p.y)


def largest(*xs):
    """Elementwise maximum of numbers or arrays (nan if any is nan)."""
    return reduce(ufuncs(*xs).maximum, xs)


def circumconic_of(v: Tri, perspector) -> Conic:
    """Circumconic ``u1 yz + u2 zx + u3 xy = 0`` of perspector (u1 : u2 : u3), anchored at p1.

    ``Q = L^T M L`` for the barycentric matrix ``M = [[0, u3, u2], [u3, 0, u1],
    [u2, u1, 0]]`` and the sidelines ``L = Tri.sidelines(p1)``, written out.
    The two sidelines through p1 have a signed zero for their constant
    term, so D and E keep one product each and F, the value at p1, is a
    zero.  F keeps the sign of the generic product (``cb`` prints it),
    taken from the signs of those two zeros.  Equal bit
    for bit to the generic form (``tests/oracles.circumconic_generic``)
    on every triangle of nonzero area, up to the sign of a D or E that
    underflows to zero.  Works on numbers and arrays alike.
    """
    u1, u2, u3 = perspector
    (a1, b1, c1), (a2, b2, c2), (a3, b3, c3) = v.sidelines(v.p1)
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
    """det = A C - B^2 and its dead band 1e-12 (B^2 + |A C|), numbers or arrays.

    Ellipses have det > band, hyperbolae det < -band.
    """
    ac, bb = q.A * q.C, q.B * q.B
    return ac - bb, 1e-12 * (bb + abs(ac))


def _center_and_level(q: Conic, det):
    """Center relative to the anchor, and the level K, given det = A C - B^2 != 0.

    About its center the conic reads ``A u^2 + 2B uv + C v^2 = K``.
    """
    A, B, C, D, E, F = q.A, q.B, q.C, q.D, q.E, q.F
    cx, cy = (B * E - C * D) / det, (B * D - A * E) / det
    return cx, cy, -(F + D * cx + E * cy)


def larger_eigenvalue_and_angle(q: Conic, sign, mid, k):
    """k times the larger eigenvalue magnitude of an ellipse's [[A, B], [B, C]], and its axis angle.

    ``sign`` is the sign of A + C and ``mid`` is k |A + C| / 2; the
    magnitude is mid plus the half-gap k sqrt(((A - C) / 2)^2 + B^2),
    scaled by k before it is squared.  The major axis lies along the
    other eigenvector, at an angle in [0, pi); a circle within 1e-12
    reports 0.  Numbers or arrays.
    """
    A, B, C = q.A, q.B, q.C
    h, b = (A - C) * k, B * k
    f = ufuncs(h)
    gap = f.sqrt(0.25 * (h * h) + b * b)
    big = mid + gap
    angle = (0.5 * f.arctan2(-2.0 * B * sign, (C - A) * sign)) % math.pi
    return big, angle * ((2.0 * gap >= 1e-12 * big) & (math.pi - angle >= 1e-12))


def ellipse_axes(q: Conic, guard):
    """Center (complex, absolute), semi-axes and major-axis angle of an elliptical conic.

    Read off the six coefficients: the eigenvalues of [[A, B], [B, C]]
    are m +- r, and the semi-axes are sqrt(K / eigenvalue).  The angle
    lies in [0, pi); circle-degenerate ellipses report 0.  A center or
    semi-axis beyond the float range is refused (ValueError).  Numbers or
    arrays; ``guard`` is RAISE or a Skips.
    """
    det, band = determinants(q)
    guard.check(det <= band, NotAnEllipse, "conic does not classify as an ellipse")
    cx, cy, K = _center_and_level(q, det)
    m = 0.5 * (q.A + q.C)
    sign = m / abs(m)
    K = K * sign
    guard.check(K <= 0.0, NotAnEllipse, "conic has no real points")
    f = ufuncs(K)
    big, angle = larger_eigenvalue_and_angle(q, sign, abs(m), 1.0)
    semi_minor = f.sqrt(K / big)
    semi_major = semi_minor * f.sqrt(f.maximum(big * big / det, 1.0))
    center = q.anchor + (cx + 1j * cy)
    # x * 0.0 is 0 for a finite x, nan for nan and +-inf; semi_major is semi_minor times a
    # factor >= 1, so it is non-finite when either is
    guard.check(nonfinite(center.real * 0.0 + center.imag * 0.0 + semi_major * 0.0), ValueError,
                "non-finite ellipse center or semi-axes")
    return center, semi_major, semi_minor, angle


def conic_to_ellipse_params(conic: Conic) -> EllipseParams:
    """Canonical center / semi-axes / axis direction of an elliptical conic."""
    center, major, minor, angle = ellipse_axes(conic, RAISE)
    return EllipseParams(Point(center.real, center.imag), float(major), float(minor), float(angle))


def conic_center(conic: Conic) -> Point:
    """Center of a central conic (ellipse or hyperbola)."""
    det, band = determinants(conic)
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
    ``2 sqrt(2 |k|)`` for the recentred form x y = k.  A length beyond the
    float range, or one whose center overflows on the way, is refused (ValueError).
    """
    A, B, C = q.A, q.B, q.C
    det, band = determinants(q)
    guard.check(det >= -band, DegenerateConic, "conic does not classify as a hyperbola")
    _, _, K = _center_and_level(q, det)
    f = ufuncs(K)
    m = 0.5 * (A + C)
    big = f.sqrt(0.25 * ((A - C) * (A - C)) + B * B) + abs(m)
    length = 2.0 * f.sqrt(abs(K) / where(m * f.sign(K) >= 0.0, big, -det / big))
    guard.check(nonfinite(length), ValueError, "non-finite focal length")
    return length


def inconic_of(v: Tri, center, guard) -> Conic:
    """Conic tangent to the three sidelines with the prescribed (complex) center, in closed form.

    About the center the dual is ``[[P, 0], [0, -1]]``: each sideline
    ``u x + v y + w = 0`` gives ``u^2 p11 + 2uv p12 + v^2 p22 = w^2``, the
    three are solved by Cramer's rule, and the conic is the adjugate
    ``Conic(p22, -p12, p11, 0, 0, -det P)`` anchored at the center, which
    D = E = 0 makes its center exactly.  A det P within its rounding bound
    (a center on or near a midline) is refused, and so is an ellipse whose
    minor semi-axis that bound leaves unresolved to 1e-9 of the major.
    Numbers or arrays; ``guard`` is RAISE or a Skips.
    """
    (u1, v1, w1), (u2, v2, w2), (u3, v3, w3) = v.sidelines(center)
    # rows j, k of (u^2, 2uv, v^2) have 2x2 minors with the factor x_i = u_j v_k - u_k v_j and the
    # determinant is -2 x1 x2 x3, so each term divides by the rest as e_i = w_i^2 / (x_j x_k); an x
    # is 0 where it underflows or the edges round to parallel about a far center
    x1, x2, x3 = u2 * v3 - u3 * v2, u3 * v1 - u1 * v3, u1 * v2 - u2 * v1
    guard.check((x1 == 0.0) | (x2 == 0.0) | (x3 == 0.0), SingularSystem,
                "dual inconic system is not finite")
    e1, e2, e3 = (w1 / x2) * (w1 / x3), (w2 / x3) * (w2 / x1), (w3 / x1) * (w3 / x2)
    p11 = -(e1 * (v2 * v3) + e2 * (v3 * v1) + e3 * (v1 * v2))
    p12 = 0.5 * (e1 * (u2 * v3 + u3 * v2) + e2 * (u3 * v1 + u1 * v3) + e3 * (u1 * v2 + u2 * v1))
    p22 = -(e1 * (u2 * u3) + e2 * (u3 * u1) + e3 * (u1 * u2))
    conic = Conic(p22, -p12, p11, 0.0, 0.0, -(p11 * p22 - p12 * p12), center)
    # F is nan or infinite when any p is, or when det P overflows (coordinates past about 1e77)
    guard.check(nonfinite(conic.F), SingularSystem, "dual inconic system is not finite")
    # First-order rounding of det P (Higham, ch. 3), in units of u = EPS / 2.  Per coordinate, q_k =
    # p_k - center carries u |q_k|, the edge (v_i, -u_i) = q_k - q_j u g_i for g_i = |q_j| + |q_k| +
    # |(v_i, u_i)|, x_i 4u G_i and w_i 4u (|qx_j qy_k| + |qy_j qx_k|).  So e_i carries twice w_i's
    # relative error, x_j's, x_k's and 3u, which det P = x^2 (2 sum e_i e_j - sum e_i^2) / 4 takes
    # times x^2 |e_j + e_k - e_i| / 2.  The edges' errors and the sums move each term of P by 7u of
    # its g bound, which det P takes times |p22|, |p11| or |p12|; det P itself rounds by 2u.
    # Term i of the sum pairs with (j, k) = (2, 3), (3, 1), (1, 2) for i = 1, 2, 3.
    p1, p2, p3, cx, cy = v.p1, v.p2, v.p3, center.real, center.imag
    qx1, qx2, qx3 = abs(p1.real - cx), abs(p2.real - cx), abs(p3.real - cx)
    qy1, qy2, qy3 = abs(p1.imag - cy), abs(p2.imag - cy), abs(p3.imag - cy)
    gx1, gx2, gx3 = qx2 + qx3 + abs(v1), qx3 + qx1 + abs(v2), qx1 + qx2 + abs(v3)
    gy1, gy2, gy3 = qy2 + qy3 + abs(u1), qy3 + qy1 + abs(u2), qy1 + qy2 + abs(u3)
    # G_i >= |u_j v_k| + |u_k v_j|
    G1, G2, G3 = gx2 * gy3 + gx3 * gy2, gx3 * gy1 + gx1 * gy3, gx1 * gy2 + gx2 * gy1
    ax1, ax2, ax3, aw1, aw2, aw3 = abs(x1), abs(x2), abs(x3), abs(w1), abs(w2), abs(w3)
    a, b, c = abs(p22), abs(p12), abs(p11)
    # |w_i| times e_i's relative error, over u
    rel1 = 8 * (qx2 * qy3 + qy2 * qx3) + aw1 * (4 * (G2 / ax2 + G3 / ax3) + 3)
    rel2 = 8 * (qx3 * qy1 + qy3 * qx1) + aw2 * (4 * (G3 / ax3 + G1 / ax1) + 3)
    rel3 = 8 * (qx1 * qy2 + qy1 * qx2) + aw3 * (4 * (G1 / ax1 + G2 / ax2) + 3)
    bound = (2 * (a * c + b * b)
             + 0.5 * aw1 * rel1 * abs(e1 - e2 - e3) + 7 * abs(e1) * (a * gx2 * gx3 + c * gy2 * gy3 + b * G1)
             + 0.5 * aw2 * rel2 * abs(e2 - e3 - e1) + 7 * abs(e2) * (a * gx3 * gx1 + c * gy3 * gy1 + b * G2)
             + 0.5 * aw3 * rel3 * abs(e3 - e1 - e2) + 7 * abs(e3) * (a * gx1 * gx2 + c * gy1 * gy2 + b * G3))
    delta, det = 0.5 * EPS * bound, -conic.F
    guard.check(abs(det) <= delta, NoRealConic, "inconic degenerates for this center")
    # the minor semi-axis sqrt(det P / lmax), lmax >= p11 and p22, moves by under delta / sqrt(lmax det P)
    f = ufuncs(det)
    guard.check((det > 0.0) & (delta > 1e-9 * f.maximum(p11, p22) * f.sqrt(abs(det))),
                DegenerateConic, "inconic axes not resolved to 1e-9")
    return conic


def solve_inconic(t: Triangle, center: Point) -> Conic:
    """The one-triangle ``inconic_of``: the conic tangent to t's sidelines centered at ``center``."""
    return inconic_of(t.tri, center.z, RAISE)
