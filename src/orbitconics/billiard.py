"""Elliptic billiard stage: triangle orbits, caustic, shape thresholds.

An orbit triangle with one vertex pinned at ``(a cos t, b sin t)`` is
built in closed form: the two orbit sides leaving the pinned vertex are
the tangent lines to the confocal caustic, and each meets the boundary
at one further point.  Closure of the third side (and the reflection
law at every vertex) then holds by the Poncelet porism and doubles as a
numerical correctness monitor in the tests.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING

from . import centers
from .errors import DegenerateTriangle, InvalidShape
from .kernel import Conic, EllipseParams, Point, Skips, Tri, Triangle, is_array, ufuncs, where

if TYPE_CHECKING:
    import numpy as np

#: Fewest samples a sweep or fit accepts.
MIN_SAMPLES = 8


class ShapeClass(Enum):
    ACUTE = "acute"
    RIGHT = "right"
    OBTUSE = "obtuse"


#: Shape classes by the code ``kernel.Tri.shape_code`` returns.
SHAPE_CLASSES = tuple(ShapeClass)


@dataclass(frozen=True)
class BilliardShape:
    """Billiard boundary (x/a)^2 + (y/b)^2 = 1 with finite a > b > 0.

    Its caustic must also have finite semi-axes with major >= minor > 0,
    which refuses shapes whose closed forms overflow, underflow or round
    the caustic away (a/b or the scale of a and b too far from 1).
    """

    a: float
    b: float

    def __post_init__(self):
        try:  # an infinite a gives nan axes
            major, minor = _caustic_axes(self) if self.a > self.b > 0.0 else (0.0, 0.0)
        except ArithmeticError:
            major = minor = 0.0
        if not (math.isfinite(major) and major >= minor > 0.0):
            raise InvalidShape(f"require finite a > b > 0 and a caustic with finite semi-axes "
                               f"major >= minor > 0, got a={self.a}, b={self.b}")

    @cached_property
    def delta(self) -> float:
        return math.sqrt(self.a**4 - self.a**2 * self.b**2 + self.b**4)

    @property
    def c2(self) -> float:
        """Squared half focal distance a^2 - b^2."""
        return self.a**2 - self.b**2

    @property
    def alpha(self) -> float:
        return self.a / self.b

    def boundary_point(self, t: float) -> Point:
        return Point(self.a * math.cos(t), self.b * math.sin(t))

    def boundary_value(self, p: Point) -> float:
        """(x/a)^2 + (y/b)^2 - 1; zero on the boundary."""
        return (p.x / self.a) ** 2 + (p.y / self.b) ** 2 - 1.0

    def conic(self) -> Conic:
        return Conic(1.0 / self.a**2, 0.0, 1.0 / self.b**2, 0.0, 0.0, -1.0)


@dataclass(frozen=True)
class OrbitSample:
    t: float
    triangle: Triangle
    shape_class: ShapeClass


@dataclass(frozen=True)
class Family:
    """A whole orbit family as struct-of-arrays.

    ``vertices`` is an ``(n, 3, 2)`` coordinate array, read as complex
    vertices through ``tri``; ``codes`` are the shape classes as indices
    into ``SHAPE_CLASSES``.
    """

    t: np.ndarray
    vertices: np.ndarray

    @cached_property
    def tri(self) -> Tri:
        z = self.vertices.view(complex)[..., 0]
        return Tri(z[:, 0], z[:, 1], z[:, 2])

    @cached_property
    def codes(self) -> np.ndarray:
        return self.tri.shape_code().astype("int8")


def sample_grid(n: int) -> np.ndarray:
    """n parameters uniform on the circle, offset by half a step."""
    import numpy as np

    return (np.arange(n) + 0.5) * (2.0 * math.pi / n)


def caustic(shape: BilliardShape) -> EllipseParams:
    """Confocal ellipse tangent to every orbit side.

    This is the family's stationary Mandart inellipse, centered on the
    stationary Mittenpunkt at the origin.
    """
    return EllipseParams(Point(0.0, 0.0), *_caustic_axes(shape), 0.0)


def _caustic_axes(shape: BilliardShape) -> tuple[float, float]:
    a, b, d, c2 = shape.a, shape.b, shape.delta, shape.c2
    return a * (d - b * b) / c2, b * (a * a - d) / c2


def classify_triangle(t: Triangle) -> ShapeClass:
    """Acute / right / obtuse from the sign of the largest-angle cosine."""
    return SHAPE_CLASSES[t.tri.shape_code()]


def _orbit_vertices(shape: BilliardShape, t):
    """Vertex coordinates (x1, y1, x2, y2, x3, y3) of the orbit at t.

    ``t`` is a number or an array (see ``kernel.ufuncs``).  The
    normals n of the two sides through p1 = (x, y) make them tangent to
    the caustic x^2/A + y^2/B = 1: n^T (diag(A, B) - p1 p1^T) n = 0.  That
    2x2 form factors in closed form as n ~ (r, A - x^2) and
    n ~ (B - y^2, r), with the root r taken so that it loses no digits.
    Each side then meets the boundary once more.
    """
    a2, b2 = shape.a**2, shape.b**2
    caus = caustic(shape)
    A, B = caus.semi_major**2, caus.semi_minor**2
    f = ufuncs(t)
    x, y = shape.a * f.cos(t), shape.b * f.sin(t)
    xy = x * y
    r = xy + f.copysign(f.sqrt(A * y * y + B * x * x - A * B), xy)
    partners = []
    # side directions (-n_y, n_x)
    for ux, uy in ((x * x - A, r), (-r, B - y * y)):
        k = -2.0 * (x * ux / a2 + y * uy / b2) / (ux * ux / a2 + uy * uy / b2)
        qx, qy = x + k * ux, y + k * uy
        forward = (f.arctan2(qy / shape.b, qx / shape.a) - t) % (2.0 * math.pi)
        partners.append((qx, qy, forward))
    (qx, qy, fq), (sx, sy, fs) = partners
    swap = fs < fq
    return (x, y, where(swap, sx, qx), where(swap, sy, qy), where(swap, qx, sx), where(swap, qy, sy))


def orbit(shape: BilliardShape, t):
    """Orbit triangle with first vertex at (a cos t, b sin t).

    The second vertex is the nearer bounce in increasing boundary
    parameter, the third the farther one, so the vertices wind
    counterclockwise for every t.  For a sequence or array of parameters
    the whole ``Family`` is built at once; it raises the failure of the
    first degenerate member.
    """
    if not isinstance(t, Sequence) and not (is_array(t) and t.ndim > 0):
        x1, y1, x2, y2, x3, y3 = _orbit_vertices(shape, t)
        tri = Triangle(Point(x1, y1), Point(x2, y2), Point(x3, y3))
        return OrbitSample(t, tri, classify_triangle(tri))
    import numpy as np

    t = np.asarray(t, dtype=float)
    coords = _orbit_vertices(shape, t)
    fam = Family(t, np.stack(coords, axis=-1).reshape(t.shape + (3, 2)))
    skips = Skips(t.size)
    skips.check(~np.isfinite(fam.vertices).all(axis=(-2, -1)), ValueError, "non-finite orbit vertex")
    skips.check(fam.tri.thin(), DegenerateTriangle, "orbit triangle area below tolerance")
    skips.raise_first()
    return fam


def classify_orbit(shape: BilliardShape, t: float) -> ShapeClass:
    return orbit(shape, t).shape_class


def obtuse_threshold() -> float:
    """Aspect ratio a/b above which the orbit family contains obtuse triangles."""
    return math.sqrt(2.0 * math.sqrt(2.0) - 1.0)


def equilateral_orthic_threshold() -> float:
    """Aspect ratio a/b whose upright isosceles orbit has an equilateral orthic.

    The only positive root of u^4 + 6 u^2 - 39.
    """
    return math.sqrt(4.0 * math.sqrt(3.0) - 3.0)


def right_angle_vertex(shape: BilliardShape) -> Point:
    """Boundary point in the first quadrant whose orbit is a right triangle.

    The four symmetric copies (+-x, +-y) bound the top and bottom
    boundary arcs on which a vertex makes the orbit obtuse.  Only exists
    for a/b above the obtuse threshold.
    """
    a2, b2, d = shape.a**2, shape.b**2, shape.delta
    rx = a2 * a2 + 3 * b2 * b2 - 4 * b2 * d
    ry = -b2 * b2 - 3 * a2 * a2 + 4 * a2 * d
    if rx < 0.0 or ry < 0.0:
        raise InvalidShape("no right-triangle configuration below the obtuse threshold")
    c3 = shape.c2**1.5
    return Point(a2 * math.sqrt(rx) / c3, b2 * math.sqrt(ry) / c3)


def orthic_center_transition(shape: BilliardShape) -> Point:
    """First-quadrant branch point of the orthic-circumbilliard center locus.

    The orthic-CB center of the right-triangle orbit by the right-angle
    rule of ``centers.orthic_cb_center_of``: the midpoint of the altitude
    from the right-angle vertex.
    """
    p = right_angle_vertex(shape)
    t = math.atan2(p.y / shape.b, p.x / shape.a)
    v = orbit(shape, t).triangle.tri
    return Point.from_complex(centers.altitude_midpoint(*centers.vertices_by_largest_angle(v)))


def isosceles_dimensions(shape: BilliardShape) -> tuple[float, float]:
    """Base half-width and height of the upright isosceles orbit, in b = 1 units."""
    al = shape.alpha
    al2 = al * al
    dn = math.sqrt(al2 * al2 - al2 + 1.0)
    s_eq = al2 / (al2 - 1.0) * math.sqrt(2.0 * dn - al2 - 1.0)
    h = (al2 + dn + 1.0) / (al2 + dn)
    return s_eq, h


def inradius_to_circumradius(shape: BilliardShape) -> float:
    """The family-invariant ratio r/R, as a closed form in (a, b)."""
    a2, b2, d = shape.a**2, shape.b**2, shape.delta
    return 2.0 * (d - b2) * (a2 - d) / shape.c2**2
