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
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import DegenerateTriangle, InvalidShape
from .kernel import Conic, EllipseParams, Point, Skips, Tri, Triangle, perp_foot, where


class ShapeClass(Enum):
    ACUTE = "acute"
    RIGHT = "right"
    OBTUSE = "obtuse"


#: Shape classes by the code ``kernel.Tri.shape_code`` returns.
SHAPE_CLASSES = tuple(ShapeClass)


@dataclass(frozen=True)
class BilliardShape:
    """Billiard boundary (x/a)^2 + (y/b)^2 = 1 with a > b > 0."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > self.b > 0.0):
            raise InvalidShape(f"require a > b > 0, got a={self.a}, b={self.b}")

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
        return Conic(0.0, 0.0, 0.0, -1.0 / self.a**2, -1.0 / self.b**2)

    def ellipse_params(self) -> EllipseParams:
        return EllipseParams(Point(0.0, 0.0), self.a, self.b, 0.0)

    def normal_direction(self, p: Point) -> Point:
        g = Point(p.x / self.a**2, p.y / self.b**2)
        return g / g.norm()


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
        z = self.vertices.view(np.complex128)[..., 0]
        return Tri(z[:, 0], z[:, 1], z[:, 2])

    @cached_property
    def codes(self) -> np.ndarray:
        return self.tri.shape_code().astype(np.int8)


def caustic(shape: BilliardShape) -> EllipseParams:
    """Confocal ellipse tangent to every orbit side.

    This is the family's stationary Mandart inellipse, centered on the
    stationary Mittenpunkt at the origin.
    """
    a, b, d, c2 = shape.a, shape.b, shape.delta, shape.c2
    return EllipseParams(
        Point(0.0, 0.0),
        a * (d - b * b) / c2,
        b * (a * a - d) / c2,
        0.0,
    )


def classify_triangle(t: Triangle) -> ShapeClass:
    """Acute / right / obtuse from the sign of the largest-angle cosine."""
    return SHAPE_CLASSES[t.tri.shape_code()]


def _orbit_vertices(shape: BilliardShape, t, lib, atan2):
    """Vertex coordinates (x1, y1, x2, y2, x3, y3) of the orbit at t.

    ``t`` is a number (``lib`` math) or an array (``lib`` numpy).  The
    normals n of the two sides through p1 = (x, y) make them tangent to
    the caustic x^2/A + y^2/B = 1: n^T (diag(A, B) - p1 p1^T) n = 0.  That
    2x2 form factors in closed form as n ~ (r, A - x^2) and
    n ~ (B - y^2, r), with the root r taken so that it loses no digits.
    Each side then meets the boundary once more.
    """
    a2, b2 = shape.a**2, shape.b**2
    caus = caustic(shape)
    A, B = caus.semi_major**2, caus.semi_minor**2
    x, y = shape.a * lib.cos(t), shape.b * lib.sin(t)
    xy = x * y
    r = xy + lib.copysign(lib.sqrt(A * y * y + B * x * x - A * B), xy)
    partners = []
    # side directions (-n_y, n_x)
    for ux, uy in ((x * x - A, r), (-r, B - y * y)):
        k = -2.0 * (x * ux / a2 + y * uy / b2) / (ux * ux / a2 + uy * uy / b2)
        qx, qy = x + k * ux, y + k * uy
        forward = (atan2(qy / shape.b, qx / shape.a) - t) % (2.0 * math.pi)
        partners.append((qx, qy, forward))
    (qx, qy, fq), (sx, sy, fs) = partners
    swap = fs < fq
    return (x, y, where(swap, sx, qx), where(swap, sy, qy), where(swap, qx, sx), where(swap, qy, sy))


def orbit(shape: BilliardShape, t):
    """Orbit triangle with first vertex at (a cos t, b sin t).

    The second vertex is the nearer bounce in increasing boundary
    parameter, the third the farther one, so the vertices wind
    counterclockwise for every t.  For an array of parameters the whole
    ``Family`` is built at once; it raises the failure of the first
    degenerate member.
    """
    if np.ndim(t) == 0:
        x1, y1, x2, y2, x3, y3 = _orbit_vertices(shape, t, math, math.atan2)
        tri = Triangle(Point(x1, y1), Point(x2, y2), Point(x3, y3))
        return OrbitSample(t, tri, classify_triangle(tri))
    t = np.asarray(t, dtype=float)
    coords = _orbit_vertices(shape, t, np, np.arctan2)
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

    Computed as the midpoint of the right-angle vertex's altitude of the
    right-triangle orbit, the common limit of the acute and obtuse rules.
    """
    p = right_angle_vertex(shape)
    t = math.atan2(p.y / shape.b, p.x / shape.a)
    tri = orbit(shape, t).triangle
    i = min(range(3), key=lambda k: abs(tri.cosines()[k]))
    verts = tri.vertices
    pv, q, r = verts[i].z, verts[(i + 1) % 3].z, verts[(i + 2) % 3].z
    return Point.from_complex(0.5 * (pv + perp_foot(pv, q, r)))


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
