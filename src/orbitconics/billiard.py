"""Elliptic billiard stage: triangle orbits, caustic, shape thresholds.

An orbit triangle with one vertex pinned at ``(a cos t, b sin t)`` is
built in closed form: the two orbit sides leaving the pinned vertex are
the tangent lines to the confocal caustic, and each meets the boundary
at one further point.  Closure of the third side (and the reflection
law at every vertex) then holds by the Poncelet porism and doubles as a
numerical correctness monitor in the tests.  ``poncelet_vertices`` also
builds the poristic triangles, from their circumcircle and incircle.
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
from .kernel import (RAISE, Conic, EllipseParams, Point, Skips, Tri, Triangle, complex_of, is_array,
                     nonfinite, ufuncs, where)

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

    def family(self, t, guard) -> Tri:
        """Orbit triangles at t, a number (``guard`` RAISE) or an array (``guard`` a Skips)."""
        major, minor = _caustic_axes(self)
        tri = Tri(*poncelet_vertices(t, self.a, self.b, 0.0, major**2, minor**2, guard))
        guard.check(tri.nonfinite(), ValueError, "non-finite orbit vertex")
        guard.check(tri.thin(), DegenerateTriangle, "orbit triangle area below tolerance")
        return tri


@dataclass(frozen=True)
class OrbitSample:
    t: float
    triangle: Triangle
    shape_class: ShapeClass


@dataclass(frozen=True)
class Family:
    """A whole triangle family as struct-of-arrays.

    ``vertices`` is ``tri`` as an ``(n, 3, 2)`` coordinate array; ``codes``
    are the shape classes as indices into ``SHAPE_CLASSES``.
    """

    t: np.ndarray
    tri: Tri

    @cached_property
    def vertices(self) -> np.ndarray:
        import numpy as np

        return np.stack(self.tri.vertices, axis=-1).view(float).reshape(self.t.shape + (3, 2))

    @cached_property
    def codes(self) -> np.ndarray:
        return self.tri.shape_code().astype("int8")


def sample_grid(n: int) -> np.ndarray:
    """n >= MIN_SAMPLES parameters uniform on the circle, offset by half a step."""
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples")
    import numpy as np

    return (np.arange(n) + 0.5) * (2.0 * math.pi / n)


def sampled_family(shape: BilliardShape, n: int) -> Family:
    """The ``Family`` on ``sample_grid(n)``, the grid every sweep samples."""
    return orbit(shape, sample_grid(n))


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


def poncelet_vertices(t, a, b, c, A, B, guard):
    """Complex vertices of the Poncelet triangle at parameter t, counterclockwise.

    Inscribed in (x/a)^2 + (y/b)^2 = 1 from p1 = (a cos t, b sin t), its
    two sides through p1 are tangent to the inner conic
    (x - c)^2/A + y^2/B = 1: for p' = p1 - (c, 0) their normals solve
    n^T (diag(A, B) - p' p'^T) n = 0, which factors as n ~ (r, A - x'^2)
    and n ~ (B - y'^2, r), the root r taken so that it loses no digits.
    Each side meets the outer conic once more.  ``t`` is a number
    (``guard`` RAISE) or an array (a Skips); a non-finite t, and a p1
    inside the inner conic by rounding, are refused before a math
    function sees them.
    """
    f = ufuncs(t)
    refused = nonfinite(t)
    guard.check(refused, ValueError, "non-finite orbit vertex")
    t = where(refused, 0.0, t)
    x, y = a * f.cos(t), b * f.sin(t)
    u = x - c
    uy = u * y
    disc = A * y * y + B * u * u - A * B
    guard.check(disc < 0.0, ValueError, "first vertex inside the inner conic")
    r = uy + f.copysign(f.sqrt(f.maximum(disc, 0.0)), uy)
    a2, b2 = a**2, b**2
    partners = []
    # side directions (-n_y, n_x)
    for dx, dy in ((u * u - A, r), (-r, B - y * y)):
        k = -2.0 * (x * dx / a2 + y * dy / b2) / (dx * dx / a2 + dy * dy / b2)
        partners.append((x + k * dx, y + k * dy))
    (qx, qy), (sx, sy) = partners
    swap = (qx - x) * (sy - y) - (qy - y) * (sx - x) < 0.0
    q, s = complex_of(qx, qy), complex_of(sx, sy)
    return complex_of(x, y), where(swap, s, q), where(swap, q, s)


def orbit(shape: BilliardShape, t, skips: Skips | None = None):
    """Member of the family of ``shape`` (any shape with ``family``) at parameter t.

    For a ``BilliardShape`` the orbit triangle with first vertex at
    (a cos t, b sin t), for a ``PoristicShape`` the triangle with first
    vertex at angle t on the circumcircle.  Both are built by
    ``poncelet_vertices`` and wind counterclockwise for every t.  One
    number gives an ``OrbitSample``.  A sequence or array of parameters
    gives the whole ``Family`` at once; its refused members are recorded
    in ``skips`` when one is given, else the failure of the first is
    raised.
    """
    if not isinstance(t, Sequence) and not (is_array(t) and t.ndim > 0):
        tri = shape.family(t, RAISE)
        return OrbitSample(t, Triangle.from_tri(tri), SHAPE_CLASSES[tri.shape_code()])
    import numpy as np

    t = np.asarray(t, dtype=float)
    guard = Skips(t.size) if skips is None else skips
    fam = Family(t, shape.family(t, guard))
    if skips is None:
        guard.raise_first()
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

    The orthic-CB center of the right-triangle orbit: its X6, the midpoint
    of the altitude from the right-angle vertex, where the locus passes
    from acute to obtuse orbits.
    """
    p = right_angle_vertex(shape)
    t = math.atan2(p.y / shape.b, p.x / shape.a)
    return centers.orthic_cb_center(orbit(shape, t).triangle)


def inradius_to_circumradius(shape: BilliardShape) -> float:
    """The family-invariant ratio r/R, as a closed form in (a, b)."""
    a2, b2, d = shape.a**2, shape.b**2, shape.delta
    return 2.0 * (d - b2) * (a2 - d) / shape.c2**2
