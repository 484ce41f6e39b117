"""Triangle centers (Kimberling X_i) and derived triangles.

Centers are specified by trilinear coordinates in the side lengths
alone, with no angles, and converted to Cartesians through sidelength
weighting; X3 is the circumcenter from the vertex differences.  The
other centers are composite: a named center of a derived triangle, or
an affine combination of other centers, such as the Euler-line
identities X4 = p1 + p2 + p3 - 2 X3 and X5 = (p1 + p2 + p3 - X3) / 2.

Every rule is written once on ``kernel.Tri`` (``center_of``,
``derived_of``), so it evaluates one triangle for the scalar API below
and a whole family of triangles for the batched kernel.
"""

from __future__ import annotations

from .errors import DegenerateTriangle, PointAtInfinity, RightTriangle, UndefinedForShape
from .kernel import (
    EPS,
    RAISE,
    RIGHT_DEADBAND,
    Point,
    Tri,
    Triangle,
    complex_of,
    cross,
    dot,
    largest,
    perp_foot,
    where,
)

#: Kimberling indices with a direct rule (trilinears in the side lengths) below.
_TRILINEAR_CENTERS = frozenset({1, 2, 6, 7, 8, 9, 10, 11, 1156})

#: Kimberling indices with a direct or composite rule below.
SUPPORTED_CENTERS = _TRILINEAR_CENTERS | {3, 4, 5, 40, 69, 100, 142, 144, 168}

#: Selector for the orthic-circumbilliard center (acute: X6; obtuse: X6 of
#: the triangle spanned by the two non-obtuse vertices and the orthocenter).
ORTHIC_CB_CENTER = "X6star"


def _point_of(v: Tri, tri, guard):
    w1, w2, w3 = v.s1 * tri[0], v.s2 * tri[1], v.s3 * tri[2]
    den = w1 + w2 + w3
    guard.check(
        abs(den) <= 1e-12 * (abs(w1) + abs(w2) + abs(w3)),
        PointAtInfinity,
        "trilinears lie on the line at infinity",
    )
    return (w1 * v.p1 + w2 * v.p2 + w3 * v.p3) * (1.0 / den)


def _direct_trilinears(v: Tri, index: int, guard):
    s1, s2, s3 = v.s1, v.s2, v.s3
    if index == 1:
        return (1.0, 1.0, 1.0)
    if index == 2:
        return (1.0 / s1, 1.0 / s2, 1.0 / s3)
    if index == 6:
        return (s1, s2, s3)
    if index == 7:
        return (
            1.0 / (s1 * (s2 + s3 - s1)),
            1.0 / (s2 * (s3 + s1 - s2)),
            1.0 / (s3 * (s1 + s2 - s3)),
        )
    if index == 8:
        return ((s2 + s3 - s1) / s1, (s3 + s1 - s2) / s2, (s1 + s2 - s3) / s3)
    if index == 9:
        return (s2 + s3 - s1, s3 + s1 - s2, s1 + s2 - s3)
    if index == 10:
        return ((s2 + s3) / s1, (s3 + s1) / s2, (s1 + s2) / s3)
    # X11 and X1156 have no limit at the equilateral triangle: refuse sides equal within rounding
    spread = largest(abs(s2 - s3), abs(s3 - s1), abs(s1 - s2))
    guard.check(EPS * largest(s1, s2, s3) > 1e-9 * spread, UndefinedForShape,
                f"X{index} is undefined for a triangle equilateral within rounding")
    if index == 1156:
        d1 = (s2 - s3) * (s2 - s3) + s1 * (s2 + s3 - 2 * s1)
        d2 = (s3 - s1) * (s3 - s1) + s2 * (s3 + s1 - 2 * s2)
        d3 = (s1 - s2) * (s1 - s2) + s3 * (s1 + s2 - 2 * s3)
        # off the equilateral triangles a denominator can still cancel to zero
        guard.check((d1 == 0.0) | (d2 == 0.0) | (d3 == 0.0), UndefinedForShape,
                    "X1156 has a zero trilinear denominator")
        return (1.0 / d1, 1.0 / d2, 1.0 / d3)
    return (  # X11
        (s2 - s3) * (s2 - s3) * (s2 + s3 - s1) / s1,
        (s3 - s1) * (s3 - s1) * (s3 + s1 - s2) / s2,
        (s1 - s2) * (s1 - s2) * (s1 + s2 - s3) / s3,
    )


def center_of(v: Tri, center_id, guard):
    """Complex position of a supported center of ``v``.

    ``guard`` is RAISE for one triangle or a Skips for a stack.
    """
    if center_id == ORTHIC_CB_CENTER:
        return orthic_cb_center_of(v, guard)
    index = int(center_id)
    if index in _TRILINEAR_CENTERS:
        return _point_of(v, _direct_trilinears(v, index, guard), guard)
    if index not in SUPPORTED_CENTERS:
        raise KeyError(f"center X{index} not supported")
    if index == 3:
        b, c = v.p2 - v.p1, v.p3 - v.p1
        u, k = dot(c, c) * b - dot(b, b) * c, 0.5 / cross(b, c)
        return v.p1 + complex_of(-u.imag * k, u.real * k)
    if index == 4:
        return v.p1 + v.p2 + v.p3 - 2.0 * center_of(v, 3, guard)
    if index == 5:
        return 0.5 * (v.p1 + v.p2 + v.p3 - center_of(v, 3, guard))
    if index == 40:
        return center_of(derived_of(v, "excentral", guard), 3, guard)
    if index == 69:
        return center_of(derived_of(v, "act", guard), 6, guard)
    if index == 100:
        return 2.0 * center_of(v, 9, guard) - center_of(v, 1156, guard)
    if index == 142:
        return 0.5 * (center_of(v, 9, guard) + center_of(v, 7, guard))
    if index == 144:
        return 3.0 * center_of(v, 2, guard) - 2.0 * center_of(v, 7, guard)
    return center_of(derived_of(v, "excentral", guard), 9, guard)  # X168


def center(t: Triangle, center_id) -> Point:
    """Cartesian position of a supported triangle center.

    ``center_id`` is a Kimberling index from SUPPORTED_CENTERS or the
    string ORTHIC_CB_CENTER.
    """
    return Point.from_complex(center_of(t.tri, center_id, RAISE))


def derived_of(v: Tri, which: str, guard) -> Tri:
    """Excentral, anticomplementary ("act"), medial or orthic triangle of ``v``.

    The orthic triangle is refused (RightTriangle) when an angle is right
    within the dead band, since two feet then coincide with the
    right-angle vertex.
    """
    p1, p2, p3 = v.vertices
    degenerate = DegenerateTriangle
    if which == "excentral":
        s1, s2, s3 = v.s1, v.s2, v.s3
        out = Tri(
            (-s1 * p1 + s2 * p2 + s3 * p3) * (1.0 / (s2 + s3 - s1)),
            (s1 * p1 - s2 * p2 + s3 * p3) * (1.0 / (s3 + s1 - s2)),
            (s1 * p1 + s2 * p2 - s3 * p3) * (1.0 / (s1 + s2 - s3)),
        )
    elif which == "act":
        out = Tri(p2 + p3 - p1, p3 + p1 - p2, p1 + p2 - p3)
    elif which == "medial":
        out = Tri(0.5 * (p2 + p3), 0.5 * (p3 + p1), 0.5 * (p1 + p2))
    elif which == "orthic":
        ca, cb, cc = v.cosines()
        guard.check(
            (abs(ca) <= RIGHT_DEADBAND) | (abs(cb) <= RIGHT_DEADBAND) | (abs(cc) <= RIGHT_DEADBAND),
            RightTriangle,
            "orthic of a right triangle collapses to a segment",
        )
        out = Tri(perp_foot(p1, p2, p3), perp_foot(p2, p3, p1), perp_foot(p3, p1, p2))
        degenerate = RightTriangle
    else:
        raise KeyError(f"unknown derived triangle {which!r}")
    guard.check(out.thin(), degenerate, "derived triangle area below tolerance")
    return out


def derived_triangle(t: Triangle, which: str) -> Triangle:
    """``derived_of`` for one Triangle."""
    return Triangle.from_tri(derived_of(t.tri, which, RAISE))


def excentral(t: Triangle) -> Triangle:
    """Triangle of the three excenters."""
    return derived_triangle(t, "excentral")


def medial(t: Triangle) -> Triangle:
    """Triangle of the side midpoints."""
    return derived_triangle(t, "medial")


def act(t: Triangle) -> Triangle:
    """Anticomplementary triangle: vertex i maps to p_j + p_k - p_i."""
    return derived_triangle(t, "act")


def orthic(t: Triangle) -> Triangle:
    """Triangle of the altitude feet; RightTriangle for right triangles."""
    return derived_triangle(t, "orthic")


def orthic_cb_center_of(v: Tri, guard):
    """Orthic-CB center of ``v``: X6 of the acute member of its orthocentric system.

    The triangle's vertices and its orthocenter H form an orthocentric
    system, and the center is X6 of the triangle that replaces an obtuse
    vertex by H.  An acute or right (within the dead band) triangle is
    its own acute member; for a right one X6 is the midpoint of the
    altitude from the right-angle vertex, the common limit of both sides.
    """
    h = center_of(v, 4, guard)
    aux = Tri(*(where(c < -RIGHT_DEADBAND, h, p) for c, p in zip(v.cosines(), v.vertices)))
    guard.check(aux.thin(), DegenerateTriangle, "auxiliary triangle area below tolerance")
    return center_of(aux, 6, guard)


def orthic_cb_center(t: Triangle) -> Point:
    """Center of the orthic triangle's circumbilliard (symbolic X6*)."""
    return Point.from_complex(orthic_cb_center_of(t.tri, RAISE))
