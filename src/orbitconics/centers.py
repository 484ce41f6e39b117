"""Triangle centers (Kimberling X_i) and derived triangles.

Centers are specified by trilinear coordinates and converted to
Cartesians through sidelength weighting.  Angle-based trilinears (cos,
sec, cos of angle differences) are always computed from sidelengths via
the law of cosines.  A handful of centers are composite: they are
defined as a named center of a derived triangle or as an affine
combination of other centers.

Every rule is written once on ``kernel.Tri`` (``center_of``,
``derived_of``), so it evaluates one triangle for the scalar API below
and a whole family of triangles for the batched kernel.
"""

from __future__ import annotations

from .errors import DegenerateTriangle, PointAtInfinity, RightTriangle, UndefinedForShape
from .kernel import (
    RAISE,
    RIGHT_DEADBAND,
    Point,
    Skips,
    Tri,
    Triangle,
    is_array,
    perp_foot,
    ufuncs,
    where,
)

#: Kimberling indices with a direct or composite rule below.
SUPPORTED_CENTERS = frozenset(
    {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 40, 69, 100, 142, 144, 168, 1156}
)

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


def _sines(cos_a, cos_b, cos_c):
    f = ufuncs(cos_a)
    return tuple(f.sqrt(f.maximum(1.0 - c * c, 0.0)) for c in (cos_a, cos_b, cos_c))


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
    if index == 1156:
        d1 = (s2 - s3) * (s2 - s3) + s1 * (s2 + s3 - 2 * s1)
        d2 = (s3 - s1) * (s3 - s1) + s2 * (s3 + s1 - 2 * s2)
        d3 = (s1 - s2) * (s1 - s2) + s3 * (s1 + s2 - 2 * s3)
        guard.check((d1 == 0.0) | (d2 == 0.0) | (d3 == 0.0), UndefinedForShape,
                    "X1156 is undefined for an equilateral triangle")
        return (1.0 / d1, 1.0 / d2, 1.0 / d3)
    ca, cb, cc = v.cosines()
    if index == 3:
        return (ca, cb, cc)
    if index == 4:
        guard.check(
            (abs(ca) < 1e-15) | (abs(cb) < 1e-15) | (abs(cc) < 1e-15),
            UndefinedForShape,
            "orthocenter of a right triangle is at a vertex-altitude limit",
        )
        return (1.0 / ca, 1.0 / cb, 1.0 / cc)
    if index == 5:
        sa, sb, sc = _sines(ca, cb, cc)
        return (cb * cc + sb * sc, cc * ca + sc * sa, ca * cb + sa * sb)
    if index == 11:
        sa, sb, sc = _sines(ca, cb, cc)
        return (
            1.0 - (cb * cc + sb * sc),
            1.0 - (cc * ca + sc * sa),
            1.0 - (ca * cb + sa * sb),
        )
    raise KeyError(index)


def center_of(v: Tri, center_id, guard):
    """Complex position of a supported center of ``v``.

    ``guard`` is RAISE for one triangle or a Skips for a stack.
    """
    if center_id == ORTHIC_CB_CENTER:
        return orthic_cb_center_of(v, guard)
    index = int(center_id)
    if index not in SUPPORTED_CENTERS:
        raise KeyError(f"center X{index} not supported")
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
    if index == 168:
        return center_of(derived_of(v, "excentral", guard), 9, guard)
    return _point_of(v, _direct_trilinears(v, index, guard), guard)


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


def vertices_by_largest_angle(v: Tri):
    """Vertices (P, Q, R) of ``v``: P at the largest angle (the first, on ties), then Q and R."""
    ca, cb, cc = v.cosines()
    first, second = (ca <= cb) & (ca <= cc), cb <= cc
    return tuple(
        where(first, u1, where(second, u2, u3))
        for u1, u2, u3 in ((v.p1, v.p2, v.p3), (v.p2, v.p3, v.p1), (v.p3, v.p1, v.p2))
    )


def altitude_midpoint(p, q, r):
    """Midpoint of the altitude from p: the orthic-CB center of a triangle right-angled at p."""
    return 0.5 * (p + perp_foot(p, q, r))


def orthic_cb_center_of(v: Tri, guard):
    """Orthic-CB center of ``v``.

    Acute: X6.  Obtuse at vertex P: X6 of the triangle spanned by the
    other two vertices and the orthocenter.  Right (within the dead
    band): the common limit of both rules, the midpoint of the altitude
    from the right-angle vertex.  Only the chosen rule's failures count:
    one triangle runs that rule alone, a stack runs each rule with its
    own Skips and keeps the failures of the members that use it.
    """
    code = v.shape_code()
    p, q, r = vertices_by_largest_angle(v)

    def obtuse_rule(g):
        aux = Tri(q, r, center_of(v, 4, g))
        g.check(aux.thin(), DegenerateTriangle, "auxiliary triangle area below tolerance")
        return center_of(aux, 6, g)

    if not is_array(code):
        if code == 0:
            return center_of(v, 6, guard)
        return obtuse_rule(guard) if code == 2 else altitude_midpoint(p, q, r)
    import numpy as np

    acute, obtuse = Skips(code.size), Skips(code.size)
    point = np.where(code == 0, center_of(v, 6, acute),
                     np.where(code == 2, obtuse_rule(obtuse), altitude_midpoint(p, q, r)))
    guard.absorb(acute, code == 0)
    guard.absorb(obtuse, code == 2)
    return point


def orthic_cb_center(t: Triangle) -> Point:
    """Center of the orthic triangle's circumbilliard (symbolic X6*)."""
    return Point.from_complex(orthic_cb_center_of(t.tri, RAISE))
