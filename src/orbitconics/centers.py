"""Triangle centers (Kimberling X_i) and derived triangles.

The direct centers are barycentric weights polynomial in the side
lengths, with no angles and no division, placed at the weighted mean of
the vertices; X3 is the circumcenter from the vertex differences.  The
other centers are affine combinations of these, such as the Euler-line
identities X4 = p1 + p2 + p3 - 2 X3 and X5 = (p1 + p2 + p3 - X3) / 2 and
the Bevan point X40 = 2 X3 - X1, except X168, X9 of the excentral triangle.

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
    nonfinite,
    perp_foot,
    where,
)


def _x1156_factor(a, b, c):
    """(b - c)^2 + a (b + c - 2a), the reciprocal of X1156's first trilinear."""
    return (b - c) * (b - c) + a * (b + c - 2 * a)


#: First barycentric weight w(a, b, c) of the direct centers in the sides (a, b, c) =
#: (s1, s2, s3); the barycentrics are (w(a, b, c) : w(b, c, a) : w(c, a, b)).
_BARYCENTRICS = {
    1: lambda a, b, c: a,
    2: lambda a, b, c: 1.0,
    6: lambda a, b, c: a * a,
    7: lambda a, b, c: (c + a - b) * (a + b - c),
    8: lambda a, b, c: b + c - a,
    9: lambda a, b, c: a * (b + c - a),
    10: lambda a, b, c: b + c,
    11: lambda a, b, c: (b - c) * (b - c) * (b + c - a),
    69: lambda a, b, c: b * b + c * c - a * a,
    100: lambda a, b, c: a * (c - a) * (a - b),
    1156: lambda a, b, c: a * _x1156_factor(b, c, a) * _x1156_factor(c, a, b),
}

#: Direct centers with no limit at the equilateral triangle.
_UNDEFINED_AT_EQUILATERAL = frozenset({11, 100, 1156})

#: Kimberling indices with a direct or composite rule below.
SUPPORTED_CENTERS = frozenset(_BARYCENTRICS) | {3, 4, 5, 40, 142, 144, 168}

#: Selector for the orthic-circumbilliard center (acute: X6; obtuse: X6 of
#: the triangle spanned by the two non-obtuse vertices and the orthocenter).
ORTHIC_CB_CENTER = "X6star"


def _point_of(v: Tri, weights, guard):
    w1, w2, w3 = weights
    den = w1 + w2 + w3
    guard.check(
        abs(den) <= 1e-12 * (abs(w1) + abs(w2) + abs(w3)),
        PointAtInfinity,
        "barycentrics lie on the line at infinity",
    )
    return _finite((w1 * v.p1 + w2 * v.p2 + w3 * v.p3) * (1.0 / den), guard)


def _finite(z, guard):
    # inf - inf is nan, so one float add finds a non-finite part; Point refuses those too
    guard.check(nonfinite(z.real + z.imag), ValueError, "non-finite triangle center")
    return z


def center_of(v: Tri, center_id, guard):
    """Complex position of a supported center of ``v``.

    ``guard`` is RAISE for one triangle or a Skips for a stack.  An id is
    looked up as given, so 9.0 is X9 but 3.7 and "7" are unknown (KeyError).
    """
    if center_id == ORTHIC_CB_CENTER:
        return orthic_cb_center_of(v, guard)
    w = _BARYCENTRICS.get(center_id)
    if w is not None:
        k = v.unit_factor()  # so that no weight under- or overflows
        s1, s2, s3 = v.s1 * k, v.s2 * k, v.s3 * k
        if center_id in _UNDEFINED_AT_EQUILATERAL:  # refuse sides equal within rounding
            spread = largest(abs(s2 - s3), abs(s3 - s1), abs(s1 - s2))
            guard.check(EPS * largest(s1, s2, s3) > 1e-9 * spread, UndefinedForShape,
                        f"X{center_id} is undefined for a triangle equilateral within rounding")
        return _point_of(v, (w(s1, s2, s3), w(s2, s3, s1), w(s3, s1, s2)), guard)
    if center_id not in SUPPORTED_CENTERS:
        raise KeyError(f"center {center_id!r} not supported")
    if center_id == 3:
        b, c = v.p2 - v.p1, v.p3 - v.p1
        u, k = dot(c, c) * b - dot(b, b) * c, 0.5 / cross(b, c)
        return _finite(v.p1 + complex_of(-u.imag * k, u.real * k), guard)
    if center_id == 4:
        return v.p1 + v.p2 + v.p3 - 2.0 * center_of(v, 3, guard)
    if center_id == 5:
        return 0.5 * (v.p1 + v.p2 + v.p3 - center_of(v, 3, guard))
    if center_id == 40:
        return 2.0 * center_of(v, 3, guard) - center_of(v, 1, guard)
    if center_id == 142:
        return 0.5 * (center_of(v, 9, guard) + center_of(v, 7, guard))
    if center_id == 144:
        return 3.0 * center_of(v, 2, guard) - 2.0 * center_of(v, 7, guard)
    return center_of(derived_of(v, "excentral", guard), 9, guard)  # X168


def center(t: Triangle, center_id) -> Point:
    """Cartesian position of a supported triangle center.

    ``center_id`` is a Kimberling index from SUPPORTED_CENTERS or the
    string ORTHIC_CB_CENTER.
    """
    z = center_of(t.tri, center_id, RAISE)
    return Point(z.real, z.imag)


def derived_of(v: Tri, which: str, guard) -> Tri:
    """Excentral, anticomplementary ("act"), medial or orthic triangle of ``v``.

    The orthic triangle is refused (RightTriangle) when an angle is right
    within the dead band, since two feet then coincide with the
    right-angle vertex; the excentral one (DegenerateTriangle) when the
    reference is thin, and any one beyond the float range (ValueError).
    """
    p1, p2, p3 = v.vertices
    degenerate = DegenerateTriangle
    if which == "excentral":
        # a thin reference is refused before dividing; past it, no t or k below is 0
        guard.check(v.thin(), DegenerateTriangle, "excentral of a triangle with area below tolerance")
        s1, s2, s3 = v.s1, v.s2, v.s3
        s, k, excenters = 0.5 * (s1 + s2 + s3), 2.0 * v.area, []
        # p + (b e + c f) / (b + c - a), e = q - p, f = r - p, c = |e|, b = |f|; for t = b c + |e.f|,
        # 1 / (b + c - a) is s / t where e.f >= 0, else (s/k)(t/k), k = 2 area (half-angle identity)
        for p, q, r, b, c in ((p1, p2, p3, s2, s3), (p2, p3, p1, s3, s1), (p3, p1, p2, s1, s2)):
            e, f = q - p, r - p
            ef = dot(e, f)
            t = b * c + abs(ef)
            excenters.append(p + (b * e + c * f) * where(ef >= 0.0, s / t, (s / k) * (t / k)))
        out = Tri(*excenters)
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
        out = Tri(perp_foot(p1, p2, p3, guard), perp_foot(p2, p3, p1, guard), perp_foot(p3, p1, p2, guard))
        degenerate = RightTriangle
    else:
        raise KeyError(f"unknown derived triangle {which!r}")
    return out.checked(guard, "derived triangle", degenerate)


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
    For an obtuse angle at A, area(HBC) >= area(ABC) (cos B cos C >=
    sin B sin C) and HBC is no thinner, so ``v``'s own check covers it.
    """
    h = center_of(v, 4, guard)
    aux = Tri(*(where(c < -RIGHT_DEADBAND, h, p) for c, p in zip(v.cosines(), v.vertices)))
    return center_of(aux, 6, guard)


def orthic_cb_center(t: Triangle) -> Point:
    """Center of the orthic triangle's circumbilliard (symbolic X6*)."""
    return Point.from_complex(orthic_cb_center_of(t.tri, RAISE))
