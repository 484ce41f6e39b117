import math

import numpy as np
import pytest

from oracles import reflection_map_orbit
from orbitconics import (
    BilliardShape,
    InvalidShape,
    Point,
    PoristicShape,
    ShapeClass,
    caustic,
    classify_orbit,
    classify_triangle,
    ellipse_to_conic,
    equilateral_orthic_threshold,
    inradius_to_circumradius,
    isosceles_dimensions,
    line_conic_tangency_residual,
    obtuse_threshold,
    orbit,
    reflection_residual,
    right_angle_vertex,
)

SHAPE = BilliardShape(1.5, 1.0)


def grid(n):
    return [(k + 0.5) * 2 * math.pi / n for k in range(n)]


def test_shape_validation():
    with pytest.raises(InvalidShape):
        BilliardShape(1.0, 1.0)
    with pytest.raises(InvalidShape):
        BilliardShape(1.0, 1.5)
    with pytest.raises(InvalidShape):
        BilliardShape(1.5, 0.0)


@pytest.mark.parametrize("make, args", [
    *((BilliardShape, ab) for ab in (
        (math.inf, 1.0), (math.nan, 1.0), (1e100, 1.0), (1e76, 1.0), (1.5, 1e-320),
        (1e-100, 1e-101))),
    *((PoristicShape, rR) for rR in ((0.3, math.inf), (0.3, 1e300), (math.nan, 1.0))),
])
def test_shapes_refuse_bad_input_with_invalid_shape_only(make, args):
    with pytest.raises(InvalidShape) as info:
        make(*args)
    assert type(info.value) is InvalidShape
    message = str(info.value)
    assert "finite" in message
    if make is BilliardShape:
        assert "a > b > 0" in message and f"a={args[0]}, b={args[1]}" in message
    else:
        assert "R >= 2 r" in message and f"r={args[0]}, R={args[1]}" in message


def test_delta_between_squares():
    for alpha in (1.1, 1.5, 2.0, 3.0):
        shape = BilliardShape(alpha, 1.0)
        assert shape.b**2 < shape.delta < shape.a**2


def test_vertices_on_boundary():
    for alpha in (1.2, 1.5, 2.5):
        shape = BilliardShape(alpha, 1.0)
        for t in grid(90):
            for p in orbit(shape, t).triangle.vertices:
                assert abs(shape.boundary_value(p)) <= 1e-10


def test_perimeter_constant():
    per = [orbit(SHAPE, t).triangle.perimeter() for t in grid(720)]
    assert (max(per) - min(per)) / np.mean(per) <= 1e-9


def test_reflection_law_at_each_vertex():
    conic = SHAPE.conic()
    for t in grid(90):
        assert reflection_residual(conic, orbit(SHAPE, t).triangle) <= 1e-9


def test_sideways_isosceles():
    tri = orbit(SHAPE, 0.0).triangle
    caus = caustic(SHAPE)
    y_chord = SHAPE.b * math.sqrt(1.0 - (caus.semi_major / SHAPE.a) ** 2)
    assert tri.p1.dist(Point(SHAPE.a, 0.0)) <= 1e-12
    assert tri.p2.dist(Point(-caus.semi_major, y_chord)) <= 1e-12
    assert tri.p3.dist(Point(-caus.semi_major, -y_chord)) <= 1e-12


def test_matches_reflection_map_oracle(rng):
    for _ in range(8):
        alpha = rng.uniform(1.1, 2.8)
        t = rng.uniform(0.0, 2.0 * math.pi)
        shape = BilliardShape(alpha, 1.0)
        tri = orbit(shape, t).triangle
        q1, q2, q3 = reflection_map_orbit(alpha, 1.0, t)
        assert tri.p1.dist(Point(*q1)) <= 1e-8
        assert tri.p2.dist(Point(*q2)) <= 1e-8
        assert tri.p3.dist(Point(*q3)) <= 1e-8


def test_high_eccentricity_stays_accurate():
    shape = BilliardShape(5.0, 1.0)
    for t in grid(24):
        tri = orbit(shape, t).triangle
        _, q2, q3 = reflection_map_orbit(5.0, 1.0, t)
        assert tri.p2.dist(Point(*q2)) <= 1e-10
        assert tri.p3.dist(Point(*q3)) <= 1e-10
    per = [orbit(shape, t).triangle.perimeter() for t in grid(240)]
    assert (max(per) - min(per)) / np.mean(per) <= 1e-9


def test_all_acute_below_threshold():
    shape = BilliardShape(1.3, 1.0)
    assert shape.alpha < obtuse_threshold()
    for t in grid(360):
        assert classify_orbit(shape, t) is ShapeClass.ACUTE


def test_classification_matches_arc_test(rng):
    for _ in range(10_000):
        alpha = rng.uniform(1.05, 2.9)
        t = rng.uniform(0.0, 2.0 * math.pi)
        shape = BilliardShape(alpha, 1.0)
        sample = orbit(shape, t)
        if alpha <= obtuse_threshold():
            arc_obtuse = False
        else:
            xp = right_angle_vertex(shape)
            verts = sample.triangle.vertices
            margin = 1e-9 * shape.a
            if any(abs(abs(p.x) - xp.x) <= margin for p in verts):
                continue  # too close to the boundary of the arcs to call
            arc_obtuse = any(abs(p.x) < xp.x for p in verts)
        assert (sample.shape_class is ShapeClass.OBTUSE) == arc_obtuse


def test_right_angle_vertex_properties():
    xp = right_angle_vertex(SHAPE)
    a2, b2, d = SHAPE.a**2, SHAPE.b**2, SHAPE.delta
    assert abs(SHAPE.boundary_value(xp)) <= 1e-12
    c8 = SHAPE.c2**4
    quartic = (
        c8 * xp.x**4
        - 2 * a2**2 * SHAPE.c2 * (a2**2 + 3 * b2**2) * xp.x**2
        + a2**4 * (a2**2 + 2 * a2 * b2 - 7 * b2**2)
    )
    assert abs(quartic) <= 1e-10 * a2**4
    t_perp = math.atan2(xp.y / SHAPE.b, xp.x / SHAPE.a)
    tri = orbit(SHAPE, t_perp).triangle
    assert abs((tri.p2 - tri.p1).dot(tri.p3 - tri.p1)) <= 1e-9
    assert classify_triangle(tri) is ShapeClass.RIGHT


def test_right_angle_vertex_below_threshold_raises():
    with pytest.raises(InvalidShape):
        right_angle_vertex(BilliardShape(1.3, 1.0))


def test_classification_flips_at_right_vertex():
    xp = right_angle_vertex(SHAPE)
    t_perp = math.atan2(xp.y / SHAPE.b, xp.x / SHAPE.a)
    step = 1e-5
    ts = np.arange(t_perp - 50 * step, t_perp + 50 * step, step)
    classes = [classify_orbit(SHAPE, float(t)) for t in ts]
    flips = [
        i
        for i in range(len(ts) - 1)
        if (classes[i] is ShapeClass.OBTUSE) != (classes[i + 1] is ShapeClass.OBTUSE)
    ]
    assert len(flips) == 1
    assert abs(ts[flips[0]] - t_perp) <= 2 * step


def test_thresholds():
    a4 = obtuse_threshold()
    aeq = equilateral_orthic_threshold()
    assert a4 == pytest.approx(1.352, abs=1e-3)
    assert aeq == pytest.approx(1.982, abs=1e-3)
    assert abs(aeq**4 + 6 * aeq**2 - 39.0) <= 1e-10
    assert abs(a4**2 - (2.0 * math.sqrt(2.0) - 1.0)) <= 1e-12


def test_obtuse_arc_collapses_at_threshold():
    shape = BilliardShape(obtuse_threshold() + 1e-9, 1.0)
    xp = right_angle_vertex(shape)
    assert xp.x <= 1e-3
    assert xp.y == pytest.approx(shape.b, abs=1e-5)


def test_isosceles_dimensions_match_orbit():
    s_eq, h = isosceles_dimensions(SHAPE)
    tri = orbit(SHAPE, math.pi / 2.0).triangle
    assert abs(abs(tri.p2.x) - s_eq) <= 1e-10
    assert abs((SHAPE.b - tri.p2.y) - h) <= 1e-10
    assert tri.p1.dist(Point(0.0, SHAPE.b)) <= 1e-12


def test_isosceles_ratio_at_equilateral_threshold():
    shape = BilliardShape(equilateral_orthic_threshold(), 1.0)
    s_eq, h = isosceles_dimensions(shape)
    assert abs(h / s_eq - math.sqrt(3.0) / 3.0) <= 1e-10


def test_equilateral_limit_of_isosceles_dimensions():
    shape = BilliardShape(1.0 + 1e-5, 1.0)
    s_eq, h = isosceles_dimensions(shape)
    assert s_eq == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-4)
    assert h == pytest.approx(1.5, abs=1e-4)


def test_caustic_values_and_tangency():
    caus = caustic(SHAPE)
    assert caus.semi_major == pytest.approx(1.1430749027719962, abs=1e-12)
    assert caus.semi_minor == pytest.approx(0.2379500648186692, abs=1e-12)
    assert abs(caus.semi_major**2 - caus.semi_minor**2 - SHAPE.c2) <= 1e-9
    conic = ellipse_to_conic(caus)
    for t in grid(360):
        verts = orbit(SHAPE, t).triangle.vertices
        for i in range(3):
            res = line_conic_tangency_residual(conic, verts[i], verts[(i + 1) % 3])
            assert res <= 1e-9


def test_rho_constant_and_closed_form():
    rho_form = inradius_to_circumradius(SHAPE)
    assert rho_form == pytest.approx(0.36266, abs=1e-5)
    values = []
    for t in grid(360):
        tri = orbit(SHAPE, t).triangle
        values.append(tri.inradius() / tri.circumradius())
    assert (max(values) - min(values)) / np.mean(values) <= 1e-9
    assert abs(np.mean(values) - rho_form) <= 1e-9
