"""
Orthic circumbilliard and the acute/obtuse transition
=====================================================

Above the aspect-ratio threshold sqrt(2 sqrt(2) - 1) ~ 1.352 the orbit
family contains obtuse triangles; the boundary splits into arcs and the
orthic-CB center locus into four pieces.  At the right-triangle
configurations the orthic collapses to a segment, and the center locus
jumps between the symmedian-point rule and the auxiliary-triangle rule
through an explicit transition point.

At a/b = sqrt(4 sqrt(3) - 3) ~ 1.982 the orthic of the upright
isosceles orbit is equilateral, so its circumbilliard is a circle.
"""
import math

from orbitconics import (
    BilliardShape,
    classify_orbit,
    derived_cb,
    equilateral_orthic_threshold,
    obtuse_threshold,
    orbit,
    orthic_cb_center,
    orthic_center_transition,
    right_angle_vertex,
)

print("obtuse threshold:             ", obtuse_threshold())
print("equilateral-orthic threshold: ", equilateral_orthic_threshold())

shape = BilliardShape(1.5, 1.0)
p = right_angle_vertex(shape)
t_perp = math.atan2(p.y / shape.b, p.x / shape.a)
print("\nright-angle vertex:", p)
print("transition point:  ", orthic_center_transition(shape))

# walk the parameter across the right-triangle configuration
print("\nbranch switching around the right configuration:")
for dt in (-0.02, -0.005, 0.0, 0.005, 0.02):
    t = t_perp + dt
    sample = orbit(shape, t)
    # the center rule is the one of the orbit's shape class
    point = orthic_cb_center(sample.triangle)
    print(
        f"  t - t_perp = {dt:+.3f}  orbit and center rule are {sample.shape_class.value:6s}"
        f"  center = ({point.x:+.6f}, {point.y:+.6f})"
    )

# the equilateral-orthic configuration: the orthic CB becomes a circle
shape_eq = BilliardShape(equilateral_orthic_threshold(), 1.0)
tri = orbit(shape_eq, math.pi / 2).triangle
res = derived_cb(tri, "orthic")
print("\nat the equilateral-orthic threshold, upright isosceles orbit:")
print("  orthic CB aspect ratio:", res.aspect)

# classified sweep: fraction of obtuse orbits grows with a/b
for alpha in (1.3, 1.4, 1.6, 2.0):
    sh = BilliardShape(alpha, 1.0)
    n = 720
    obtuse = sum(
        classify_orbit(sh, (k + 0.5) * 2 * math.pi / n).value == "obtuse"
        for k in range(n)
    )
    print(f"a/b = {alpha:3.1f}: {obtuse / n:.1%} of the family is obtuse")
