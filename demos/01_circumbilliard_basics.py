"""
The circumbilliard of a triangle
================================

Every triangle has a unique circumellipse centered on its Mittenpunkt
(X9), and the triangle is a billiard orbit of that ellipse: at each
vertex the ellipse normal bisects the vertex angle.  This script builds
that ellipse for a hand-picked triangle, shows that the triangle is a
3-periodic of it by rebuilding the orbit through its first vertex with
the billiard's own Poncelet construction, and then closes the loop:
orbits generated inside a known billiard recover the billiard itself.
"""
import math

from orbitconics import (
    BilliardShape,
    Point,
    Triangle,
    circumbilliard,
    orbit,
)

# An arbitrary scalene triangle.
tri = Triangle(Point(-1.2, 0.1), Point(1.7, -0.4), Point(0.3, 1.5))
result = circumbilliard(tri)

print("triangle sidelengths:", [round(s, 6) for s in tri.sidelengths()])
print("mittenpunkt:         ", result.mittenpunkt)
print("ellipse center:      ", result.params.center)
print("semi-axes:           ", result.params.semi_major, result.params.semi_minor)
print("axis angle (deg):    ", math.degrees(result.params.axis_angle))
print("aspect ratio:        ", result.aspect)

# In the circumbilliard's own frame (center at X9, major axis along x) the
# triangle is the orbit whose first vertex sits at parameter t1, where
# (x1, y1) = (a cos t1, b sin t1).  Both wind counterclockwise, so vertex
# i of one is vertex i of the other.
p = result.params
turn = complex(math.cos(-p.axis_angle), math.sin(-p.axis_angle))
moved = [Point.from_complex((v.z - p.center.z) * turn) for v in tri.vertices]
t1 = math.atan2(moved[0].y / p.semi_minor, moved[0].x / p.semi_major)
rebuilt = orbit(BilliardShape(p.semi_major, p.semi_minor), t1).triangle
offset = max(u.dist(v) for u, v in zip(moved, rebuilt.vertices))
print("rebuilt orbit offset:", f"{offset:.1e}", "(largest vertex distance)")

# Now start from a billiard with semi-axes (1.5, 1.0), take the orbit
# triangle at a few parameters, and ask for its circumbilliard.  The
# construction is a fixed point: we get the original ellipse back.
shape = BilliardShape(1.5, 1.0)
print("\nfixed-point check on the (1.5, 1.0) billiard:")
for t in (0.2, 1.1, 2.9):
    rec = circumbilliard(orbit(shape, t).triangle).params
    print(
        f"  t={t:4.1f}  recovered axes=({rec.semi_major:.12f}, {rec.semi_minor:.12f})"
        f"  center offset={rec.center.norm():.2e}"
    )
