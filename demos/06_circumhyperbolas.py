"""
Feuerbach and excentral Jerabek hyperbolas
==========================================

Both rectangular circumhyperbolas pass through the stationary
Mittenpunkt at the billiard center, keep their asymptotes parallel to
the billiard axes, and their focal lengths vary in lockstep: the ratio
is sqrt(2 R / r), an invariant of the family.  The Feuerbach hyperbola
meets the billiard boundary at X1156.
"""
import numpy as np

from orbitconics import (
    BilliardShape,
    billiard_intersections,
    center,
    conic_center,
    conic_eval,
    count_interior_maxima,
    feuerbach_hyperbola,
    focal_length,
    focal_profile,
    focal_ratio_closed_form,
    jerabek_excentral,
    orbit,
)

shape = BilliardShape(1.5, 1.0)
tri = orbit(shape, 0.4).triangle

F = feuerbach_hyperbola(tri)
J = jerabek_excentral(tri)
print("Feuerbach:        ", F)
print("  center (=X11):  ", conic_center(F), " vs ", center(tri, 11))
print("  focal length:   ", focal_length(F))
print("excentral Jerabek:", J)
print("  center (=X100): ", conic_center(J), " vs ", center(tri, 100))
print("  focal length:   ", focal_length(J))
print("ratio:            ", focal_length(J) / focal_length(F))
print("closed form:      ", focal_ratio_closed_form(shape))

x1156 = center(tri, 1156)
print("\nX1156:", x1156)
print("  on billiard:", shape.boundary_value(x1156))
print("  on Feuerbach hyperbola:", conic_eval(F, x1156))

pts = billiard_intersections(shape, J)
print(f"\nexcentral Jerabek meets the billiard in {len(pts)} real points:")
for p in pts:
    print("  ", p)

# focal-length profile over the first quadrant: three simultaneous maxima
for alpha in (1.3, 1.5):
    sh = BilliardShape(alpha, 1.0)
    profile = focal_profile(sh, n=2000)
    lam = [s.feuerbach for s in profile]
    ratios = np.array([s.ratio for s in profile])
    print(
        f"\na/b={alpha}: {count_interior_maxima(lam)} interior maxima of the focal length,"
        f" ratio spread {(ratios.max() - ratios.min()):.2e}"
    )
