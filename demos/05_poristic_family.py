"""
The poristic family and its circumbilliard aspect ratio
=======================================================

Triangles sharing a fixed incircle and circumcircle form a
one-parameter family (Poncelet closure for two circles under Euler's
relation).  Their inradius-to-circumradius ratio rho is constant by
construction, and the aspect ratio of their circumbilliards is an
invariant with a closed form in rho.
"""
import math

import numpy as np

from orbitconics import (
    BilliardShape,
    PoristicShape,
    circumbilliard,
    fit_circle,
    inradius_to_circumradius,
    poristic_cb_aspect,
    poristic_triangle,
)

ps = PoristicShape(r=0.3625, R=1.0)
print(f"family with r={ps.r}, R={ps.R}: rho={ps.rho}, |X1 X3| = d = {ps.d:.6f}\n")

aspects, x9s = [], []
for k in range(360):
    theta = (k + 0.5) * 2 * math.pi / 360
    tri = poristic_triangle(ps, theta)
    res = circumbilliard(tri)
    aspects.append(res.aspect)
    x9s.append(res.mittenpunkt)

aspects = np.array(aspects)
print("aspect over 360 family members:")
print("  mean:       ", aspects.mean())
print("  spread:     ", aspects.max() - aspects.min())
print("  closed form:", poristic_cb_aspect(ps))

# the Mittenpunkt wanders, but on a perfect circle
circle = fit_circle(x9s)
print(f"\nMittenpunkt locus: circle center=({circle.center.x:.9f}, {circle.center.y:.9f}) "
      f"radius={circle.radius:.9f}")
print(f"circle-fit rms: {circle.rms:.2e}")

# closing the loop with the billiard family: the orbit family of an
# (a, b) billiard has a fixed rho, and feeding that rho back into the
# poristic formula returns exactly a/b.
shape = BilliardShape(1.5, 1.0)
rho = inradius_to_circumradius(shape)
print(f"\nbilliard a/b=1.5 has rho={rho:.9f};")
print(f"poristic aspect at that rho: {poristic_cb_aspect(PoristicShape(rho, 1.0)):.12f}")
