"""Exception hierarchy shared by all modules."""


class OrbitConicsError(Exception):
    """Base class for all numerical-geometry failures raised by this package."""


class SingularSystem(OrbitConicsError):
    """A linear system was too ill-conditioned to solve reliably."""


class NotAnEllipse(OrbitConicsError):
    """A conic expected to be an ellipse is a hyperbola, parabola or degenerate."""


class NoRealConic(OrbitConicsError):
    """No proper real conic meets the conditions, or rounding cannot tell which kind does."""


class DegenerateTriangle(OrbitConicsError):
    """Triangle area is below the degeneracy tolerance."""


class DegenerateConic(OrbitConicsError):
    """A conic collapsed to a line pair (for hyperbolas: foci coincide)."""


class PointAtInfinity(OrbitConicsError):
    """Homogeneous coordinates describe a direction, not a finite point."""


class RightTriangle(OrbitConicsError):
    """Operation undefined for right triangles (orthic collapses to a segment)."""


class UndefinedForShape(OrbitConicsError):
    """A triangle center does not exist (finitely) for this triangle shape."""


class IllConditioned(OrbitConicsError):
    """Least-squares normal equations exceed the condition threshold."""


class InvalidShape(OrbitConicsError):
    """Shape parameters violate their preconditions (e.g. a <= b, R < 2r)."""


class ClosureFailure(OrbitConicsError):
    """A Poncelet closure that must hold by construction failed numerically."""
