"""Triangle families in elliptic billiards: circumbilliards, loci, invariants.

Only the exception types are imported with the package.  The modules
that import numpy load on the first lookup of any name they export
(PEP 562), so ``import orbitconics`` stays at the interpreter's floor.
"""

import importlib

from .errors import (
    ClosureFailure,
    DegenerateConic,
    DegenerateTriangle,
    IllConditioned,
    InvalidShape,
    NoRealConic,
    NotAnEllipse,
    OrbitConicsError,
    PointAtInfinity,
    RightTriangle,
    SingularSystem,
    UndefinedForShape,
)

__version__ = "0.1.0"

#: Names the package exports on first use, by defining module.
_LAZY_EXPORTS = {
    "billiard": (
        "BilliardShape", "Family", "OrbitSample", "ShapeClass", "caustic", "classify_orbit",
        "classify_triangle", "equilateral_orthic_threshold", "inradius_to_circumradius",
        "obtuse_threshold", "orbit", "orthic_center_transition", "right_angle_vertex",
    ),
    "centers": (
        "ORTHIC_CB_CENTER", "SUPPORTED_CENTERS", "act", "center", "derived_triangle",
        "excentral", "medial", "orthic", "orthic_cb_center",
    ),
    "circumbilliard": (
        "CircumbilliardResult", "circumbilliard", "derived_cb",
    ),
    "conic_invariants": (
        "FocalProfile", "FocalSample", "PoristicShape", "billiard_intersections",
        "count_interior_maxima", "excentral_inconic_axes", "feuerbach_hyperbola",
        "focal_profile", "focal_ratio_closed_form", "jerabek_excentral",
        "macbeath_inconic_ratio", "poristic_cb_aspect", "poristic_triangle", "x3_inconic_ratio",
    ),
    "kernel": (
        "Conic", "EllipseParams", "Point", "Points", "Skips", "Tri", "Triangle", "conic_center",
        "conic_eval", "conic_to_ellipse_params", "focal_length", "solve_circumconic", "solve_inconic",
    ),
    "loci": (
        "CircleFit", "InvariantReport", "LocusFitReport", "LocusSweep", "Verdict",
        "fit_by_shape_class", "fit_circle", "fit_locus", "invariant_report", "sweep_locus",
    ),
}

__all__ = sorted(
    # the exception types imported above, then the lazy exports
    [name for name, value in globals().items() if isinstance(value, type)]
    + [name for names in _LAZY_EXPORTS.values() for name in names]
)


def __getattr__(name: str):
    """Bind every lazy export on the first lookup of any of them.

    Every module is imported, not only the one defining ``name``, so one
    use of the package leaves all of it in ``sys.modules``: code that
    walks the loaded modules (as the benchmark's tracer does) then sees
    them all.  Other names, submodules included, raise AttributeError:
    a module's ``from . import centers`` asks the package for
    ``centers`` before importing it, which must not start a second load.
    """
    if not any(name in names for names in _LAZY_EXPORTS.values()):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module_name, names in _LAZY_EXPORTS.items():
        module = importlib.import_module(f"{__name__}.{module_name}")
        globals().update((n, getattr(module, n)) for n in names)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
