"""One triangle is computed in plain Python floats, with the failures it always had.

The formulas shared with the batched kernel pick ``math`` for a number
and numpy for an array (``kernel.ufuncs``), so no numpy function runs and
no numpy scalar is made on the scalar path.
"""

import math
import sys
import types

import numpy as np
import pytest

import orbitconics as oc
from orbitconics import kernel
from orbitconics.circumbilliard import DERIVED_TRIANGLES

SHAPE = oc.BilliardShape(2.0, 1.0)
PORISTIC = oc.PoristicShape(0.3, 1.0)
NAN, INF = math.nan, math.inf


class _NoNumpy(types.ModuleType):
    """Stands in for numpy in the library: only the array type may be looked up."""

    def __getattr__(self, name):
        if name == "ndarray":
            return np.ndarray
        raise AssertionError(f"numpy.{name} used on the scalar path")


def _scalar_calls():
    acute = oc.orbit(SHAPE, 0.4).triangle
    obtuse = oc.orbit(SHAPE, 1.3).triangle
    assert oc.classify_triangle(obtuse) is oc.ShapeClass.OBTUSE
    yield "orbit", lambda: oc.orbit(SHAPE, 0.4)
    yield "poristic_triangle", lambda: oc.poristic_triangle(PORISTIC, 0.7)
    for name, tri in (("acute", acute), ("obtuse", obtuse)):
        yield f"circumbilliard {name}", lambda tri=tri: oc.circumbilliard(tri)
        yield f"classify {name}", lambda tri=tri: oc.classify_triangle(tri)
        yield f"X6* {name}", lambda tri=tri: oc.orthic_cb_center(tri)
        for index in sorted(oc.SUPPORTED_CENTERS):
            yield f"X{index} {name}", lambda tri=tri, index=index: oc.center(tri, index)
        for which in DERIVED_TRIANGLES:
            yield f"{which} cb {name}", lambda tri=tri, which=which: oc.derived_cb(tri, which)
        yield f"feuerbach {name}", lambda tri=tri: oc.focal_length(oc.feuerbach_hyperbola(tri))
        yield f"jerabek {name}", lambda tri=tri: oc.focal_length(oc.jerabek_excentral(tri))
        yield f"x3 axes {name}", lambda tri=tri: oc.excentral_inconic_axes(tri, "x3")


def test_scalar_path_runs_no_numpy_function(monkeypatch):
    calls = list(_scalar_calls())
    stub = _NoNumpy("numpy")
    # a function-level ``import numpy`` gets the stub from sys.modules,
    # a module-level one through the module's ``np``
    monkeypatch.setitem(sys.modules, "numpy", stub)
    bound = [m for name, m in sorted(sys.modules.items())
             if name.startswith("orbitconics") and hasattr(m, "np")]
    assert {m.__name__ for m in bound} == {"orbitconics.conic_invariants", "orbitconics.loci"}
    for module in bound:
        monkeypatch.setattr(module, "np", stub)
    for _, call in calls:
        call()


@pytest.mark.parametrize("t", [1, 0.4, np.float64(0.4), np.int64(1), np.array(0.4)],
                         ids=["int", "float", "float64", "int64", "0-d array"])
def test_orbit_of_a_number_is_one_sample(t):
    sample = oc.orbit(SHAPE, t)
    assert isinstance(sample, oc.OrbitSample)
    expected = oc.orbit(SHAPE, float(t)).triangle.vertices
    for p, q in zip(sample.triangle.vertices, expected):
        assert p.as_tuple() == pytest.approx(q.as_tuple(), rel=1e-15, abs=1e-15)


@pytest.mark.parametrize("ts", [[0.4, 1.3], (0.4, 1.3), np.array([0.4, 1.3]), range(2)],
                         ids=["list", "tuple", "1-d array", "range"])
def test_orbit_of_a_sequence_is_a_family(ts):
    fam = oc.orbit(SHAPE, ts)
    assert isinstance(fam, oc.Family)
    assert fam.t.tolist() == [float(t) for t in ts]
    assert fam.vertices.shape == (2, 3, 2)


def test_scalar_results_are_plain_floats():
    tri = oc.poristic_triangle(PORISTIC, 0.7)
    v = tri.tri
    assert all(type(z) is complex for z in v.vertices)
    assert all(type(x) is float for x in (v.s1, v.s2, v.s3, v.area))
    assert type(v.shape_code()) is int
    result = oc.circumbilliard(tri)
    params = oc.conic_to_ellipse_params(result.conic)
    for x in (*result.conic.coeffs, params.semi_major, params.semi_minor, params.axis_angle,
              params.center.x, result.mittenpunkt.x, result.aspect):
        assert type(x) is float
    center, major, minor, angle = kernel.ellipse_axes(result.conic, kernel.RAISE)
    assert type(center) is complex
    assert all(type(x) is float for x in (major, minor, angle))
    hyp = oc.feuerbach_hyperbola(oc.orbit(SHAPE, 0.4).triangle)
    assert all(type(x) is float for x in (*hyp.coeffs, oc.focal_length(hyp)))
    assert type(kernel.largest(1.0, 3.0, 2.0)) is float


@pytest.mark.parametrize("label, call, exc", [
    ("nan vertex", lambda: oc.Triangle.from_coords([(0, 0), (1, 0), (NAN, 1)]), ValueError),
    ("inf vertex", lambda: oc.Triangle.from_coords([(0, 0), (INF, 0), (0, 1)]), ValueError),
    ("collinear", lambda: oc.Triangle.from_coords([(0, 0), (1, 1), (2, 2)]), oc.DegenerateTriangle),
    ("repeated vertex", lambda: oc.Triangle.from_coords([(0, 0), (0, 0), (2, 1)]),
     oc.DegenerateTriangle),
    # at a/b = 1e7 the isosceles orbit's area is 0.005 of AREA_TOL times its longest side squared
    ("needle orbit", lambda: oc.orbit(oc.BilliardShape(1e7, 1.0), 0.0), oc.DegenerateTriangle),
    # r/R = 1.8e-15, a few ulps of d: the third side misses the incircle by 3.6e6x the bound
    ("poristic closure", lambda: oc.poristic_triangle(oc.PoristicShape(1.774741418233566e-15, 1.0),
                                                      0.0), oc.ClosureFailure),
    ("nan orbit parameter", lambda: oc.orbit(SHAPE, NAN), ValueError),
    ("inf orbit parameter", lambda: oc.orbit(SHAPE, INF), ValueError),
    ("nan poristic angle", lambda: oc.poristic_triangle(PORISTIC, NAN), ValueError),
    ("inf poristic angle", lambda: oc.poristic_triangle(PORISTIC, INF), ValueError),
    ("nan conic", lambda: oc.conic_to_ellipse_params(oc.Conic(NAN, 0.0, 1.0, 0.0, 0.0, -1.0)),
     ValueError),
    ("inf conic", lambda: oc.conic_to_ellipse_params(oc.Conic(INF, 0.0, 1.0, 0.0, 0.0, -1.0)),
     oc.NotAnEllipse),
    ("parabola center", lambda: oc.conic_center(oc.Conic(1.0, 1.0, 1.0, 0.0, 0.0, -1.0)),
     oc.PointAtInfinity),
    ("minor above major", lambda: oc.EllipseParams(oc.Point(0.0, 0.0), 1.0, 2.0, 0.0), ValueError),
    ("unknown center", lambda: oc.center(oc.orbit(SHAPE, 0.4).triangle, 12), KeyError),
    ("unknown derived triangle",
     lambda: oc.derived_triangle(oc.orbit(SHAPE, 0.4).triangle, "pedal"), KeyError),
    ("unknown inconic",
     lambda: oc.excentral_inconic_axes(oc.orbit(SHAPE, 0.4).triangle, "bogus"), KeyError),
    ("empty ellipse", lambda: oc.conic_to_ellipse_params(oc.Conic(1.0, 0.0, 1.0, 0.0, 0.0, 1.0)),
     oc.NotAnEllipse),
    ("ellipse as hyperbola", lambda: oc.focal_length(oc.Conic(1.0, 0.0, 1.0, 0.0, 0.0, -1.0)),
     oc.DegenerateConic),
    ("classify inf conic", lambda: oc.classify_conic(oc.Conic(INF, 0.0, 1.0, 0.0, 0.0, -1.0)),
     ValueError),
    ("classify nan conic", lambda: oc.classify_conic(oc.Conic(NAN, 0.0, 1.0, 0.0, 0.0, -1.0)),
     ValueError),
])
def test_bad_inputs_raise_their_exception_types(label, call, exc):
    with pytest.raises(exc):
        call()


def test_focal_length_of_a_thin_hyperbola_does_not_cancel():
    # eigenvalues 3 and -1e-20, K = -1: a^2 = 1 / 1e-20
    assert oc.focal_length(oc.Conic(3.0, 0.0, -1e-20, 0.0, 0.0, 1.0)) == pytest.approx(2e10, rel=1e-15)
