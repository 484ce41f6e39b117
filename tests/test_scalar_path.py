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
from conftest import placed_triangle
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
        exc = oc.excentral(tri)
        yield f"x3 inconic {name}", lambda tri=tri, exc=exc: oc.conic_to_ellipse_params(
            oc.solve_inconic(exc, oc.center(tri, 40)))
        yield f"MacBeath inconic {name}", lambda exc=exc: oc.conic_to_ellipse_params(
            oc.solve_inconic(exc, oc.center(exc, 5)))


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
    # an id is looked up as given, never truncated to X3 or parsed to X7
    ("fractional center id", lambda: oc.center(oc.orbit(SHAPE, 0.4).triangle, 3.7), KeyError),
    ("string center id", lambda: oc.center(oc.orbit(SHAPE, 0.4).triangle, "7"), KeyError),
    ("unknown derived triangle",
     lambda: oc.derived_triangle(oc.orbit(SHAPE, 0.4).triangle, "pedal"), KeyError),
    ("unknown inconic",
     lambda: oc.excentral_inconic_axes(oc.orbit(SHAPE, 0.4).triangle, "bogus"), KeyError),
    ("empty ellipse", lambda: oc.conic_to_ellipse_params(oc.Conic(1.0, 0.0, 1.0, 0.0, 0.0, 1.0)),
     oc.NotAnEllipse),
    ("ellipse as hyperbola", lambda: oc.focal_length(oc.Conic(1.0, 0.0, 1.0, 0.0, 0.0, -1.0)),
     oc.DegenerateConic),
    # refused before the grid is evaluated, where a nan coefficient gives no sign change (read as
    # "no intersections") and an inf one gives inf * 0 = nan with a RuntimeWarning
    ("intersect nan conic",
     lambda: oc.billiard_intersections(SHAPE, oc.Conic(NAN, 0.0, 1.0, 0.0, 0.0, -1.0)), ValueError),
    ("intersect inf conic",
     lambda: oc.billiard_intersections(SHAPE, oc.Conic(INF, 0.0, -INF, 0.0, 0.0, -1.0)), ValueError),
    ("intersect -inf conic",
     lambda: oc.billiard_intersections(SHAPE, oc.Conic(0.0, 0.0, 1.0, -INF, 0.0, -1.0)), ValueError),
])
def test_bad_inputs_raise_their_exception_types(label, call, exc):
    with pytest.raises(exc):
        call()


def test_an_integral_center_id_of_any_number_type_answers():
    tri = oc.orbit(SHAPE, 0.4).triangle
    assert oc.center(tri, 9.0) == oc.center(tri, np.int64(9)) == oc.center(tri, 9)


def test_focal_length_of_a_thin_hyperbola_does_not_cancel():
    # eigenvalues 3 and -1e-20, K = -1: a^2 = 1 / 1e-20
    assert oc.focal_length(oc.Conic(3.0, 0.0, -1e-20, 0.0, 0.0, 1.0)) == pytest.approx(2e10, rel=1e-15)


def _one_triangle_calls(t):
    for index in sorted(oc.SUPPORTED_CENTERS):
        yield f"X{index}", lambda: oc.center(t, index)
    yield "X6*", lambda: oc.center(t, oc.ORTHIC_CB_CENTER)
    yield "circumbilliard", lambda: oc.circumbilliard(t)
    for which in DERIVED_TRIANGLES:
        yield f"{which} cb", lambda which=which: oc.derived_cb(t, which)
    yield "feuerbach", lambda: oc.focal_length(oc.feuerbach_hyperbola(t))
    yield "jerabek", lambda: oc.focal_length(oc.jerabek_excentral(t))
    yield "X9 inconic", lambda: oc.solve_inconic(t, oc.center(t, 9))
    yield "x3 inconic", lambda: oc.solve_inconic(oc.excentral(t), oc.center(t, 40))
    for which in ("x3", "macbeath"):
        yield f"{which} axes", lambda which=which: oc.excentral_inconic_axes(t, which)


def _placed_triangles(n, seed=20):
    """Apex heights 1e-11..1 over a unit base, acute and obtuse, turned and moved, at 10^U(-320, 308)."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield (rng.uniform(-1.5, 2.5), rng.uniform(-11.0, 0.0), rng.uniform(-320.0, 308.0),
               rng.uniform(0.0, 2.0 * math.pi), rng.uniform(-1.0, 1.0, 2))


# b c overflows while the area, 2.05e305, stays finite: the excentral's 1 / (b + c - a) read 0 and
# was then divided by
BC_OVERFLOWS = [(2.0359714777331855e-214, 2.0359714777331855e-214),
                (1.2195913147207567e+157, 2.0359714777331855e-214),
                (4.614116733194484e+156, 3.3623290086802485e+148)]
# s1 s2 s3 underflows to 0, so the excentral inconic's R read 0
ABC_UNDERFLOWS = [(0.0, 0.0), (3e-110, 0.0), (1e-110, 2e-110)]


def test_no_one_triangle_call_raises_an_untyped_error_at_any_scale():
    makers = [lambda: oc.Triangle.from_coords(BC_OVERFLOWS),
              lambda: oc.Triangle.from_coords(ABC_UNDERFLOWS)]
    makers += [lambda args=args: placed_triangle(*args) for args in _placed_triangles(2000)]
    answered = 0
    for make in makers:
        try:
            t = make()
        except (oc.OrbitConicsError, ValueError):
            continue
        for name, call in _one_triangle_calls(t):
            try:
                call()
                answered += 1
            except (oc.OrbitConicsError, ValueError, KeyError):
                pass
            except Exception as exc:
                raise AssertionError(f"{name} of {t!r} raised {type(exc).__name__}") from exc
    assert answered > 10_000  # of about 66,000 calls: most scales near 1 answer, not only refuse


def test_the_excentral_of_a_triangle_whose_b_c_overflows_is_refused_as_its_stacked_row():
    t = oc.Triangle.from_coords(BC_OVERFLOWS)
    for call in (oc.excentral, lambda t: oc.center(t, 168), lambda t: oc.derived_cb(t, "excentral"),
                 oc.jerabek_excentral):
        with pytest.raises(ValueError, match="non-finite derived triangle"):
            call(t)
