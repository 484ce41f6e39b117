import dataclasses
import math

import numpy as np
import pytest

from orbitconics import (
    BilliardShape,
    DegenerateTriangle,
    LocusFitReport,
    IllConditioned,
    InvalidShape,
    Point,
    Points,
    PoristicShape,
    RightTriangle,
    Verdict,
    fit_by_shape_class,
    fit_locus,
    focal_profile,
    invariant_report,
    orbit,
    orthic,
    right_angle_vertex,
    sweep_locus,
)
from orbitconics.loci import poristic_report, sample_grid

SHAPE = BilliardShape(1.5, 1.0)


def test_fit_exact_ellipse():
    pts = [
        Point(1.5 * math.cos(u), math.sin(u))
        for u in np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    ]
    report = fit_locus(pts)
    assert report.verdict is Verdict.ELLIPTIC
    assert report.fit_A == pytest.approx(1 / 2.25, abs=1e-12)
    assert report.fit_B == pytest.approx(1.0, abs=1e-12)
    assert report.rms_residual <= 1e-12
    assert report.fitted_axes == pytest.approx((1.5, 1.0), abs=1e-12)


def test_fit_of_a_hyperbola_is_non_elliptic_without_axes():
    # 16 points of x^2 - y^2 = 1: the fitted B is negative, so there are no axes to report
    pts = [Point(sign * math.cosh(u), math.sinh(u))
           for u in np.linspace(-1.5, 1.5, 8) for sign in (1.0, -1.0)]
    report = fit_locus(pts)
    assert report.fit_B == pytest.approx(-1.0, abs=1e-12)
    assert report.verdict is Verdict.NON_ELLIPTIC
    assert report.fitted_axes is None


def test_fit_requires_enough_samples():
    with pytest.raises(ValueError):
        fit_locus([Point(1.0, 0.0)] * 5)


def test_fit_ill_conditioned_for_collinear_through_origin():
    pts = [Point(x, 0.0) for x in np.linspace(-1, 1, 16) if abs(x) > 0.1]
    with pytest.raises(IllConditioned):
        fit_locus(pts)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_refuses_normal_equations_beyond_the_float_range():
    # the normal equations multiply sums of fourth powers as Python floats, which overflow to
    # inf or nan silently: the X7 locus at 2^127 gave A = B = 0 and at 2^128 a nan fit, both
    # read NON_ELLIPTIC; at 2^126 the fit is the one at scale 1, to the bit
    want = fit_locus(sweep_locus(SHAPE, 7).points)
    got = fit_locus(sweep_locus(BilliardShape(1.5 * 2.0**126, 2.0**126), 7).points)
    assert (got.fit_A * 2.0**252, got.fit_B * 2.0**252) == (want.fit_A, want.fit_B)
    assert (got.rms_residual, got.verdict) == (want.rms_residual, Verdict.ELLIPTIC)
    for k in (127, 128):
        sweep = sweep_locus(BilliardShape(1.5 * 2.0**k, 2.0**k), 7)
        with pytest.raises(ValueError, match="^non-finite normal equations$"):
            fit_locus(sweep.points)


def test_sweep_x9_stationary():
    sweep = sweep_locus(SHAPE, 9, n=360)
    assert len(sweep.points) == 360
    assert max(p.norm() for p in sweep.points) <= 1e-9 * SHAPE.a
    assert not sweep.skipped


def test_sweep_rejects_tiny_n():
    with pytest.raises(ValueError):
        sweep_locus(SHAPE, 9, n=4)


def test_x7_locus_elliptic_similar_to_billiard():
    k = (2 * SHAPE.delta - SHAPE.a**2 - SHAPE.b**2) / SHAPE.c2
    assert k == pytest.approx(0.5240998703626616, abs=1e-12)
    report = fit_locus(sweep_locus(SHAPE, 7, n=720).points)
    assert report.verdict is Verdict.ELLIPTIC
    ax, ay = report.fitted_axes
    assert abs(ax - k * SHAPE.a) <= 1e-9
    assert abs(ay - k * SHAPE.b) <= 1e-9
    assert abs(ax / ay - SHAPE.alpha) <= 1e-9


def test_x142_locus_half_of_x7():
    rep7 = fit_locus(sweep_locus(SHAPE, 7, n=720).points)
    rep142 = fit_locus(sweep_locus(SHAPE, 142, n=720).points)
    assert rep142.verdict is Verdict.ELLIPTIC
    assert abs(rep142.fitted_axes[0] - rep7.fitted_axes[0] / 2) <= 1e-9
    assert abs(rep142.fitted_axes[1] - rep7.fitted_axes[1] / 2) <= 1e-9


def test_x6_locus_non_elliptic():
    report = fit_locus(sweep_locus(SHAPE, 6, n=720).points)
    assert report.verdict is Verdict.NON_ELLIPTIC
    assert report.rms_residual >= 1e-4 * report.mean_radius


@pytest.mark.parametrize("alpha", [1.5, 1.618])
def test_x168_locus_non_elliptic(alpha):
    shape = BilliardShape(alpha, 1.0)
    report = fit_locus(sweep_locus(shape, 168, n=720).points)
    assert report.verdict is Verdict.NON_ELLIPTIC
    assert report.rms_residual >= 1e-4 * report.mean_radius


def test_excenter_vertex_sweep_fits_closed_form():
    sweep = sweep_locus(SHAPE, "vertices", derived="excentral", n=360)
    assert len(sweep.points) == 3 * 360
    report = fit_locus(sweep.points)
    assert report.verdict is Verdict.ELLIPTIC
    a_e = (SHAPE.b**2 + SHAPE.delta) / SHAPE.a
    b_e = (SHAPE.a**2 + SHAPE.delta) / SHAPE.b
    assert abs(report.fitted_axes[0] - a_e) <= 1e-9
    assert abs(report.fitted_axes[1] - b_e) <= 1e-9


def test_orthic_center_census_partitions():
    sweep = sweep_locus(SHAPE, "X6star", derived="orthic", n=720)
    pieces = fit_by_shape_class(sweep)
    assert set(pieces) == {"acute", "obtuse"}
    overall = fit_locus(sweep.points)
    assert overall.verdict is Verdict.NON_ELLIPTIC
    # obtuse piece is decisively non elliptic; acute piece spans partial
    # arcs of the symmedian quartic and stays short of the elliptic bar
    assert pieces["obtuse"].verdict is Verdict.NON_ELLIPTIC
    assert pieces["acute"].verdict is not Verdict.ELLIPTIC


def test_sweep_reports_skipped_samples():
    # a/b whose right-triangle orbit parameter lies on the 16-sample grid
    target = float(sample_grid(16)[2])

    def right_angle_t(alpha):
        shape = BilliardShape(alpha, 1.0)
        p = right_angle_vertex(shape)
        return math.atan2(p.y / shape.b, p.x / shape.a)

    lo, hi = 1.4, 1.7
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if right_angle_t(mid) > target else (lo, mid)
    shape = BilliardShape(lo, 1.0)
    sweep = sweep_locus(shape, 9, derived="orthic", n=16)
    assert len(sweep.points) == 12
    assert [reason for _, reason in sweep.skipped] == ["RightTriangle"] * 4
    skipped_t = [t for t, _ in sweep.skipped]
    mirrors = [target, math.pi - target, math.pi + target, 2 * math.pi - target]
    assert skipped_t == pytest.approx(mirrors, abs=1e-12)
    for t in skipped_t:
        with pytest.raises(RightTriangle):
            orthic(orbit(shape, t).triangle)


def test_invariant_report_passes():
    for alpha in (1.5, 1.618):
        report = invariant_report(BilliardShape(alpha, 1.0), n=360)
        assert report.all_passed
        assert abs(report.rho_mean - report.rho_closed_form) <= 1e-9
        payload = report.as_dict()
        assert payload["all_passed"] is True
        assert len(payload["checks"]) == 9


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("report, shape", [(invariant_report, BilliardShape(7.5e76, 5e76)),
                                           (poristic_report, PoristicShape(0.725e77, 2e77))],
                         ids=["invariants", "poristic"])
def test_reports_refuse_circumbilliard_axes_beyond_the_float_range(report, shape):
    # every sample's circumbilliard conic overflows (D and E, of length degree 4); none is kept
    with pytest.raises(ValueError, match="^non-finite ellipse center or semi-axes$"):
        report(shape, n=16)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-76, 1e44, 1e76])
def test_reports_answer_at_every_scale_their_shapes_accept(scale):
    # the closed-form circumbilliard axes square no coefficient and take no AC - B^2, so they are
    # refused only where the conic itself overflows, next to the shapes' own edge at 1e77
    report = invariant_report(BilliardShape(1.5 * scale, scale), n=16)
    assert report.n_skipped == 0 and report.all_passed
    unit, scaled = poristic_report(PoristicShape(0.3625, 1.0), n=16), poristic_report(
        PoristicShape(0.3625 * scale, scale), n=16)
    assert scaled.n_skipped == 0
    assert scaled.aspect_mean == pytest.approx(unit.aspect_mean, rel=1e-12)
    assert scaled.closed_form_abs_diff <= 1e-9


def test_invariant_report_rejects_circle():
    with pytest.raises(InvalidShape):
        invariant_report(BilliardShape(1.0, 1.0), n=16)


# ---------------------------------------------------------------- array-backed points

SPLIT = BilliardShape(2.0, 1.0)


def test_mean_radius_is_the_one_mean_of_the_sample_distances():
    assert "mean_radius" in {f.name for f in dataclasses.fields(LocusFitReport)}
    for center_id in (7, 168):
        report = fit_locus(sweep_locus(SHAPE, center_id, n=720).points)
        z = report.samples.array
        assert report.mean_radius == float(np.mean(np.hypot(z.real, z.imag)))


def _same_fit(got, want):
    assert (got.fit_A, got.fit_B, got.rms_residual) == (want.fit_A, want.fit_B, want.rms_residual)
    assert got.verdict is want.verdict
    assert got.fitted_axes == want.fitted_axes
    assert got.mean_radius == want.mean_radius
    assert got.samples == want.samples


@pytest.mark.parametrize("center_id, derived", [
    (7, None), (168, None), ("X6star", "orthic"), ("vertices", "excentral"),
])
def test_fits_of_the_view_equal_fits_of_its_points(center_id, derived):
    sweep = sweep_locus(SPLIT, center_id, derived=derived, n=360)
    points = list(sweep.points)
    _same_fit(fit_locus(sweep.points), fit_locus(points))
    _same_fit(fit_locus(sweep.points), fit_locus([p.as_tuple() for p in points]))
    pieces = fit_by_shape_class(sweep)
    assert sorted(pieces) == ["acute", "obtuse"]
    for name, report in pieces.items():
        members = [p for p, c in zip(points, sweep.shape_classes) if c.value == name]
        _same_fit(report, fit_locus(members))


def test_sweep_and_fits_build_no_point_per_sample(monkeypatch):
    built = []
    init = Point.__init__

    def counted(self, x, y):
        built.append(self)
        init(self, x, y)

    monkeypatch.setattr(Point, "__init__", counted)
    counts = []
    for n in (48, 720):
        built.clear()
        sweep = sweep_locus(SPLIT, "vertices", derived="excentral", n=n)
        fit_locus(sweep.points)
        fit_by_shape_class(sweep)
        counts.append(len(built))
    assert counts == [0, 0]


def test_points_view_is_a_read_only_sequence():
    acute = BilliardShape(1.25, 1.0)
    sweep = sweep_locus(acute, 7, n=16)
    view = sweep.points
    z = view.array
    assert len(view) == 16
    assert view[0] == Point(z[0].real, z[0].imag)
    assert view[-1] == Point(z[-1].real, z[-1].imag)
    assert view[2:4] == [view[2], view[3]]
    assert list(view) == [Point(w.real, w.imag) for w in z.tolist()]
    assert view == list(view) and view == tuple(view)
    assert view == sweep_locus(acute, 7, n=16).points
    assert view != sweep_locus(acute, 7, n=24).points
    assert view != 7 and view != {0: view[0]}  # a foreign type is not equal
    assert view != list(view)[:-1]
    with pytest.raises(IndexError):
        view[16]
    with pytest.raises(ValueError):
        z[0] = 0.0
    with pytest.raises(TypeError):
        hash(view)
    assert repr(view) == f"Points({list(view)!r})"
    assert [c.value for c in sweep.shape_classes] == ["acute"] * 16


def test_points_refuse_non_finite():
    with pytest.raises(ValueError, match="non-finite point"):
        Points(np.array([1.0 + 1.0j, complex(math.nan, 0.0)]))
    with pytest.raises(ValueError, match="non-finite point"):
        fit_locus([(1.0, 2.0)] * 8 + [(math.inf, 0.0)])


def test_shape_class_fits_leave_out_an_undetermined_piece():
    # at n = 48 the acute piece of the X7 locus is 8 samples in two mirror-image
    # groups on a short arc: its fit is refused, the obtuse piece still fits
    sweep = sweep_locus(BilliardShape(1.9950671726261742, 1.0), 7, n=48)
    acute = [p for p, c in zip(sweep.points, sweep.shape_classes) if c.value == "acute"]
    assert len(acute) == 8
    with pytest.raises(IllConditioned):
        fit_locus(acute)
    assert sorted(fit_by_shape_class(sweep)) == ["obtuse"]


class _Refusing:
    """``shape`` with a family that refuses the samples at the indices ``bad``."""

    def __init__(self, shape, bad):
        self.shape, self.bad = shape, bad

    def __getattr__(self, name):
        return getattr(self.shape, name)

    def family(self, t, guard):
        guard.check(np.isin(np.arange(t.size), self.bad), DegenerateTriangle, "refused")
        return self.shape.family(t, guard)


SWEEPS = {
    "sweep_locus": (SHAPE, lambda s, n: [t for t, _ in sweep_locus(s, 7, n=n).skipped]),
    "poristic sweep_locus": (PoristicShape(0.3625, 1.0),
                             lambda s, n: [t for t, _ in sweep_locus(s, 9, n=n).skipped]),
    "invariant_report": (SHAPE, lambda s, n: invariant_report(s, n).n_skipped),
    "poristic_report": (PoristicShape(0.3625, 1.0), lambda s, n: poristic_report(s, n).n_skipped),
    "focal_profile": (SHAPE, lambda s, n: [t for t, _ in focal_profile(s, n).skipped]),
}


@pytest.mark.parametrize("name", SWEEPS)
def test_every_sweep_skips_and_counts_refused_samples(name):
    shape, skipped = SWEEPS[name]
    got = skipped(_Refusing(shape, [0, 5]), 16)
    grid = sample_grid(16) / (4 if name == "focal_profile" else 1)
    assert got == (2 if isinstance(got, int) else grid[[0, 5]].tolist())
    assert skipped(shape, 16) in (0, [])


@pytest.mark.parametrize("name", SWEEPS)
def test_every_sweep_raises_the_first_refusal_below_the_minimum(name):
    shape, skipped = SWEEPS[name]
    with pytest.raises(DegenerateTriangle, match="refused"):
        skipped(_Refusing(shape, list(range(3, 12))), 16)


@pytest.mark.parametrize("n", [0, 7])
@pytest.mark.parametrize("name", SWEEPS)
def test_every_sweep_refuses_fewer_than_8_samples_before_sampling(name, n):
    # every sample of the family would be refused, so only the argument check can answer
    shape, skipped = SWEEPS[name]
    with pytest.raises(ValueError, match="need at least 8 samples"):
        skipped(_Refusing(shape, list(range(n))), n)
