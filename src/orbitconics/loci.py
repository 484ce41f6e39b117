"""Center-locus sweeps, zero-centered ellipse fits, invariant reports.

A locus is sampled on a uniform parameter grid offset by half a step
(so exact isosceles configurations, where several derived conics
degenerate, are never hit).  Classification fits the two-parameter
model A x^2 + B y^2 = 1 by least squares; the verdict compares the rms
algebraic residual against the mean sample radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import centers
from .billiard import (
    SHAPE_CLASSES,
    BilliardShape,
    ShapeClass,
    inradius_to_circumradius,
    orbit,
)
from .circumbilliard import circumbilliard_of
from .errors import IllConditioned
from .kernel import Point, Skips, solve_linear

ELLIPTIC_RMS = 1e-8
NON_ELLIPTIC_RMS = 1e-4
#: Fewest samples a sweep or fit accepts.
MIN_SAMPLES = 8


class Verdict(Enum):
    ELLIPTIC = "elliptic"
    NON_ELLIPTIC = "non-elliptic"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class LocusFitReport:
    samples: list[Point]
    fit_A: float
    fit_B: float
    rms_residual: float
    verdict: Verdict
    fitted_axes: tuple[float, float] | None

    @property
    def mean_radius(self) -> float:
        return float(np.mean([p.norm() for p in self.samples]))


@dataclass(frozen=True)
class LocusSweep:
    points: list[Point]
    t_values: list[float]
    shape_classes: list[ShapeClass]
    skipped: list[tuple[float, str]] = field(default_factory=list)


def sample_grid(n: int) -> np.ndarray:
    """n parameters uniform on the circle, offset by half a step."""
    return (np.arange(n) + 0.5) * (2.0 * math.pi / n)


def _require_samples(n: int) -> None:
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples")


def sweep_locus(
    shape: BilliardShape,
    center_id,
    derived: str | None = None,
    n: int = 720,
) -> LocusSweep:
    """Positions of a center over the orbit family.

    ``center_id`` is a supported Kimberling index, the orthic-center
    selector, or the string "vertices" to collect the (derived)
    triangle's vertices themselves.  Samples whose derived construction
    degenerates are skipped and reported.
    """
    _require_samples(n)
    fam = orbit(shape, sample_grid(n))
    v, skips = fam.tri, Skips(n)
    with np.errstate(all="ignore"):
        if center_id == "vertices":
            target = centers.derived_of(v, derived, skips) if derived else v
            z = np.stack(target.vertices, axis=1)
        elif derived is None or (derived == "orthic" and center_id == centers.ORTHIC_CB_CENTER):
            # the orthic-CB center rule already lives on the reference
            z = centers.center_of(v, center_id, skips)[:, None]
        else:
            z = centers.center_of(centers.derived_of(v, derived, skips), center_id, skips)[:, None]
    keep = skips.valid
    per_sample = z.shape[1]
    z = z[keep].ravel()
    points = [Point(x, y) for x, y in zip(z.real.tolist(), z.imag.tolist())]
    t_values = np.repeat(fam.t[keep], per_sample).tolist()
    classes = [SHAPE_CLASSES[c] for c in np.repeat(fam.codes[keep], per_sample)]
    skipped = [(float(fam.t[i]), skips.reason(i)) for i in np.flatnonzero(~keep)]
    return LocusSweep(points, t_values, classes, skipped)


def _as_points(samples) -> list[Point]:
    return [p if isinstance(p, Point) else Point(p[0], p[1]) for p in samples]


def fit_locus(samples) -> LocusFitReport:
    """Least-squares fit of A x^2 + B y^2 = 1 through the samples."""
    pts = _as_points(samples)
    _require_samples(len(pts))
    x2 = np.array([p.x * p.x for p in pts])
    y2 = np.array([p.y * p.y for p in pts])
    normal = [[float(np.sum(x2 * x2)), float(np.sum(x2 * y2))],
              [float(np.sum(x2 * y2)), float(np.sum(y2 * y2))]]
    rhs = [float(np.sum(x2)), float(np.sum(y2))]
    A, B = solve_linear(normal, rhs, exc=IllConditioned)
    res = A * x2 + B * y2 - 1.0
    rms = float(np.sqrt(np.mean(res * res)))
    mean_radius = float(np.mean(np.sqrt(x2 + y2)))
    if A > 0.0 and B > 0.0:
        axes = (1.0 / math.sqrt(A), 1.0 / math.sqrt(B))
        if rms <= ELLIPTIC_RMS * mean_radius:
            verdict = Verdict.ELLIPTIC
        elif rms >= NON_ELLIPTIC_RMS * mean_radius:
            verdict = Verdict.NON_ELLIPTIC
        else:
            verdict = Verdict.INCONCLUSIVE
    else:
        axes = None
        verdict = Verdict.NON_ELLIPTIC
    return LocusFitReport(pts, float(A), float(B), rms, verdict, axes)


@dataclass(frozen=True)
class CircleFit:
    center: Point
    radius: float
    rms: float


def fit_circle(samples) -> CircleFit:
    """Algebraic least-squares circle through the samples (Points or (x, y) pairs).

    ``rms`` is the root-mean-square distance of the samples from the
    fitted circle.
    """
    pts = _as_points(samples)
    xs = np.array([p.x for p in pts])
    ys = np.array([p.y for p in pts])
    M = np.column_stack([xs, ys, np.ones_like(xs)])
    sol, *_ = np.linalg.lstsq(M, -(xs * xs + ys * ys), rcond=None)
    cx, cy = -sol[0] / 2.0, -sol[1] / 2.0
    radius = math.sqrt(max(cx * cx + cy * cy - sol[2], 0.0))
    rms = float(np.sqrt(np.mean((np.hypot(xs - cx, ys - cy) - radius) ** 2)))
    return CircleFit(Point(cx, cy), radius, rms)


def fit_by_shape_class(sweep: LocusSweep) -> dict[str, LocusFitReport]:
    """Per-piece fits of a sweep partitioned by orbit shape class.

    Needed for the orthic-center locus above the obtuse threshold,
    where the locus splits into acute and obtuse pieces.
    """
    out: dict[str, LocusFitReport] = {}
    for cls in (ShapeClass.ACUTE, ShapeClass.OBTUSE):
        pts = [p for p, c in zip(sweep.points, sweep.shape_classes) if c is cls]
        if len(pts) >= MIN_SAMPLES:
            out[cls.value] = fit_locus(pts)
    return out


@dataclass(frozen=True)
class QuantityStats:
    name: str
    minimum: float
    maximum: float
    spread: float
    tolerance: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "min": self.minimum,
            "max": self.maximum,
            "spread": self.spread,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class InvariantReport:
    a: float
    b: float
    n: int
    rho_closed_form: float
    rho_mean: float
    entries: list[QuantityStats]

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def as_dict(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "n": self.n,
            "rho_closed_form": self.rho_closed_form,
            "rho_mean": self.rho_mean,
            "all_passed": self.all_passed,
            "checks": [e.as_dict() for e in self.entries],
        }


def _rel_spread_stats(name: str, values, tol: float) -> QuantityStats:
    lo, hi = float(np.min(values)), float(np.max(values))
    spread = (hi - lo) / abs(float(np.mean(values)))
    return QuantityStats(name, lo, hi, spread, tol, spread <= tol)


def invariant_report(shape: BilliardShape, n: int = 720) -> InvariantReport:
    """Family-invariance statistics over n orbit samples.

    Checks the perimeter, the inradius-to-circumradius ratio (against
    its closed form), the stationarity of the Mittenpunkt, and the
    constancy and axis alignment of the anticomplementary and medial
    circumbilliards.  Raises the failure of the first sample on which a
    construction fails.
    """
    _require_samples(n)
    fam = orbit(shape, sample_grid(n))
    v, skips = fam.tri, Skips(n)
    with np.errstate(all="ignore"):
        x9n = abs(centers.center_of(v, 9, skips))
        cb_act = circumbilliard_of(centers.derived_of(v, "act", skips), skips)
        cb_med = circumbilliard_of(centers.derived_of(v, "medial", skips), skips)
    skips.raise_first()
    rho = v.inradius() / v.circumradius()
    ang = np.concatenate([cb_act.axis_angle, cb_med.axis_angle]) % math.pi
    angles = np.minimum(ang, math.pi - ang)
    rho_form = inradius_to_circumradius(shape)
    entries = [
        _rel_spread_stats("perimeter", v.perimeter(), 1e-9),
        _rel_spread_stats("inradius_to_circumradius", rho, 1e-9),
        QuantityStats(
            "rho_matches_closed_form",
            float(np.min(rho)) - rho_form,
            float(np.max(rho)) - rho_form,
            abs(float(np.mean(rho)) - rho_form),
            1e-9,
            abs(float(np.mean(rho)) - rho_form) <= 1e-9,
        ),
        QuantityStats(
            "mittenpunkt_norm",
            float(np.min(x9n)),
            float(np.max(x9n)),
            float(np.max(x9n)),
            1e-9 * shape.a,
            float(np.max(x9n)) <= 1e-9 * shape.a,
        ),
        _rel_spread_stats("act_cb_semi_major", cb_act.semi_major, 1e-9),
        _rel_spread_stats("act_cb_semi_minor", cb_act.semi_minor, 1e-9),
        _rel_spread_stats("medial_cb_semi_major", cb_med.semi_major, 1e-9),
        _rel_spread_stats("medial_cb_semi_minor", cb_med.semi_minor, 1e-9),
        QuantityStats(
            "cb_axis_alignment",
            0.0,
            float(np.max(angles)),
            float(np.max(angles)),
            1e-9,
            float(np.max(angles)) <= 1e-9,
        ),
    ]
    return InvariantReport(
        shape.a, shape.b, n, rho_form, float(np.mean(rho)), entries
    )
