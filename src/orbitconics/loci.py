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
    MIN_SAMPLES,
    SHAPE_CLASSES,
    BilliardShape,
    ShapeClass,
    inradius_to_circumradius,
    orbit,
    sample_grid,
)
from .circumbilliard import circumbilliard_of
from .errors import IllConditioned
from .kernel import CONDITION_LIMIT, ArrayView, Point, Points, Skips, ellipse_axes

ELLIPTIC_RMS = 1e-8
NON_ELLIPTIC_RMS = 1e-4


class Verdict(Enum):
    ELLIPTIC = "elliptic"
    NON_ELLIPTIC = "non-elliptic"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class LocusFitReport:
    samples: Points
    fit_A: float
    fit_B: float
    rms_residual: float
    verdict: Verdict
    fitted_axes: tuple[float, float] | None

    @property
    def mean_radius(self) -> float:
        """Mean of ``Point.norm`` over the samples."""
        z = self.samples.array
        return float(np.mean(list(map(math.hypot, z.real.tolist(), z.imag.tolist()))))


@dataclass(frozen=True)
class LocusSweep:
    """Kept samples of a sweep, one entry per locus point.

    ``points`` (a ``Points``) and ``shape_classes`` (ShapeClass items over
    an array of codes into ``SHAPE_CLASSES``) are read-only views over the
    sweep's arrays; their items are built only when read.
    """

    points: Points
    t_values: list[float]
    shape_classes: ArrayView
    skipped: list[tuple[float, str]] = field(default_factory=list)


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
    classes = ArrayView(np.repeat(fam.codes[keep], per_sample), SHAPE_CLASSES.__getitem__)
    return LocusSweep(Points(z[keep].ravel()), np.repeat(fam.t[keep], per_sample).tolist(),
                      classes, skips.skipped(fam.t))


def fit_locus(samples) -> LocusFitReport:
    """Least-squares fit of A x^2 + B y^2 = 1 through the samples.

    ``samples`` is a ``Points`` (read without building any Point) or a
    sequence of Points or (x, y) pairs.
    """
    pts = Points.of(samples)
    _require_samples(len(pts))
    x, y = pts.array.real, pts.array.imag
    x2, y2 = x * x, y * y
    # normal equations [[sxx, sxy], [sxy, syy]] (A, B) = (sx, sy) by Cramer's rule,
    # refused when the first partial pivot squared exceeds CONDITION_LIMIT |det|
    sxx, sxy, syy = float(np.sum(x2 * x2)), float(np.sum(x2 * y2)), float(np.sum(y2 * y2))
    sx, sy = float(np.sum(x2)), float(np.sum(y2))
    det = sxx * syy - sxy * sxy
    pivot = max(abs(sxx), abs(sxy))
    if det == 0.0 or pivot * pivot > CONDITION_LIMIT * abs(det):
        raise IllConditioned(f"pivot ratio beyond {CONDITION_LIMIT:.0e}")
    A, B = (sx * syy - sxy * sy) / det, (sxx * sy - sxy * sx) / det
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
    """Algebraic least-squares circle through the samples (as for ``fit_locus``).

    ``rms`` is the root-mean-square distance of the samples from the
    fitted circle.  Refused (IllConditioned) when the squared singular
    values of the ``[x, y, 1]`` design differ by more than CONDITION_LIMIT,
    as for samples bunched around one point.
    """
    z = Points.of(samples).array
    xs, ys = z.real, z.imag
    M = np.column_stack([xs, ys, np.ones_like(xs)])
    sol, _, _, sv = np.linalg.lstsq(M, -(xs * xs + ys * ys), rcond=None)
    if sv.size < 3 or sv[0] * sv[0] > CONDITION_LIMIT * (sv[-1] * sv[-1]):
        raise IllConditioned(f"singular value ratio squared beyond {CONDITION_LIMIT:.0e}")
    cx, cy = -sol[0] / 2.0, -sol[1] / 2.0
    radius = math.sqrt(max(cx * cx + cy * cy - sol[2], 0.0))
    rms = float(np.sqrt(np.mean((np.hypot(xs - cx, ys - cy) - radius) ** 2)))
    return CircleFit(Point(cx, cy), radius, rms)


def fit_by_shape_class(sweep: LocusSweep) -> dict[str, LocusFitReport]:
    """Per-piece fits of a sweep partitioned by orbit shape class.

    Needed for the orthic-center locus above the obtuse threshold,
    where the locus splits into acute and obtuse pieces.  A piece is
    left out when its samples cannot determine the fit: fewer than
    MIN_SAMPLES of them, or a fit refused as IllConditioned (a few
    samples in mirror-image groups on a short arc).
    """
    z = sweep.points.array
    codes = sweep.shape_classes.array
    out: dict[str, LocusFitReport] = {}
    for cls in (ShapeClass.ACUTE, ShapeClass.OBTUSE):
        piece = z[codes == SHAPE_CLASSES.index(cls)]
        if piece.size >= MIN_SAMPLES:
            try:
                out[cls.value] = fit_locus(Points(piece))
            except IllConditioned:
                pass
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


def _bounded(name: str, lo: float, hi: float, spread: float, tol: float) -> QuantityStats:
    return QuantityStats(name, lo, hi, spread, tol, spread <= tol)


def _rel_spread_stats(name: str, values, tol: float) -> QuantityStats:
    lo, hi = float(np.min(values)), float(np.max(values))
    return _bounded(name, lo, hi, (hi - lo) / abs(float(np.mean(values))), tol)


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
        _, act_major, act_minor, act_angle = ellipse_axes(
            circumbilliard_of(centers.derived_of(v, "act", skips)), skips)
        _, med_major, med_minor, med_angle = ellipse_axes(
            circumbilliard_of(centers.derived_of(v, "medial", skips)), skips)
    skips.raise_first()
    rho = v.inradius() / v.circumradius()
    ang = np.concatenate([act_angle, med_angle]) % math.pi
    angles = np.minimum(ang, math.pi - ang)
    rho_form = inradius_to_circumradius(shape)
    entries = [
        _rel_spread_stats("perimeter", v.perimeter(), 1e-9),
        _rel_spread_stats("inradius_to_circumradius", rho, 1e-9),
        _bounded("rho_matches_closed_form", float(np.min(rho)) - rho_form,
                 float(np.max(rho)) - rho_form, abs(float(np.mean(rho)) - rho_form), 1e-9),
        _bounded("mittenpunkt_norm", float(np.min(x9n)), float(np.max(x9n)),
                 float(np.max(x9n)), 1e-9 * shape.a),
        _rel_spread_stats("act_cb_semi_major", act_major, 1e-9),
        _rel_spread_stats("act_cb_semi_minor", act_minor, 1e-9),
        _rel_spread_stats("medial_cb_semi_major", med_major, 1e-9),
        _rel_spread_stats("medial_cb_semi_minor", med_minor, 1e-9),
        _bounded("cb_axis_alignment", 0.0, float(np.max(angles)), float(np.max(angles)), 1e-9),
    ]
    return InvariantReport(
        shape.a, shape.b, n, rho_form, float(np.mean(rho)), entries
    )
