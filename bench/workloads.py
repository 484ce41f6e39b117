"""Benchmark workloads: seeded inputs, the operations run on them, and their checks.

Every workload is closed loop with one caller: the harness runs the
operations of a workload in order, one at a time, and repeats that pass.
Only ``Op.run`` is timed.  ``Op.check`` compares the result with the
generating billiard and the library's closed forms at the acceptance
suite's tolerances and returns one line per miss.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import enum
import io
import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import orbitconics as oc
from orbitconics import cli, loci, svgout
from orbitconics.errors import OrbitConicsError

OUT = Path(__file__).resolve().parent / "_out"

#: Relative and absolute tolerances of the acceptance suite.
TOL = 1e-9
PORISTIC_ASPECT_TOL = 1e-6
PORISTIC_CIRCLE_TOL = 1e-7

#: Shapes the scalar workload times, on both sides of the 1.352 obtuse threshold.
#: On these the library meets every check with ten times the suite's tolerance
#: to spare, for any seed, so no operation fails.  Above a/b = 1.5 a random
#: translation can put the origin near an inconic, which then classifies as
#: degenerate (NoRealConic): 1 triangle in 2500 at a/b = 2.5.
SCALAR_SHAPES = (1.0 + 1e-5, 1.0 + 1e-3, 1.05, 1.15, 1.3, 1.4, 1.5)

#: The a/b envelope of the traced run's defect probe, from near-circular to
#: a/b = 1000, with a vertex on the origin in every fourth triangle: the inputs
#: on which the library's known defects show.  Its inputs do not depend on the seed.
ENVELOPE = (1.0 + 1e-7, 1.0 + 1e-5, 1.5, 10.0, 100.0, 200.0, 1000.0)
ENVELOPE_SEED = 0

#: Center selections swept by the sweeps workload, as (center, derived triangle).
LOCI = ((7, None), (168, None), (oc.ORTHIC_CB_CENTER, "orthic"), ("vertices", "excentral"))


@dataclass
class Op:
    """One operation of a workload.

    ``replay`` is the in-process call the traced run records spans
    around; it defaults to ``run``.  ``claimed`` marks results the
    acceptance suite asserts or the library meets today: a miss there
    makes the whole run incorrect, while the envelope probe's triangles
    only count their misses.
    """

    kind: str
    samples: int
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    digest: Callable[[Any], str] | None = None
    replay: Callable[[], Any] | None = None
    traced: bool = True
    claimed: bool = True

    def __post_init__(self):
        self.digest = self.digest or (lambda result: repr(canonical(result)))
        self.replay = self.replay or self.run


@dataclass
class Workload:
    ops: list[Op]
    #: Percentile of the operations' median times reported as op_tail_ms;
    #: fixed per workload, so a faster commit is compared at the same one.
    tail_pct: float
    warmup: Callable[[], None] = lambda: None
    #: Useful outcomes and attempts, keyed by the per-layer ratio they feed.
    waste: dict = field(default_factory=lambda: {
        "loci.sweep.useful_ratio": [0, 0],
        "focal_profile.useful_ratio": [0, 0],
    })


def canonical(value):
    """Plain nested tuples of a library result; repr() of it is exact to the bit."""
    if isinstance(value, BaseException):
        return ("raised", type(value).__name__)
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value):
        return tuple(canonical(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, dict):
        return tuple((k, canonical(v)) for k, v in sorted(value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(canonical(v) for v in value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def _closeness(label: str, got: float, want: float, tol: float, relative=False) -> list[str]:
    err = _rel(got, want) if relative else abs(got - want)
    return [] if err <= tol else [f"{label} beyond tolerance: {got!r} vs {want!r}, "
                                  f"error {err:.2e} > {tol:.0e}"]


# ---------------------------------------------------------------- sweeps


def _jitter(rng: random.Random, value: float) -> float:
    """Seeded +-1% change that keeps each shape on its side of the thresholds."""
    return value * (1.0 + rng.uniform(-0.01, 0.01))


def _locus_op(shape, center_id, derived, n, waste) -> Op:
    def run():
        sweep = oc.sweep_locus(shape, center_id, derived=derived, n=n)
        return sweep, oc.fit_locus(sweep.points), oc.fit_by_shape_class(sweep)

    def check(result):
        sweep, fit, pieces = result
        kept = len(set(sweep.t_values))
        waste["loci.sweep.useful_ratio"][0] += kept
        waste["loci.sweep.useful_ratio"][1] += kept + len(sweep.skipped)
        misses = []
        split = shape.alpha > oc.obtuse_threshold()
        want_pieces = ["acute", "obtuse"] if split else ["acute"]
        if sorted(pieces) != want_pieces:
            misses.append(f"shape-class pieces wrong: {sorted(pieces)}, want {want_pieces}")
        a, b, d, c2 = shape.a, shape.b, shape.delta, shape.c2
        if center_id == 7:
            k = (2 * d - a * a - b * b) / c2
            expected = (k * a, k * b)
        elif center_id == "vertices":
            expected = ((b * b + d) / a, (a * a + d) / b)
        else:
            expected = None
        if expected is not None:
            if fit.verdict is not oc.Verdict.ELLIPTIC:
                misses.append(f"verdict not elliptic: {fit.verdict.value}")
            else:
                for label, got, want in zip(("major", "minor"), fit.fitted_axes, expected):
                    misses += _closeness(f"fitted {label} axis", got, want, TOL)
        if center_id == 168 and not (
            fit.verdict is oc.Verdict.NON_ELLIPTIC
            and fit.rms_residual >= loci.NON_ELLIPTIC_RMS * fit.mean_radius
        ):
            misses.append(f"verdict not non-elliptic: {fit.verdict.value}")
        return misses

    label = f"X{center_id}" if isinstance(center_id, int) else center_id
    if derived:
        label += f"/{derived}"
    return Op(f"sweep_locus {label} a/b={shape.alpha:.4f}", n, run, check)


def _invariants_op(shape, n) -> Op:
    def check(report):
        misses = [f"{e.name} beyond tolerance: spread {e.spread:.2e} > {e.tolerance:.0e}"
                  for e in report.entries if not e.passed]
        return misses + _closeness(
            "r/R vs closed form", report.rho_mean, oc.inradius_to_circumradius(shape), TOL)

    return Op(f"invariant_report a/b={shape.alpha:.4f}", n,
              lambda: oc.invariant_report(shape, n), check)


def _focal_op(shape, n, waste) -> Op:
    def check(profile):
        waste["focal_profile.useful_ratio"][0] += len(profile)
        waste["focal_profile.useful_ratio"][1] += n
        ratios = np.array([s.ratio for s in profile])
        spread = float((ratios.max() - ratios.min()) / ratios.mean())
        misses = [] if spread <= TOL else [f"focal ratio spread beyond tolerance: {spread:.2e}"]
        misses += _closeness("focal ratio vs closed form", float(ratios.mean()),
                             oc.focal_ratio_closed_form(shape), TOL)
        maxima = oc.count_interior_maxima([s.feuerbach for s in profile])
        return misses + ([] if maxima == 3 else [f"Feuerbach maxima not 3: {maxima}"])

    return Op(f"focal_profile a/b={shape.alpha:.4f}", n,
              lambda: oc.focal_profile(shape, n), check)


def _circle_fit_rms(points) -> float:
    """Rms distance of points from their algebraic least-squares circle."""
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    M = np.column_stack([xs, ys, np.ones_like(xs)])
    sol, *_ = np.linalg.lstsq(M, -(xs * xs + ys * ys), rcond=None)
    cx, cy = -sol[0] / 2.0, -sol[1] / 2.0
    radius = math.sqrt(max(cx * cx + cy * cy - sol[2], 0.0))
    return float(np.sqrt(np.mean((np.hypot(xs - cx, ys - cy) - radius) ** 2)))


def _poristic_op(ps, n) -> Op:
    thetas = [float(t) for t in loci.sample_grid(n)]

    def run():
        return [oc.circumbilliard(oc.poristic_triangle(ps, th)) for th in thetas]

    def check(results):
        aspects = np.array([r.aspect for r in results])
        spread = float((aspects.max() - aspects.min()) / aspects.mean())
        misses = [] if spread <= TOL else [f"aspect spread beyond tolerance: {spread:.2e}"]
        misses += _closeness("aspect vs closed form", float(aspects.mean()),
                             oc.poristic_cb_aspect(ps), PORISTIC_ASPECT_TOL)
        rms = _circle_fit_rms([r.mittenpunkt.as_tuple() for r in results])
        if rms > PORISTIC_CIRCLE_TOL * ps.R:
            misses.append(f"Mittenpunkt circle rms beyond tolerance: {rms:.2e}")
        return misses

    return Op(f"poristic_cb_aspect r={ps.r:.4f}", n, run, check)


def sweeps(seed: int, small: bool = False) -> Workload:
    """Family sweeps at the paper's n on a/b = 1.25 (all acute) and 2.0 (split)."""
    rng = random.Random(seed)
    shapes = [oc.BilliardShape(_jitter(rng, 1.25), 1.0), oc.BilliardShape(_jitter(rng, 2.0), 1.0)]
    ps = oc.PoristicShape(_jitter(rng, 0.3625), 1.0)
    n, n_focal, n_poristic = (48, 200, 16) if small else (720, 2000, 360)
    work = Workload([], tail_pct=75.0)
    for shape in shapes:
        work.ops += [_locus_op(shape, c, d, n, work.waste) for c, d in LOCI]
        work.ops.append(_invariants_op(shape, n))
        work.ops.append(_focal_op(shape, n_focal, work.waste))
    work.ops.append(_poristic_op(ps, n_poristic))
    if not small:
        warm = sweeps(seed, small=True)
        work.warmup = lambda: [op.run() for op in warm.ops]
    return work


# ---------------------------------------------------------------- scalar


def _triangle_op(shape, tri, rotation, scale, offset, claimed) -> Op:
    """Five scalar calls on one moved copy of an orbit triangle.

    The copy is ``scale * rotation @ v - offset`` for each vertex v.  Each
    call's typed refusal is kept as its outcome, so one failing call does
    not hide the others.
    """

    def move(p):
        x, y = scale * (rotation @ np.array([p.x, p.y])) - offset
        return (float(x), float(y))

    moved = oc.Triangle.from_coords([move(p) for p in tri.vertices])
    coord_scale = max(abs(c) for p in moved.vertices for c in p.as_tuple())
    # X168 is X9 of the excentral triangle, so its rounding scales with that triangle
    excentral_scale = max(abs(c) for p in oc.excentral(moved).vertices for c in p.as_tuple())
    try:
        x168_expected = move(oc.center(tri, 168))
    except OrbitConicsError as exc:
        x168_expected = exc

    def macbeath():
        exc = oc.excentral(moved)
        return oc.conic_to_ellipse_params(oc.solve_inconic(exc, oc.center(exc, 5)))

    calls = (
        ("circumbilliard", lambda: oc.circumbilliard(moved)),
        ("X9", lambda: oc.center(moved, 9)),
        ("X168", lambda: oc.center(moved, 168)),
        ("inconic_x3", lambda: oc.conic_to_ellipse_params(
            oc.solve_inconic(oc.excentral(moved), oc.center(moved, 40)))),
        ("inconic_macbeath", macbeath),
    )

    def run():
        outcomes = []
        for _, call in calls:
            try:
                outcomes.append(call())
            except OrbitConicsError as exc:
                outcomes.append(exc)
        return outcomes

    def point_miss(label, got, want, scale):
        err = math.hypot(got.x - want[0], got.y - want[1])
        return [] if err <= TOL * scale else [f"{label} beyond tolerance: off by {err:.2e}"]

    def check(outcomes):
        misses = []
        for (label, _), got in zip(calls, outcomes):
            if isinstance(got, OrbitConicsError):
                misses.append(f"{label} raised {type(got).__name__}")
            elif label == "circumbilliard":
                misses += _closeness("circumbilliard semi-major", got.params.semi_major,
                                     scale * shape.a, TOL, relative=True)
                misses += _closeness("circumbilliard semi-minor", got.params.semi_minor,
                                     scale * shape.b, TOL, relative=True)
            elif label == "X9":
                misses += point_miss("X9", got, (-offset[0], -offset[1]), coord_scale)
            elif label == "X168":
                if isinstance(x168_expected, OrbitConicsError):
                    misses.append("X168: unmoved reference raised")
                else:
                    misses += point_miss("X168", got, x168_expected, excentral_scale)
            else:
                major, minor = oc.excentral_inconic_axes(moved, label.split("_")[1])
                misses += _closeness(f"{label} semi-major", got.semi_major, major, TOL * major)
                misses += _closeness(f"{label} semi-minor", got.semi_minor, minor, TOL * major)
        return misses

    return Op(f"triangle a/b={shape.alpha:.8g}", 1, run, check, claimed=claimed)


def _moved_triangles(rng, shapes, per_shape: int, origin_every: int | None,
                     claimed: bool) -> list[Op]:
    """Orbit triangles of each shape, moved, rotated and scaled at random.

    For each a/b the orbit parameter is stratified over the family.  With
    ``origin_every`` set, every ``origin_every``-th triangle is translated so
    that one of its vertices sits exactly on the origin.
    """
    ops = []
    for alpha in shapes:
        shape = oc.BilliardShape(alpha, 1.0)
        for k in range(per_shape):
            tri = oc.orbit(shape, 2.0 * math.pi * (k + rng.uniform()) / per_shape).triangle
            theta = rng.uniform(0.0, 2.0 * math.pi)
            rotation = np.array([[math.cos(theta), -math.sin(theta)],
                                 [math.sin(theta), math.cos(theta)]])
            scale = 10.0 ** rng.uniform(-1.0, 1.0)
            if origin_every and k % origin_every == 0:
                vertex = tri.vertices[(k // origin_every) % 3]
                offset = scale * (rotation @ np.array([vertex.x, vertex.y]))
            else:
                offset = rng.uniform(-2.0, 2.0, size=2) * scale * alpha
            ops.append(_triangle_op(shape, tri, rotation, scale, offset, claimed))
    return ops


def scalar(seed: int, small: bool = False) -> Workload:
    """One scalar-API call per orbit triangle of SCALAR_SHAPES, moved at random."""
    rng = np.random.default_rng(seed)
    # p90 of the 1792 triangles leaves 179 beyond it
    work = Workload(_moved_triangles(rng, SCALAR_SHAPES, 4 if small else 256, None, True),
                    tail_pct=90.0)
    if not small:
        warm = scalar(seed, small=True)
        work.warmup = lambda: [op.run() for op in warm.ops]
    return work


def envelope(small: bool = False) -> list[Op]:
    """The defect probe: triangles over ENVELOPE, a vertex on the origin in every fourth."""
    rng = np.random.default_rng(ENVELOPE_SEED)
    return _moved_triangles(rng, ENVELOPE, 4 if small else 64, 4, False)


# ---------------------------------------------------------------- cli


def _main_in_process(argv):
    """cli.main(argv) with stdout captured, as (exit code, stdout bytes)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue().encode()


def _cli_op(kind, argv, samples, files, check_first, import_only=False) -> Op:
    """One subprocess invocation, checked against its first invocation's bytes."""
    cmd = ([sys.executable, "-c", "import orbitconics.cli"] if import_only
           else [sys.executable, "-m", "orbitconics.cli", *argv])
    first = {}

    def run():
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        return proc.returncode, proc.stdout

    def digest(result):
        code, stdout = result
        return repr((code, stdout, tuple(Path(f).read_bytes() for f in files)))

    def check(result):
        code, stdout = result
        if code != 0:
            return [f"exit code {code}"]
        text = digest(result)
        if "digest" not in first:
            first["digest"] = text
            return check_first(stdout.decode(), [Path(f).read_text() for f in files])
        return [] if text == first["digest"] else ["output differs from the first invocation"]

    return Op(f"cli {kind}", samples, run, check, digest,
              replay=None if import_only else (lambda: _main_in_process(argv)),
              traced=not import_only)


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def cli_workload(seed: int, small: bool = False) -> Workload:
    """Each subcommand as a subprocess at README defaults, plus the import floor."""
    rng = random.Random(seed)
    shape = oc.BilliardShape(_jitter(rng, 1.5), 1.0)
    ps = oc.PoristicShape(_jitter(rng, 0.3625), 1.0)
    cb_tri = oc.orbit(shape, rng.uniform(0.0, 2.0 * math.pi)).triangle
    # README defaults, except family at --n 20000; small runs pass --n 16 to every sweep
    n_family, n, n_poristic = (40, 16, 16) if small else (20000, 720, 360)
    sizes = ["--n", "16"] if small else []
    shape_args = ["--a", repr(shape.a), "--b", "1"]
    rho = oc.inradius_to_circumradius(shape)
    OUT.mkdir(exist_ok=True)
    locus_csv, locus_svg = str(OUT / "locus.csv"), str(OUT / "locus.svg")
    vertices = ",".join(repr(c) for p in cb_tri.vertices for c in p.as_tuple())
    # p70 of the 8 invocations lies 0.9 of the way from the fifth fastest to hyperbolae
    work = Workload([], tail_pct=70.0)

    def check_import(stdout, _):
        return [] if stdout == "" else ["import printed output"]

    def check_family(stdout, _):
        rows = _csv_rows(stdout)
        misses = [] if len(rows) == n_family else [f"family rows: {len(rows)}"]
        perims = [float(r["perimeter"]) for r in rows]
        if (max(perims) - min(perims)) / perims[0] > TOL:
            misses.append("perimeter not conserved")
        worst = max(abs(float(r["rho"]) - rho) for r in rows)
        return misses + ([] if worst <= TOL else [f"rho beyond tolerance: {worst:.2e}"])

    def check_locus(stdout, files):
        report = json.loads(stdout)
        kept = len(_csv_rows(files[0]))
        work.waste["loci.sweep.useful_ratio"][0] += kept
        work.waste["loci.sweep.useful_ratio"][1] += kept + report["n_skipped"]
        ok = (report["verdict"] == "non-elliptic"
              and report["rms_residual"] >= loci.NON_ELLIPTIC_RMS * report["mean_radius"])
        return [] if ok else [f"X168 verdict not non-elliptic: {report['verdict']}"]

    def check_invariants(stdout, _):
        report = json.loads(stdout)
        misses = [] if report["all_passed"] else ["invariant report failed"]
        return misses + _closeness("r/R vs closed form", report["rho_mean"], rho, TOL)

    def check_poristic(stdout, _):
        report = json.loads(stdout)
        misses = _closeness("aspect vs closed form", report["aspect_mean"],
                            oc.poristic_cb_aspect(ps), PORISTIC_ASPECT_TOL)
        if report["aspect_spread_rel"] > TOL:
            misses.append("aspect not invariant")
        if report["mittenpunkt_circle"]["rms"] > PORISTIC_CIRCLE_TOL * ps.R:
            misses.append("Mittenpunkt locus not a circle")
        return misses

    def check_hyperbolae(stdout, _):
        split = stdout.index("{")
        report = json.loads(stdout[split:])
        work.waste["focal_profile.useful_ratio"][0] += report["n_samples"]
        work.waste["focal_profile.useful_ratio"][1] += n
        misses = _closeness("focal ratio vs closed form", report["ratio_mean"],
                            oc.focal_ratio_closed_form(shape), TOL)
        if report["ratio_spread_rel"] > TOL:
            misses.append("focal ratio not invariant")
        if len(_csv_rows(stdout[:split])) != report["n_samples"]:
            misses.append("CSV rows differ from n_samples")
        return misses

    def check_cb(stdout, _):
        report = json.loads(stdout)
        return (_closeness("semi-major", report["semi_major"], shape.a, TOL, relative=True)
                + _closeness("semi-minor", report["semi_minor"], shape.b, TOL, relative=True))

    def check_render(_, files):
        points = [(float(r["x"]), float(r["y"])) for r in _csv_rows(Path(locus_csv).read_text())]
        return [] if files[0] == svgout.render_svg(points) else ["SVG differs from render_svg"]

    work.ops = [
        _cli_op("import", [], 0, [], check_import, import_only=True),
        _cli_op("family", ["family", *shape_args, "--n", str(n_family)], n_family, [],
                check_family),
        _cli_op("locus", ["locus", *shape_args, "--center", "X168", "--fit", *sizes,
                          "--out", locus_csv], n, [locus_csv], check_locus),
        _cli_op("invariants", ["invariants", *shape_args, *sizes], n, [], check_invariants),
        _cli_op("poristic", ["poristic", "--r", repr(ps.r), "--R", "1", *sizes], n_poristic, [],
                check_poristic),
        _cli_op("hyperbolae", ["hyperbolae", *shape_args, *sizes], n, [], check_hyperbolae),
        _cli_op("cb", ["cb", f"--vertices={vertices}"], 1, [], check_cb),
        _cli_op("render", ["render", "--input", locus_csv, "--out", locus_svg], 0, [locus_svg],
                check_render),
    ]
    return work


WORKLOADS = {"sweeps": sweeps, "scalar": scalar, "cli": cli_workload}


def probe() -> None:
    """Call every traced layer once on fixed small inputs.

    The traced run starts with this, so every per-layer metric is
    measured on every workload, including layers the workload bypasses.
    """
    shape = oc.BilliardShape(1.5, 1.0)
    tri = oc.orbit(shape, 0.4).triangle
    oc.center(tri, 9)
    oc.conic_to_ellipse_params(oc.solve_inconic(oc.excentral(tri), oc.center(tri, 40)))
    oc.circumbilliard(oc.medial(tri))
    oc.feuerbach_hyperbola(tri)
    oc.poristic_triangle(oc.PoristicShape(0.3625, 1.0), 0.4)
    oc.fit_locus(oc.sweep_locus(shape, 7, n=8).points)
    svgout.render_svg([p.as_tuple() for p in tri.vertices])
    _main_in_process(["cb", "--vertices=" + ",".join(
        repr(c) for p in tri.vertices for c in p.as_tuple())])
