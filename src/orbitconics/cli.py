"""Command-line front end: families, sweeps, fits, invariant suites, SVG.

Each subcommand parses its arguments, calls one library function and
writes what it returns; the sweeps, with their one skip policy, live in
the library.  A sweep keeping fewer than 8 samples exits 2 (its first
refusal) and writes nothing.

Output conventions: CSV files have a fixed documented header row and
shortest-roundtrip float formatting, JSON reports carry a schema field,
and identical arguments produce byte-identical output.  Files are
written atomically (temp file plus rename), through a symlink, with the
mode a plain write would give them.  Exit codes: 0 success, 1 invalid
arguments, 2 numerical failure (a machine-readable error object is
printed to stderr).

Each subcommand imports the library modules it uses when it runs, and
numpy is loaded only by the subcommands that sweep arrays: ``family``,
``locus``, ``invariants``, ``poristic`` and ``hyperbolae``.
"""

from __future__ import annotations

import argparse
import errno
import gc
import json
import os
import stat
import sys

from .errors import InvalidShape, OrbitConicsError

SCHEMA = "orbitconics-report/2"


def write_text_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file in its directory and a rename.

    The file gets the mode ``open(path, "w")`` would give it: an existing
    target keeps its mode, a new file gets 0o666 less the umask.
    """
    real = os.path.realpath(path)  # write through a symlink, as open(path, "w") does
    try:
        mode = stat.S_IMODE(os.stat(real).st_mode)
    except FileNotFoundError:
        mode = None
    # a directory, or a file in a missing one: refused under the name given, before any temp file
    if os.path.isdir(real) or not os.path.isdir(os.path.dirname(real)):
        code = errno.EISDIR if mode is not None else errno.ENOENT
        raise OSError(code, os.strerror(code), path)
    tmp = os.path.join(os.path.dirname(real), f".orbitconics-{os.urandom(8).hex()}")
    # O_EXCL: never write through a file or link already at the temp name
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            if mode is not None:
                os.fchmod(handle.fileno(), mode)
            handle.write(text)
        os.replace(tmp, real)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None) -> None:
    if out:
        write_text_atomic(out, text)
    else:
        sys.stdout.write(text)


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def _csv_text(header: str, rows) -> str:
    """CSV text of a header line and rows already joined, floats written by ``!r``."""
    return "\n".join([header, *rows, ""])


def parse_center(text: str):
    from .centers import ORTHIC_CB_CENTER, SUPPORTED_CENTERS

    if text == "vertices":
        return "vertices"
    if text.lower() in ("x6star", "x6*"):
        return ORTHIC_CB_CENTER
    raw = text[1:] if text[:1] in ("X", "x") else text
    try:
        index = int(raw)
    except ValueError:
        raise ValueError(f"unrecognized center selector {text!r}")
    if index not in SUPPORTED_CENTERS:
        raise ValueError(f"center X{index} not supported")
    return index


def sample_count(text: str) -> int:
    """argparse type of --n: an integer of at least MIN_SAMPLES."""
    from .billiard import MIN_SAMPLES

    try:
        n = int(text)
    except ValueError:
        n = None
    if n is None or n < MIN_SAMPLES:
        raise argparse.ArgumentTypeError(f"need an integer >= {MIN_SAMPLES}, got {text!r}")
    return n


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="orbitconics")
    sub = parser.add_subparsers(dest="command", required=True)
    shape = argparse.ArgumentParser(add_help=False)
    shape.add_argument("--a", type=float, required=True)
    shape.add_argument("--b", type=float, required=True)

    fam = sub.add_parser("family", parents=[shape], help="orbit samples over the family")
    fam.add_argument("--n", type=sample_count, default=72)
    fam.add_argument("--format", choices=("csv", "json"), default="csv")
    fam.add_argument("--out")

    cb = sub.add_parser("cb", help="circumbilliard of an explicit triangle")
    cb.add_argument("--vertices", required=True, help="x1,y1,x2,y2,x3,y3")
    cb.add_argument("--out")

    loc = sub.add_parser("locus", parents=[shape], help="sweep a center and optionally fit")
    loc.add_argument("--center", required=True)
    loc.add_argument("--derived", choices=("excentral", "act", "medial", "orthic"))
    loc.add_argument("--n", type=sample_count, default=720)
    loc.add_argument("--fit", action="store_true")
    loc.add_argument("--out")

    inv = sub.add_parser("invariants", parents=[shape], help="family invariance report")
    inv.add_argument("--n", type=sample_count, default=720)
    inv.add_argument("--out")

    por = sub.add_parser("poristic", help="poristic aspect sweep")
    por.add_argument("--r", type=float, required=True)
    por.add_argument("--R", type=float, required=True, dest="R")
    por.add_argument("--n", type=sample_count, default=360)
    por.add_argument("--out")

    hyp = sub.add_parser("hyperbolae", parents=[shape], help="focal length profile and ratio")
    hyp.add_argument("--n", type=sample_count, default=720)
    hyp.add_argument("--out")

    ren = sub.add_parser("render", help="render a locus CSV to SVG")
    ren.add_argument("--input", required=True)
    ren.add_argument("--out", required=True)
    ren.add_argument("--overlay", choices=("billiard", "caustic"), action="append", default=[])
    ren.add_argument("--a", type=float)
    ren.add_argument("--b", type=float)
    return parser


def cmd_family(args) -> int:
    from .billiard import SHAPE_CLASSES, BilliardShape, sampled_family

    fam = sampled_family(BilliardShape(args.a, args.b), args.n)
    v = fam.tri
    names = [cls.value for cls in SHAPE_CLASSES]
    records = zip(
        fam.t.tolist(),
        fam.vertices.tolist(),
        [names[c] for c in fam.codes.tolist()],
        v.perimeter().tolist(),
        (v.inradius() / v.circumradius()).tolist(),
    )
    if args.format == "csv":
        rows = [
            f"{t!r},{x1!r},{y1!r},{x2!r},{y2!r},{x3!r},{y3!r},{cls},{per!r},{rho!r}"
            for t, ((x1, y1), (x2, y2), (x3, y3)), cls, per, rho in records
        ]
        _emit(_csv_text("t,x1,y1,x2,y2,x3,y3,shape_class,perimeter,rho", rows), args.out)
    else:
        payload = {
            "schema": SCHEMA,
            "command": "family",
            "a": args.a,
            "b": args.b,
            "n": args.n,
            "samples": [
                {"t": t, "vertices": verts, "shape_class": cls, "perimeter": per, "rho": rho}
                for t, verts, cls, per, rho in records
            ],
        }
        _emit(_json_dump(payload), args.out)
    return 0


def cmd_cb(args) -> int:
    from .circumbilliard import circumbilliard
    from .kernel import Triangle

    values = [float(v) for v in args.vertices.split(",")]
    if len(values) != 6:
        raise ValueError("--vertices wants six comma-separated numbers")
    tri = Triangle.from_coords([(values[0], values[1]), (values[2], values[3]), (values[4], values[5])])
    result = circumbilliard(tri)
    payload = {
        "schema": SCHEMA,
        "command": "cb",
        "conic": {
            **dict(zip("ABCDEF", result.conic.coeffs)),
            "anchor": [result.conic.anchor.real, result.conic.anchor.imag],
        },
        "center": [result.params.center.x, result.params.center.y],
        "semi_major": result.params.semi_major,
        "semi_minor": result.params.semi_minor,
        "axis_angle": result.params.axis_angle,
        "mittenpunkt": [result.mittenpunkt.x, result.mittenpunkt.y],
        "aspect": result.aspect,
    }
    _emit(_json_dump(payload), args.out)
    return 0


def cmd_locus(args) -> int:
    from .billiard import BilliardShape
    from .loci import fit_by_shape_class, fit_locus, sweep_locus

    shape = BilliardShape(args.a, args.b)
    center_id = parse_center(args.center)
    sweep = sweep_locus(shape, center_id, derived=args.derived, n=args.n)
    z = sweep.points.array
    rows = [f"{t!r},{x!r},{y!r}" for t, x, y in zip(sweep.t_values, z.real.tolist(), z.imag.tolist())]
    _emit(_csv_text("t,x,y", rows), args.out)
    if args.fit:
        report = fit_locus(sweep.points)
        payload = {
            "schema": SCHEMA,
            "command": "locus-fit",
            "center": args.center,
            "derived": args.derived,
            "n_points": len(sweep.points),
            "n_skipped": len(sweep.skipped),
            "fit_A": report.fit_A,
            "fit_B": report.fit_B,
            "rms_residual": report.rms_residual,
            "mean_radius": report.mean_radius,
            "verdict": report.verdict.value,
            "fitted_axes": list(report.fitted_axes) if report.fitted_axes else None,
        }
        pieces = fit_by_shape_class(sweep)
        if len(pieces) > 1:
            payload["pieces"] = {
                cls: {
                    "n_points": len(rep.samples),
                    "rms_residual": rep.rms_residual,
                    "verdict": rep.verdict.value,
                    "fitted_axes": list(rep.fitted_axes) if rep.fitted_axes else None,
                }
                for cls, rep in sorted(pieces.items())
            }
        sys.stdout.write(_json_dump(payload))
    return 0


def cmd_invariants(args) -> int:
    from .billiard import BilliardShape
    from .loci import invariant_report

    report = invariant_report(BilliardShape(args.a, args.b), n=args.n)
    _emit(_json_dump({"schema": SCHEMA, "command": "invariants", **report.as_dict()}), args.out)
    return 0


def cmd_poristic(args) -> int:
    from .conic_invariants import PoristicShape
    from .loci import poristic_report

    report = poristic_report(PoristicShape(args.r, args.R), n=args.n)
    _emit(_json_dump({"schema": SCHEMA, "command": "poristic", **report.as_dict()}), args.out)
    return 0


def cmd_hyperbolae(args) -> int:
    from .billiard import BilliardShape
    from .conic_invariants import count_interior_maxima, focal_profile, focal_ratio_closed_form

    shape = BilliardShape(args.a, args.b)
    focal = focal_profile(shape, n=args.n)
    profile = focal.array
    rows = [f"{t!r},{feuerbach!r},{jerabek!r}" for t, feuerbach, jerabek in profile.tolist()]
    _emit(_csv_text("t,feuerbach_focal_length,jerabek_excentral_focal_length", rows), args.out)
    ratios = profile[:, 2] / profile[:, 1]
    payload = {
        "schema": SCHEMA,
        "command": "hyperbolae",
        "a": args.a,
        "b": args.b,
        "n_samples": len(profile),
        "n_skipped": len(focal.skipped),
        "ratio_mean": float(ratios.mean()),
        "ratio_spread_rel": float((ratios.max() - ratios.min()) / ratios.mean()),
        "ratio_closed_form": focal_ratio_closed_form(shape),
        "feuerbach_interior_maxima": count_interior_maxima(profile[:, 1].tolist()),
    }
    sys.stdout.write(_json_dump(payload))
    return 0


def cmd_render(args) -> int:
    import csv
    import math

    from .svgout import render_svg

    overlays = []
    if args.overlay:
        if args.a is None or args.b is None:
            raise ValueError("--overlay needs --a and --b for the ellipse axes")
        from .billiard import BilliardShape, caustic

        shape = BilliardShape(args.a, args.b)
        for name in args.overlay:
            if name == "billiard":
                overlays.append((shape.a, shape.b))
            else:
                caus = caustic(shape)
                overlays.append((caus.semi_major, caus.semi_minor))
    with open(args.input, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or "x" not in reader.fieldnames or "y" not in reader.fieldnames:
            raise ValueError("input CSV needs 'x' and 'y' columns")
        points = []
        for row in reader:
            try:  # a missing value reads as None
                x, y = float(row["x"]), float(row["y"])
            except (TypeError, ValueError):
                x = y = math.nan
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"input CSV line {reader.line_num} needs a finite 'x' and 'y'")
            points.append((x, y))
    write_text_atomic(args.out, render_svg(points, overlays=overlays))
    return 0


COMMANDS = {
    "family": cmd_family,
    "cb": cmd_cb,
    "locus": cmd_locus,
    "invariants": cmd_invariants,
    "poristic": cmd_poristic,
    "hyperbolae": cmd_hyperbolae,
    "render": cmd_render,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return COMMANDS[args.command](args)
    except (ValueError, OSError, InvalidShape, MemoryError) as exc:
        sys.stderr.write(f"orbitconics: error: {exc}\n")
        return 1
    except OrbitConicsError as exc:
        sys.stderr.write(_json_dump({"error": type(exc).__name__, "message": str(exc)}))
        return 2


def run() -> None:
    """Process entry: ``main`` with the cyclic collector off, then exit with its code.

    The collector stays off while ``main`` runs and what is left is frozen
    before exit, so neither the run nor the interpreter's shutdown spends
    collector passes on objects the exiting process frees anyway; atexit
    handlers, flushes and module cleanup still run.  ``main`` leaves ``gc``
    alone, for callers that run it inside their own process.
    """
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
