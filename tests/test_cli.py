import csv
import errno
import gc
import io
import json
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from orbitconics import BilliardShape, count_interior_maxima, focal_profile, focal_ratio_closed_form
from orbitconics.cli import SCHEMA, _csv_text, _json_dump, main, parse_center, write_text_atomic


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_center_forms():
    assert parse_center("X9") == 9
    assert parse_center("9") == 9
    assert parse_center("x142") == 142
    assert parse_center("X6star") == "X6star"
    assert parse_center("vertices") == "vertices"
    with pytest.raises(ValueError):
        parse_center("X999")
    with pytest.raises(ValueError):
        parse_center("banana")


def test_family_csv_deterministic(capsys):
    argv = ["family", "--a", "1.5", "--b", "1", "--n", "16"]
    code1, out1, _ = run_cli(capsys, argv)
    code2, out2, _ = run_cli(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    rows = out1.strip().splitlines()
    assert rows[0] == "t,x1,y1,x2,y2,x3,y3,shape_class,perimeter,rho"
    assert len(rows) == 17
    first = rows[1].split(",")
    assert first[7] in ("acute", "right", "obtuse")
    # perimeter column is constant across the family (to rounding)
    perims = [float(row.split(",")[8]) for row in rows[1:]]
    assert (max(perims) - min(perims)) / perims[0] <= 1e-9


def test_family_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, ["family", "--a", "1.5", "--b", "1", "--n", "8", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "orbitconics-report/2"
    assert len(payload["samples"]) == 8
    assert all(len(s["vertices"]) == 3 for s in payload["samples"])


def test_family_invalid_shape_exit_1(capsys):
    code, _, err = run_cli(capsys, ["family", "--a", "1", "--b", "1.5"])
    assert code == 1
    assert "a > b > 0" in err


def test_cb_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, ["cb", "--vertices", "1,0,-0.5,0.866025403784438646,-0.5,-0.866025403784438646"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["aspect"] == pytest.approx(1.0, abs=1e-9)
    assert payload["semi_major"] == pytest.approx(1.0, abs=1e-9)
    assert payload["mittenpunkt"][0] == pytest.approx(0.0, abs=1e-12)


def test_cb_vertex_on_origin_matches_translated_copy(capsys):
    code, out, _ = run_cli(capsys, ["cb", "--vertices", "0,0,1,0,0,1"])
    assert code == 0
    at_origin = json.loads(out)
    code, out, _ = run_cli(capsys, ["cb", "--vertices", "1,1,2,1,1,2"])
    assert code == 0
    moved = json.loads(out)
    for key in ("semi_major", "semi_minor"):
        assert at_origin[key] == pytest.approx(moved[key], rel=1e-12, abs=0.0)


def test_cb_of_a_thin_triangle_is_centered_on_its_mittenpunkt(capsys):
    # apex 1e-6 over a unit base, turned 30 degrees: the generic read-off put the center 9.3e-6
    # off X9 and the semi-major axis at 0.4999907400445104 against an 80-digit 0.5000000000000001
    code, out, _ = run_cli(capsys, ["cb", "--vertices", "2.0,1.0,2.866025403784439,1.5,"
                                                        "2.2598071211353314,1.1500008660254037"])
    assert code == 0
    payload = json.loads(out)
    assert payload["center"] == payload["mittenpunkt"]
    assert abs(payload["semi_major"] - 0.5000000000000001) <= 1e-12


def test_cb_degenerate_triangle_exit_2(capsys):
    code, _, err = run_cli(capsys, ["cb", "--vertices", "0,0,1,1,2,2"])
    assert code == 2
    assert json.loads(err)["error"] == "DegenerateTriangle"


def test_cb_bad_vertex_count_exit_1(capsys):
    code, _, err = run_cli(capsys, ["cb", "--vertices", "0,0,1,1"])
    assert code == 1
    assert "six" in err


def test_locus_fit_json(capsys, tmp_path):
    out_csv = tmp_path / "locus.csv"
    code, out, _ = run_cli(
        capsys,
        [
            "locus", "--a", "1.618", "--b", "1", "--center", "X168",
            "--n", "720", "--fit", "--out", str(out_csv),
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "non-elliptic"
    with open(out_csv, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 720
    assert set(rows[0]) == {"t", "x", "y"}


def test_locus_orthic_pieces(capsys):
    code, out, _ = run_cli(
        capsys,
        ["locus", "--a", "1.5", "--b", "1", "--center", "X6star",
         "--derived", "orthic", "--n", "240", "--fit"],
    )
    assert code == 0
    # output is CSV followed by the JSON fit report
    json_start = out.index("\n{") + 1
    payload = json.loads(out[json_start:])
    assert "pieces" in payload
    assert set(payload["pieces"]) == {"acute", "obtuse"}
    assert payload["pieces"]["obtuse"]["verdict"] == "non-elliptic"


def test_locus_x7_elliptic(capsys):
    code, out, _ = run_cli(
        capsys,
        ["locus", "--a", "1.5", "--b", "1", "--center", "X7", "--n", "120", "--fit"],
    )
    assert code == 0
    payload = json.loads(out[out.index("\n{") + 1:])
    assert payload["verdict"] == "elliptic"
    assert payload["fitted_axes"][0] == pytest.approx(0.7861498055439924, abs=1e-9)


@pytest.mark.parametrize("a, verdict", [("1.0000001", None), ("1.00001", "elliptic")])
def test_locus_x11_near_the_circle(capsys, tmp_path, a, verdict):
    # at a/b = 1 + 1e-7 every orbit is equilateral within rounding, so X11 is refused
    code, stdout, err = run_cli(capsys, [
        "locus", "--a", a, "--b", "1", "--center", "X11", "--fit",
        "--out", str(tmp_path / "x11.csv")])
    if verdict is None:
        assert code == 2
        assert stdout == ""
        assert json.loads(err)["error"] == "UndefinedForShape"
    else:
        assert code == 0
        assert json.loads(stdout)["verdict"] == verdict


def test_locus_bad_center_exit_1(capsys):
    code, _, err = run_cli(
        capsys, ["locus", "--a", "1.5", "--b", "1", "--center", "X999"]
    )
    assert code == 1


def test_locus_fit_beyond_the_float_range_exit_1(capsys):
    # the X7 locus of a/b = 1.5 scaled by 2^127, whose fit read NON_ELLIPTIC with exit 0
    code, stdout, err = run_cli(capsys, ["locus", "--a", "2.5521177519070385e+38", "--b",
                                         "1.7014118346046923e+38", "--center", "X7", "--fit"])
    assert code == 1
    assert stdout.startswith("t,x,y\n") and "verdict" not in stdout
    assert err == "orbitconics: error: non-finite normal equations\n"


def test_invariants_report(capsys, tmp_path):
    out_path = tmp_path / "inv.json"
    code, _, _ = run_cli(
        capsys,
        ["invariants", "--a", "1.5", "--b", "1", "--n", "90", "--out", str(out_path)],
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["all_passed"] is True
    assert payload["rho_closed_form"] == pytest.approx(0.3626596629429206, abs=1e-12)
    names = {c["name"] for c in payload["checks"]}
    assert "perimeter" in names and "mittenpunkt_norm" in names


def test_poristic_report(capsys):
    code, out, _ = run_cli(
        capsys, ["poristic", "--r", "0.3625", "--R", "1", "--n", "60"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["aspect_mean"] == pytest.approx(1.500472973419524, abs=1e-9)
    assert payload["aspect_spread_rel"] <= 1e-9
    assert payload["closed_form_abs_diff"] <= 1e-9
    assert payload["mittenpunkt_circle"]["rms"] <= 1e-7


@pytest.mark.parametrize(
    "argv",
    [
        ["family", "--a", "1.5", "--b", "1", "--n", "0"],
        ["family", "--a", "1.5", "--b", "1", "--n", "-3"],
        ["poristic", "--r", "0.3625", "--R", "1", "--n", "0"],
        ["invariants", "--a", "1.5", "--b", "1", "--n", "1"],
        ["locus", "--a", "1.5", "--b", "1", "--center", "X7", "--n", "7"],
        ["hyperbolae", "--a", "1.5", "--b", "1", "--n", "4"],
        ["family", "--a", "1.5", "--b", "1", "--n", "ten"],
    ],
)
def test_bad_sample_count_exit_1(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert "--n" in err and "need an integer >= 8" in err


# numpy refuses an 8 PB sample grid before it touches memory: the request is past any 64-bit
# host's address space
@pytest.mark.parametrize("command", [["family", "--a", "1.5", "--b", "1"],
                                     ["locus", "--a", "1.5", "--b", "1", "--center", "X1"],
                                     ["invariants", "--a", "1.5", "--b", "1"],
                                     ["poristic", "--r", "0.3625", "--R", "1"],
                                     ["hyperbolae", "--a", "1.5", "--b", "1"]],
                         ids=lambda command: command[0])
def test_sample_count_too_large_to_allocate_exit_1(capsys, command):
    code, out, err = run_cli(capsys, [*command, "--n", str(10**15)])
    assert code == 1
    assert out == ""
    assert err.startswith("orbitconics: error: ") and err.count("\n") == 1


def test_family_too_large_to_allocate_exits_1_without_traceback():
    assert "allocate" in assert_exits_1_with_one_error_line(
        ["family", "--a", "1.5", "--b", "1", "--n", str(10**15)])


def test_poristic_invalid_exit_1(capsys):
    code, _, err = run_cli(capsys, ["poristic", "--r", "0.6", "--R", "1"])
    assert code == 1
    assert "R >= 2 r" in err


def test_hyperbolae_report(capsys):
    code, out, _ = run_cli(
        capsys, ["hyperbolae", "--a", "1.5", "--b", "1", "--n", "400"]
    )
    assert code == 0
    payload = json.loads(out[out.index("\n{") + 1:])
    assert payload["ratio_mean"] == pytest.approx(2.348363767172005, abs=1e-9)
    assert payload["ratio_spread_rel"] <= 1e-9
    assert payload["feuerbach_interior_maxima"] == 3
    header = out.splitlines()[0]
    assert header == "t,feuerbach_focal_length,jerabek_excentral_focal_length"


@pytest.mark.parametrize("a, b", [("1.5e-4", "1e-4"), ("1.5e8", "1e8")])
def test_hyperbolae_of_a_rescaled_shape(capsys, a, b):
    # exit 2 before the focal-length bound: the borrowed guard mixed coefficients of length degree
    # 3, 3 and 2, so its verdict depended on the scale
    code, out, _ = run_cli(capsys, ["hyperbolae", "--a", a, "--b", b])
    assert code == 0
    payload = json.loads(out[out.index("\n{") + 1:])
    assert (payload["n_samples"], payload["n_skipped"]) == (720, 0)
    assert payload["ratio_mean"] == pytest.approx(2.348363767172005, abs=1e-9)


def test_hyperbolae_it_cannot_resolve_exit_2(capsys):
    code, out, err = run_cli(capsys, ["hyperbolae", "--a", "1000", "--b", "1"])
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "DegenerateConic",
        "message": "hyperbola too close to its asymptotes: focal length not resolved to 1e-9",
    }


@pytest.mark.parametrize("sizes", [[], ["--n", "16"]])
def test_hyperbolae_output_is_that_of_its_focal_samples(capsys, sizes):
    code, out, _ = run_cli(capsys, ["hyperbolae", "--a", "1.5", "--b", "1", *sizes])
    assert code == 0
    shape = BilliardShape(1.5, 1.0)
    focal = focal_profile(shape, n=int(sizes[1]) if sizes else 720)
    profile = list(focal)
    # the report as written from a list of FocalSample
    rows = [f"{s.t!r},{s.feuerbach!r},{s.jerabek_excentral!r}" for s in profile]
    ratios = np.array([s.ratio for s in profile])
    report = {
        "schema": SCHEMA,
        "command": "hyperbolae",
        "a": 1.5,
        "b": 1.0,
        "n_samples": len(profile),
        "n_skipped": len(focal.skipped),
        "ratio_mean": float(ratios.mean()),
        "ratio_spread_rel": float((ratios.max() - ratios.min()) / ratios.mean()),
        "ratio_closed_form": focal_ratio_closed_form(shape),
        "feuerbach_interior_maxima": count_interior_maxima([s.feuerbach for s in profile]),
    }
    header = "t,feuerbach_focal_length,jerabek_excentral_focal_length"
    assert out == _csv_text(header, rows) + _json_dump(report)


def test_render_svg(capsys, tmp_path):
    csv_path = tmp_path / "pts.csv"
    svg_path = tmp_path / "out.svg"
    code, _, _ = run_cli(
        capsys,
        ["locus", "--a", "1.5", "--b", "1", "--center", "X1", "--n", "90",
         "--out", str(csv_path)],
    )
    assert code == 0
    code, _, _ = run_cli(
        capsys,
        ["render", "--input", str(csv_path), "--out", str(svg_path),
         "--overlay", "billiard", "--overlay", "caustic", "--a", "1.5", "--b", "1"],
    )
    assert code == 0
    svg = svg_path.read_text()
    assert svg.startswith("<svg")
    assert svg.count("<path") == 2  # the two dashed overlays
    assert "<polyline" in svg


def test_render_overlay_needs_shape(capsys, tmp_path):
    csv_path = tmp_path / "pts.csv"
    csv_path.write_text("x,y\n0,0\n1,1\n")
    code, _, err = run_cli(
        capsys,
        ["render", "--input", str(csv_path), "--out", str(tmp_path / "o.svg"),
         "--overlay", "billiard"],
    )
    assert code == 1


def test_render_header_only_csv_draws_an_empty_square(capsys, tmp_path):
    # no points: the view box falls back to [-1, 1] in both axes, and no polyline is drawn
    empty, svg_path = tmp_path / "empty.csv", tmp_path / "o.svg"
    empty.write_text("x,y\n")
    code, _, _ = run_cli(capsys, ["render", "--input", str(empty), "--out", str(svg_path)])
    assert code == 0
    svg = svg_path.read_text()
    assert 'width="720" height="720"' in svg and "<polyline" not in svg


def test_render_missing_columns_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("u,v\n0,0\n")
    code, _, err = run_cli(
        capsys, ["render", "--input", str(bad), "--out", str(tmp_path / "o.svg")]
    )
    assert code == 1
    assert "columns" in err


@pytest.mark.parametrize("text, line", [("x,y\n1\n2,3\n", 2), ("x,y\n0,0\ninf,1\n", 3),
                                        ("x,y\n0,0\n1,nan\n", 3)],
                         ids=["missing-y", "inf", "nan"])
def test_render_row_without_finite_coordinates_exits_1_naming_it(tmp_path, text, line):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    out = tmp_path / "o.svg"
    err = assert_exits_1_with_one_error_line(["render", "--input", str(bad), "--out", str(out)])
    assert f"line {line} " in err
    assert not out.exists()


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "orbitconics.cli", "family", "--a", "1.2",
         "--b", "1", "--n", "8"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("t,x1,y1")


def test_process_entry_exits_2_with_the_json_error_object():
    result = subprocess.run([sys.executable, "-m", "orbitconics.cli", "cb", "--vertices=0,0,1,0,2,0"],
                            capture_output=True, text=True)
    assert result.returncode == 2
    assert result.stdout == ""
    assert json.loads(result.stderr)["error"] == "DegenerateTriangle"


def test_process_entry_prints_the_bytes_of_in_process_main(capsysbinary):
    argv = ["invariants", "--a", "1.5", "--b", "1", "--n", "16"]
    result = subprocess.run([sys.executable, "-m", "orbitconics.cli", *argv], capture_output=True)
    assert main(argv) == result.returncode == 0
    assert capsysbinary.readouterr().out == result.stdout


def test_process_entry_exits_with_the_collector_off_and_its_objects_frozen():
    # atexit handlers still run after run()'s sys.exit
    code = ("import atexit, gc, sys; from orbitconics.cli import run; "
            "atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count() > 0)); "
            "sys.argv[1:] = ['cb', '--vertices=0,0,3,0,1,2']; run()")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.endswith("}\nFalse True\n")
    assert json.loads(result.stdout.removesuffix("False True\n"))["command"] == "cb"


def test_main_leaves_the_collector_alone(capsys):
    # only the process entry, run(), turns the collector off and freezes objects
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    for argv in (["family", "--a", "1.5", "--b", "1", "--n", "16"],
                 ["cb", "--vertices", "0,0,1,1,2,2"], ["family", "--a", "1"]):
        main(argv)
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    capsys.readouterr()


def assert_exits_1_with_one_error_line(argv):
    # a numpy RuntimeWarning on the way is an error
    result = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "orbitconics.cli",
                             *argv], capture_output=True, text=True)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("orbitconics: error: ")
    assert result.stderr.count("\n") == 1
    return result.stderr


# from 1e77 the conic's D and E overflow, from about 1e103 abc does, and below about 1e-103 abc
# leaves the normal float range
@pytest.mark.parametrize("scale", ["e80", "e110", "e-110"])
def test_cb_beyond_the_float_range_exits_1_without_traceback(scale):
    vertices = ",".join(f"{c}{scale}" if c != "0" else c for c in "0,0,3,0,1,2".split(","))
    assert_exits_1_with_one_error_line(["cb", f"--vertices={vertices}"])


def test_cb_of_a_triangle_whose_side_overflows_exits_1():
    # its vertices are finite, but |p2 p3| is not
    assert assert_exits_1_with_one_error_line(["cb", "--vertices=0,0,1.5e308,0,0,1.5e308"]) == (
        "orbitconics: error: non-finite triangle\n")


@pytest.mark.parametrize("argv", [["invariants", "--a", "7.5e76", "--b", "5e76"],
                                  ["poristic", "--r", "0.725e77", "--R", "2e77"]],
                         ids=["invariants", "poristic"])
def test_axes_beyond_the_float_range_exit_1_without_traceback(argv):
    # every circumbilliard's conic overflows, so every sample is refused
    assert "non-finite ellipse center or semi-axes" in assert_exits_1_with_one_error_line(argv)


def test_no_subcommand_exit_1():
    result = subprocess.run(
        [sys.executable, "-m", "orbitconics.cli"], capture_output=True, text=True
    )
    assert result.returncode == 1


def test_family_csv_bytes_match_the_csv_writer(capsys):
    # a/b = 2 has obtuse rows; the CSV used to be written by csv.writer
    argv = ["family", "--a", "2", "--b", "1", "--n", "64"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    _, doc, _ = run_cli(capsys, argv + ["--format", "json"])
    samples = json.loads(doc)["samples"]
    assert {s["shape_class"] for s in samples} == {"acute", "obtuse"}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "x1", "y1", "x2", "y2", "x3", "y3", "shape_class", "perimeter", "rho"])
    for s in samples:
        coords = [repr(float(c)) for vertex in s["vertices"] for c in vertex]
        writer.writerow([repr(float(s["t"]))] + coords
                        + [s["shape_class"], repr(float(s["perimeter"])), repr(float(s["rho"]))])
    assert out == buf.getvalue()


@pytest.mark.parametrize("argv, echo", [
    (["family", "--a", "inf", "--b", "1"], "a=inf"),
    (["family", "--a", "nan", "--b", "1"], "a=nan"),
    (["locus", "--a", "inf", "--b", "1", "--center", "X7"], "a=inf"),
    (["invariants", "--a", "inf", "--b", "1"], "a=inf"),
    (["hyperbolae", "--a", "inf", "--b", "1"], "a=inf"),
    (["poristic", "--r", "0.3", "--R", "inf"], "R=inf"),
    (["poristic", "--r", "nan", "--R", "1"], "r=nan"),
    *((
        [command, "--a", a, "--b", b, *(["--center", "X7"] if command == "locus" else [])],
        f"a={float(a)}, b={float(b)}",
    ) for command in ("family", "locus", "invariants", "hyperbolae")
      for a, b in (("1e100", "1"), ("1e-100", "1e-101"))),
    (["poristic", "--r", "0.3", "--R", "1e300"], "R=1e+300"),
])
def test_non_finite_shape_exit_1(capsys, argv, echo):
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert "finite" in err and echo in err


def test_poristic_equilateral_family(capsys):
    # R = 2 r: every member is equilateral, so its circumbilliard is a circle
    code, out, _ = run_cli(capsys, ["poristic", "--r", "0.5", "--R", "1", "--n", "36"])
    assert code == 0
    payload = json.loads(out)
    assert payload["closed_form"] == 1.0
    assert abs(payload["aspect_mean"] - 1.0) <= 1e-12
    assert payload["aspect_spread_rel"] <= 1e-12
    # the Mittenpunkt stays at the center: no circle to fit
    assert payload["mittenpunkt_circle"] is None


@pytest.fixture(params=[0o022, 0o077], ids=["umask 022", "umask 077"])
def umask(request):
    old = os.umask(request.param)
    yield request.param
    os.umask(old)


def _mode(path) -> int:
    return stat.S_IMODE(os.stat(path).st_mode)


def test_out_files_get_the_mode_of_a_plain_write(capsys, tmp_path, umask):
    plain = tmp_path / "plain.csv"
    with open(plain, "w"):
        pass
    out = tmp_path / "family.csv"
    assert main(["family", "--a", "1.5", "--b", "1", "--n", "8", "--out", str(out)]) == 0
    assert _mode(out) == _mode(plain) == 0o666 & ~umask
    assert sorted(p.name for p in tmp_path.iterdir()) == ["family.csv", "plain.csv"]


def test_atomic_write_keeps_the_mode_of_an_existing_file(tmp_path, umask):
    out = tmp_path / "kept.txt"
    out.write_text("old")
    os.chmod(out, 0o640)
    write_text_atomic(str(out), "new")
    assert out.read_text() == "new"
    assert _mode(out) == 0o640


def test_failed_atomic_write_leaves_no_temp_file(capsys, tmp_path):
    # a directory and a file in a missing directory are refused under the name given, before a
    # temp file is made in the directory or its parent
    target, missing = tmp_path / "a-directory", tmp_path / "missing" / "x.csv"
    target.mkdir()
    with pytest.raises(IsADirectoryError) as refused:
        write_text_atomic(str(target), "text")
    assert refused.value.filename == str(target)
    with pytest.raises(FileNotFoundError) as refused:
        write_text_atomic(str(missing), "text")
    assert refused.value.filename == str(missing)
    shape = ["--a", "1.5", "--b", "1", "--n", "16"]
    for argv, out, code in ((["invariants", *shape], target, errno.EISDIR),
                            (["locus", *shape, "--center", "X1"], missing, errno.ENOENT)):
        message = f"orbitconics: error: [Errno {code}] {os.strerror(code)}: {str(out)!r}\n"
        assert run_cli(capsys, [*argv, "--out", str(out)]) == (1, "", message)
    with pytest.raises(UnicodeEncodeError):
        write_text_atomic(str(tmp_path / "new.txt"), "\ud800")
    assert [p.name for p in tmp_path.iterdir()] == ["a-directory"]
    assert list(target.iterdir()) == []


def test_out_through_a_symlink_writes_its_target(capsys, tmp_path):
    real, link = tmp_path / "real.csv", tmp_path / "link.csv"
    real.write_text("old\n")
    link.symlink_to(real.name)
    argv = ["family", "--a", "1.5", "--b", "1", "--n", "8"]
    assert main([*argv, "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == "real.csv"
    assert main(argv) == 0
    assert real.read_text() == capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]


def test_out_through_a_dangling_symlink_creates_its_target(tmp_path):
    link = tmp_path / "link.txt"
    link.symlink_to("made.txt")
    write_text_atomic(str(link), "new")
    assert link.is_symlink()
    assert (tmp_path / "made.txt").read_text() == "new"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "made.txt"]


@pytest.mark.parametrize("fit", [["--fit"], []], ids=["fit", "dump"])
def test_sweep_with_too_few_kept_samples_exit_2_and_writes_nothing(capsys, tmp_path, fit):
    # a/b puts 4 of the 8 grid orbits on right triangles, whose orthic collapses;
    # the sweep itself refuses, so a plain dump of the 4 kept points fails too
    out = tmp_path / "f.csv"
    code, stdout, err = run_cli(capsys, [
        "locus", "--a", "1.4156328339036535", "--b", "1", "--center", "X4",
        "--derived", "orthic", "--n", "8", *fit, "--out", str(out)])
    assert code == 2
    assert stdout == ""
    assert json.loads(err)["error"] == "RightTriangle"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["invariants", "--a", "1.5", "--b", "1", "--n", "16"],
    ["poristic", "--r", "0.3625", "--R", "1", "--n", "16"],
], ids=lambda argv: argv[0])
def test_reports_count_their_skipped_samples(capsys, argv):
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    keys = list(payload)
    assert keys[keys.index("n") + 1] == "n_skipped"
    assert payload["n_skipped"] == 0
