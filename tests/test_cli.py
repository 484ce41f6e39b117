import csv
import json
import subprocess
import sys

import pytest

from orbitconics.cli import main, parse_center


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
    assert payload["schema"] == "orbitconics-report/1"
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


def test_cb_collinear_exit_2(capsys):
    code, _, err = run_cli(capsys, ["cb", "--vertices", "0,0,1,1,2,2.0001"])
    assert code == 2
    error = json.loads(err)
    assert error["error"] == "SingularSystem"


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


def test_locus_bad_center_exit_1(capsys):
    code, _, err = run_cli(
        capsys, ["locus", "--a", "1.5", "--b", "1", "--center", "X999"]
    )
    assert code == 1


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


def test_poristic_invalid_exit_1(capsys):
    code, _, err = run_cli(capsys, ["poristic", "--r", "0.6", "--R", "1"])
    assert code == 1
    assert "R > 2 r" in err


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


def test_render_missing_columns_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("u,v\n0,0\n")
    code, _, err = run_cli(
        capsys, ["render", "--input", str(bad), "--out", str(tmp_path / "o.svg")]
    )
    assert code == 1
    assert "columns" in err


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "orbitconics.cli", "family", "--a", "1.2",
         "--b", "1", "--n", "8"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("t,x1,y1")


def test_no_subcommand_exit_1():
    result = subprocess.run(
        [sys.executable, "-m", "orbitconics.cli"], capture_output=True, text=True
    )
    assert result.returncode == 1
