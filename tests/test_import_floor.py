"""The package and the CLI import numpy only when a subcommand or a name needs arrays.

Each check runs in a fresh interpreter, since this test process has
long since imported everything.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orbitconics

SRC = Path(orbitconics.__file__).resolve().parent.parent
LIBRARY_MODULES = sorted(f"orbitconics.{name}" for name in orbitconics._LAZY_EXPORTS)

#: The package's public names, pinned: the exceptions and the lazy table must give exactly these.
EXPORTS = [
    "BilliardShape", "CircleFit", "CircumbilliardResult", "ClosureFailure", "Conic", "ConicClass",
    "DegenerateConic", "DegenerateTriangle", "EllipseParams", "Family", "FocalProfile",
    "FocalSample", "IllConditioned", "InvalidShape", "InvariantReport", "LocusFitReport",
    "LocusSweep", "NoRealConic", "NotAnEllipse", "ORTHIC_CB_CENTER", "OrbitConicsError",
    "OrbitSample", "Point", "PointAtInfinity", "Points", "PoristicShape", "RightTriangle",
    "SUPPORTED_CENTERS", "ShapeClass", "SingularSystem", "Skips", "Tri", "Triangle",
    "UndefinedForShape", "Verdict", "act", "billiard_intersections", "caustic", "center",
    "circumbilliard", "classify_conic", "classify_orbit", "classify_triangle", "conic_center",
    "conic_eval", "conic_to_ellipse_params", "count_interior_maxima", "derived_cb",
    "derived_triangle", "equilateral_orthic_threshold", "excentral", "excentral_inconic_axes",
    "feuerbach_hyperbola", "fit_by_shape_class", "fit_circle", "fit_locus", "focal_length",
    "focal_profile", "focal_ratio_closed_form", "inradius_to_circumradius", "invariant_report",
    "jerabek_excentral", "line_conic_tangency_residual", "macbeath_inconic_ratio", "medial",
    "obtuse_threshold", "orbit", "orthic", "orthic_cb_center", "orthic_center_transition",
    "poristic_cb_aspect", "poristic_triangle", "reflection_residual", "right_angle_vertex",
    "solve_circumconic", "solve_inconic", "sweep_locus", "x3_inconic_ratio",
]


def fresh(code: str, *args: str):
    """Run ``code`` in a new interpreter; it ends by printing one JSON value, returned here."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                            env=env, check=True)
    return json.loads(result.stdout.splitlines()[-1])


def loaded_after(statements: str, *args: str):
    return fresh(f"import json, sys\n{statements}\n"
                 "print(json.dumps(sorted(m for m in sys.modules "
                 "if m == 'numpy' or m.startswith('orbitconics'))))", *args)


def test_importing_the_cli_loads_no_numpy():
    assert loaded_after("import orbitconics.cli") == [
        "orbitconics", "orbitconics.cli", "orbitconics.errors"]


def run_cli(*argv: str, code: int = 0):
    """Modules loaded by one ``cli.main(argv)`` in a fresh interpreter, which must return ``code``."""
    return loaded_after("from orbitconics import cli\n"
                        "code = cli.main(sys.argv[2:])\n"
                        "assert code == int(sys.argv[1]), code", str(code), *argv)


def test_cb_loads_no_numpy(tmp_path):
    out = tmp_path / "cb.json"
    modules = run_cli("cb", "--vertices", "0,0,4,0,1,3", "--out", str(out))
    assert "numpy" not in modules
    assert "orbitconics.circumbilliard" in modules
    assert json.loads(out.read_text())["command"] == "cb"


def test_bad_sample_count_loads_no_numpy():
    modules = run_cli("family", "--a", "1.5", "--b", "1", "--n", "3", code=1)
    assert "numpy" not in modules


@pytest.mark.parametrize("argv", [
    ["family", "--a", "1.5", "--b", "1", "--n", "8"],
    ["hyperbolae", "--a", "1.5", "--b", "1", "--n", "40"],
], ids=lambda argv: argv[0])
def test_family_and_hyperbolae_skip_the_sweep_and_fit_modules(argv, tmp_path):
    modules = run_cli(*argv, "--out", str(tmp_path / "out.csv"))
    assert "numpy" in modules
    assert "orbitconics.loci" not in modules
    assert "orbitconics.circumbilliard" not in modules


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["render", "--help"],
    [],
    ["bogus"],
    ["family", "--a", "1.5"],
    ["locus", "--a", "1.5", "--b", "1", "--center", "X7", "--derived", "pedal"],
], ids=lambda argv: " ".join(argv) or "no-subcommand")
def test_help_and_usage_errors_load_no_numpy(argv):
    modules = loaded_after(
        "from orbitconics import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "assert code == (0 if '--help' in sys.argv else 1), code", *argv)
    assert "numpy" not in modules


def test_render_without_overlay_loads_no_numpy(tmp_path):
    (tmp_path / "locus.csv").write_text("t,x,y\n0.0,1.0,0.0\n1.0,0.0,1.0\n2.0,-1.0,0.5\n")
    modules = loaded_after(
        "from orbitconics import cli\n"
        "assert cli.main(['render', '--input', sys.argv[1], '--out', sys.argv[2]]) == 0",
        str(tmp_path / "locus.csv"), str(tmp_path / "locus.svg"))
    assert "numpy" not in modules
    assert (tmp_path / "locus.svg").read_text().startswith("<svg")


def test_render_with_overlay_loads_the_billiard(tmp_path):
    modules = loaded_after(
        "from orbitconics import cli\n"
        "assert cli.main(['render', '--input', sys.argv[1], '--out', sys.argv[2],"
        " '--overlay', 'caustic', '--a', '1.5', '--b', '1']) == 1",
        str(tmp_path / "missing.csv"), str(tmp_path / "o.svg"))
    assert "orbitconics.billiard" in modules


def test_render_with_billiard_overlay_loads_no_numpy(tmp_path):
    (tmp_path / "locus.csv").write_text("t,x,y\n0.0,1.0,0.0\n1.0,0.0,1.0\n2.0,-1.0,0.5\n")
    modules = run_cli("render", "--input", str(tmp_path / "locus.csv"),
                      "--out", str(tmp_path / "locus.svg"), "--overlay", "billiard",
                      "--a", "1.5", "--b", "1")
    assert "numpy" not in modules
    assert "orbitconics.billiard" in modules
    assert (tmp_path / "locus.svg").read_text().startswith("<svg")


def test_package_import_binds_only_the_exceptions():
    names = fresh("import json, orbitconics\n"
                  "print(json.dumps([hasattr(orbitconics, 'kernel'), 'Conic' in dir(orbitconics),"
                  " 'numpy' in __import__('sys').modules, orbitconics.InvalidShape.__module__]))")
    assert names == [False, True, False, "orbitconics.errors"]


@pytest.mark.parametrize("name", [names[0] for names in orbitconics._LAZY_EXPORTS.values()])
def test_first_use_of_an_export_loads_every_module(name):
    modules = loaded_after(f"import orbitconics\norbitconics.{name}")
    assert "numpy" in modules
    assert set(LIBRARY_MODULES) <= set(modules)
    assert "orbitconics.cli" not in modules


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        orbitconics.no_such_name
    assert fresh("import json, orbitconics\n"
                 "print(json.dumps(hasattr(orbitconics, 'loci')))") is False


def test_exports_are_pinned():
    assert sorted(orbitconics.__all__) == EXPORTS
    assert set(EXPORTS) <= set(dir(orbitconics))


def test_each_export_is_its_defining_module_object():
    defined_in = {name: "errors" for name in EXPORTS}
    for module_name, names in orbitconics._LAZY_EXPORTS.items():
        defined_in.update(dict.fromkeys(names, module_name))
    for name, module_name in defined_in.items():
        module = importlib.import_module(f"orbitconics.{module_name}")
        value = getattr(orbitconics, name)
        assert value is getattr(module, name), name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == module.__name__, name
