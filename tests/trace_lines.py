"""Every line of ``src/orbitconics`` runs under the tier-1 tests.

Runs the tests (``python -m pytest tests``) with a line tracer in every
Python process they start: a ``sitecustomize`` module in a temporary
directory on PYTHONPATH installs ``sys.settrace`` at start-up, so the CLI
subprocesses that tests spawn are traced too.  Then it compares the lines
that ran with every line of the package's code objects (``co_lines``) and
prints each one that never ran, other than the body of an
``if TYPE_CHECKING:`` block.  Exits 1 if there is any such line, or
pytest's own status if the tests fail.  Stdlib only; about 3x the plain
run time.  Arguments are passed on to pytest.

    python tests/trace_lines.py
"""

import ast
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "orbitconics"

#: Imported by every traced interpreter; records (file, line) of the package and writes them at exit.
SITECUSTOMIZE = '''\
import atexit
import os
import sys

_PACKAGE = os.environ["ORBITCONICS_TRACE_PACKAGE"]
_OUT = os.environ["ORBITCONICS_TRACE_OUT"]
_paths = {}  # co_filename -> its real path inside the package, or None
_hits = set()


def _path(filename):
    path = _paths.get(filename, False)
    if path is False:
        real = os.path.realpath(filename)
        path = _paths[filename] = real if os.path.dirname(real) == _PACKAGE else None
    return path


def _line(frame, event, arg):
    if event == "line":
        _hits.add((_paths[frame.f_code.co_filename], frame.f_lineno))
    return _line


def _call(frame, event, arg):
    path = _path(frame.f_code.co_filename)
    if path is None:
        return None
    _hits.add((path, frame.f_lineno))
    return _line


def _write():
    sys.settrace(None)
    with open(os.path.join(_OUT, f"{os.getpid()}.lines"), "w") as out:
        out.writelines(f"{path}\\t{line}\\n" for path, line in _hits)


atexit.register(_write)
sys.settrace(_call)
'''


def code_lines(code: types.CodeType) -> set[int]:
    """Lines of ``code`` and of the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= code_lines(const)
    return lines


def type_checking_lines(tree: ast.Module) -> set[int]:
    """Lines of the bodies of ``if TYPE_CHECKING:`` blocks, which never run."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and ast.unparse(node.test) in ("TYPE_CHECKING",
                                                                   "typing.TYPE_CHECKING"):
            lines.update(range(node.body[0].lineno, node.body[-1].end_lineno + 1))
    return lines


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as site, tempfile.TemporaryDirectory() as out:
        Path(site, "sitecustomize.py").write_text(SITECUSTOMIZE)
        path = os.pathsep.join(filter(None, [site, str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path, "ORBITCONICS_TRACE_PACKAGE": str(PACKAGE),
               "ORBITCONICS_TRACE_OUT": out}
        status = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                                 "tests", *argv], cwd=ROOT, env=env).returncode
        ran = set()
        for record in Path(out).glob("*.lines"):
            for entry in record.read_text().splitlines():
                name, line = entry.split("\t")
                ran.add((name, int(line)))
    if status:
        print(f"trace_lines: the tests failed (pytest exit {status})")
        return status
    missed = []
    for source in sorted(PACKAGE.glob("*.py")):
        text = source.read_text()
        expected = code_lines(compile(text, str(source), "exec"))
        expected -= type_checking_lines(ast.parse(text))
        missed += [f"{source.relative_to(ROOT)}:{line}" for line in sorted(expected)
                   if (str(source), line) not in ran]
    for entry in missed:
        print(f"never ran: {entry}")
    print(f"trace_lines: {len(missed)} line(s) of src/orbitconics never ran under the tests")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
