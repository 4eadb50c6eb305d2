"""Module layout and public surface: the package computes with Python ints,
fractions and lists or dicts of them, and the selftest draws from the
standard library's ``random``, so no module imports numpy; neither importing
``cechmv.cli`` nor a ``compute`` run loads it, and the selftest passes with
numpy blocked; every name ``cechmv.__all__`` lists resolves."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import cechmv

SRC = Path(cechmv.__file__).resolve().parents[1]
JOBS_DIR = Path(__file__).resolve().parents[1] / "jobs"


def numpy_imports(path: Path) -> list[tuple[str | None, int]]:
    """(enclosing function or None at module level, line) of every statement
    in ``path`` that imports numpy."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                names = [child.module or ""]
            else:
                names = []
            if any(name.split(".")[0] == "numpy" for name in names):
                found.append((func, child.lineno))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            visit(child, inner)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def test_no_module_imports_numpy():
    modules = sorted(Path(cechmv.__file__).parent.glob("*.py"))
    assert {p.name for p in modules} >= {"linalg.py", "cech.py", "cli.py", "spectral.py"}
    found = {p.name: numpy_imports(p) for p in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_selftest_passes_with_numpy_blocked():
    """A fresh interpreter in which ``import numpy`` fails runs the selftest."""
    code = ("import sys\n"
            "sys.modules['numpy'] = None\n"
            "import cechmv.cli\n"
            "sys.exit(cechmv.cli.main(['selftest', '--seed', '7', '--max-vars', '2', "
            "'--max-groups', '2']))\n")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest passed" in proc.stdout


def test_import_and_compute_leave_numpy_unloaded(tmp_path):
    """A fresh interpreter imports ``cechmv.cli`` and runs ``compute`` on the
    two-ideal job in process; numpy is in ``sys.modules`` after neither."""
    code = (
        "import sys\n"
        "import cechmv.cli\n"
        "loaded = ['numpy' in sys.modules]\n"
        "rc = cechmv.cli.main(['compute', sys.argv[1], '--out', sys.argv[2], '--jobs', '1'])\n"
        "loaded.append('numpy' in sys.modules)\n"
        "print(rc, loaded)\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(JOBS_DIR / "two_ideals.json"), str(tmp_path / "out")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 [False, False]", proc.stdout
    assert (tmp_path / "out" / "report.json").exists()


def test_every_public_name_resolves():
    assert "compute" in cechmv.__all__  # bound on first use, by the module's __getattr__
    assert [name for name in cechmv.__all__ if not hasattr(cechmv, name)] == []
