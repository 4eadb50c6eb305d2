"""Module layout and public surface: the package computes with Python ints,
fractions and lists or dicts of them, and the selftest draws from the
standard library's ``random``, so no module imports numpy; neither importing
``cechmv.cli`` nor a ``compute`` run loads it, and the selftest passes with
numpy blocked; every name ``cechmv.__all__`` lists resolves; and every
function of the package is run by ``compute`` (the call-coverage gate)."""

import ast
import json
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


# The committed jobs the call-coverage gate runs: a quotient with several
# generators, one of them redundant (three_term_quotient, which also runs
# les), two groups with every task, three groups with mvss:1a (and so the
# limit-filtration audit), four groups with props2, and two jobs over Q,
# one with every task, whose eliminations divide by pivots (rational_all_tasks).
COVERAGE_JOBS = (
    JOBS_DIR / "three_term_quotient.json",
    JOBS_DIR / "two_ideals.json",
    JOBS_DIR / "three_ideals.json",
    JOBS_DIR / "four_ideals.json",
    JOBS_DIR / "mixed_quotient.json",
    JOBS_DIR / "rational_all_tasks.json",
)

# The functions of the package that no ``compute`` run calls, each with why
# it stays.
NOT_RUN_BY_COMPUTE = {
    # binds ``cechmv.compute`` on first use, for the library; the command
    # line imports ``compute`` from ``cechmv.cli`` directly
    "__init__.__getattr__",
    # the window table of one sequence, the first call of the README's
    # library quick start
    "cech.OracleCache.table",
}


def package_functions() -> dict[tuple[str, int], str]:
    """{(file, first line of its code object): module.qualified.name} for
    every ``def`` in the package, nested ones and methods included.  A code
    object's first line is that of its first decorator."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[str(path), line] = f"{prefix}.{child.name}"
                visit(child, path, f"{prefix}.{child.name}")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}.{child.name}")
            else:
                visit(child, path, prefix)

    for path in sorted(Path(cechmv.__file__).resolve().parent.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path, path.stem)
    return found


def test_every_function_is_run_by_compute(tmp_path):
    """The call-coverage gate: a fresh interpreter, with a ``sys.setprofile``
    hook that records every function call from before ``cechmv.cli`` is
    imported, runs ``compute`` on ``COVERAGE_JOBS`` at ``--jobs 1`` and
    ``selftest --seed 7``; every function of the package is called, except
    the ones ``NOT_RUN_BY_COMPUTE`` names.  Code only the tests need belongs
    in ``tests/``.  The fresh interpreter holds no cache that an earlier
    test filled, so a cached function's body runs here or nowhere."""
    code = (
        "import json, os, sys\n"
        "calls = set()\n"
        "def hook(frame, event, arg):\n"
        "    if event == 'call':\n"
        "        calls.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))\n"
        "sys.setprofile(hook)\n"
        "import cechmv.cli\n"
        "jobs, out = json.loads(sys.argv[1]), sys.argv[2]\n"
        "rcs = [cechmv.cli.main(['compute', job, '--out', os.path.join(out, str(k)),\n"
        "                        '--jobs', '1']) for k, job in enumerate(jobs)]\n"
        "rcs.append(cechmv.cli.main(['selftest', '--seed', '7']))\n"
        "sys.setprofile(None)\n"
        "print(json.dumps({'rcs': rcs, 'calls': [[os.path.realpath(f), line]\n"
        "                                        for f, line in calls]}))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps([str(p) for p in COVERAGE_JOBS]), str(tmp_path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["rcs"] == [0] * (len(COVERAGE_JOBS) + 1)
    functions = package_functions()
    assert NOT_RUN_BY_COMPUTE <= set(functions.values())
    called = {tuple(call) for call in got["calls"]}
    uncalled = {name for key, name in functions.items() if key not in called}
    assert uncalled == NOT_RUN_BY_COMPUTE, sorted(uncalled ^ NOT_RUN_BY_COMPUTE)
