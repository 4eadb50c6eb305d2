"""Module layout and public surface: the lattice route holds Python ints,
fractions and lists or dicts of them, so numpy stays private to the oracle's
dense elimination (``linalg``) and to the selftest's random draws (``cli``);
every name ``cechmv.__all__`` lists resolves."""

import ast
from pathlib import Path

import cechmv

NUMPY_MODULES = {"linalg.py", "cli.py"}


def numpy_imports(path: Path) -> list[int]:
    """The line numbers of the statements in ``path`` that import numpy."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "numpy" for name in names):
            lines.append(node.lineno)
    return lines


def test_only_the_oracle_and_the_cli_import_numpy():
    modules = sorted(Path(cechmv.__file__).parent.glob("*.py"))
    assert {p.name for p in modules} >= NUMPY_MODULES | {"spectral.py", "mvss.py"}
    found = {p.name: numpy_imports(p) for p in modules}
    assert {name for name, lines in found.items() if lines} == NUMPY_MODULES, found


def test_every_public_name_resolves():
    assert "compute" in cechmv.__all__  # bound on first use, by the module's __getattr__
    assert [name for name in cechmv.__all__ if not hasattr(cechmv, name)] == []
