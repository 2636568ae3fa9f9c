"""The package has no runtime dependencies: every module imports only the
standard library and gridlay itself.

The test extra brings numpy and hypothesis into every environment the suite
runs in, so a stray import of either in the package would pass every other
test; this one reads the imports from the source instead of running them.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted((SRC / "gridlay").glob("*.py"))


def absolute_imports(tree: ast.AST):
    """(top-level module, line) of each absolute import in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0], node.lineno


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "geometry.py", "tech.py"}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    foreign = [
        f"{path.name}:{line}: {name}"
        for name, line in absolute_imports(tree)
        if name != "gridlay" and name not in sys.stdlib_module_names
    ]
    assert foreign == []


def test_import_generates_no_record_code():
    """The records are tuple classes, so a fresh `import gridlay` loads neither
    `dataclasses` nor the `inspect` it pulls in.

    The baseline is taken after `importlib.resources`, which the tech loader
    imports and which itself loads `inspect` on some Python versions."""
    code = ("import sys, importlib.resources; before = set(sys.modules); import gridlay; "
            "print(*sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout.split()
    assert "gridlay" in out
    assert [m for m in ("dataclasses", "inspect") if m in out] == []
