"""No module under src/, scripts/ or tests/ imports a name it never uses,
importing the CLI loads nothing beyond the standard library and numpy, and
importing the package loads none of its submodules.

A name listed in the module's ``__all__`` counts as used, and
``from __future__`` imports are exempt.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(path for tree in ("src", "scripts", "tests") for path in (ROOT / tree).rglob("*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every name the source imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys\nimport numpy as np\nfrom a.b import c, d\n"
    assert unused_imports(source + "__all__ = ['d']\nsys.exit(np)\n") == [(2, "os"), (4, "c")]
    assert unused_imports("import os.path\nos.path.join()\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def new_modules(statement: str) -> set[str]:
    """Every module the statement adds to sys.modules in a fresh interpreter."""
    code = f"import sys; before = set(sys.modules); {statement}; print(*sorted(set(sys.modules) - before))"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_importing_the_cli_loads_only_the_standard_library_numpy_and_hologate():
    # every holgate run and script starts with this import, so a heavy one
    # (scipy, say) would add to the start-up time of each
    loaded = {name.partition(".")[0] for name in new_modules("import hologate.cli")}
    assert {"hologate", "numpy"} <= loaded
    assert loaded - sys.stdlib_module_names - {"hologate", "numpy"} == set()


def test_the_import_graph_is_the_dependency_graph():
    # the package root re-exports nothing, so a submodule loads only what it imports
    def submodules(statement):
        return {name for name in new_modules(statement) if name.startswith("hologate.")}

    assert submodules("import hologate") == set()
    assert submodules("import hologate.holonomy") == {"hologate.linalg", "hologate.holonomy"}
