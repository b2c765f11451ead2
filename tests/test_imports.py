"""Every imported name in src/ and tests/ is read somewhere in its module,
and no module in src/ imports scipy when it is itself imported.

No linter ships with the project, so this parses each file with `ast`.  A
name counts as read when it is loaded as a plain name, including as the
base of an attribute chain, or when `__all__` lists it.  Imports from
`__future__` bind no name.

scipy costs a cold CLI call several times numpy's import time, and only
the constrained fringe refit and the dark-count calibration use it, so
those functions import it where they call it.  An import runs
at module level unless a function body holds it; one under `if`, `try`
or a class body still runs on import.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC_FILES = sorted((ROOT / "src").rglob("*.py"))
FILES = SRC_FILES + sorted((ROOT / "tests").rglob("*.py"))


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in read)


def module_level_scipy_imports(source: str):
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.Import):
                found.extend((child.lineno, alias.name) for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                found.append((child.lineno, child.module))
            visit(child)

    visit(ast.parse(source))
    return sorted(
        (line, name) for line, name in found if name == "scipy" or name.startswith("scipy.")
    )


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_sees_each_kind():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import pi, tau\n"
        "__all__ = ['tau']\n"
        "x = np.zeros(1)\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "pi")]


@pytest.mark.parametrize("path", SRC_FILES, ids=[str(p.relative_to(ROOT)) for p in SRC_FILES])
def test_no_module_level_scipy_import(path):
    assert module_level_scipy_imports(path.read_text()) == []


def test_module_level_scipy_check_sees_each_kind():
    source = (
        "import scipy\n"
        "import os, scipy.optimize as so\n"
        "from scipy.constants import c\n"
        "import scipyx\n"
        "from .scipy import x\n"
        "try:\n"
        "    from scipy import linalg\n"
        "except ImportError:\n"
        "    pass\n"
        "class A:\n"
        "    import scipy.special\n"
        "def f():\n"
        "    from scipy.optimize import brentq\n"
        "async def g():\n"
        "    import scipy\n"
    )
    assert module_level_scipy_imports(source) == [
        (1, "scipy"), (2, "scipy.optimize"), (3, "scipy.constants"), (7, "scipy"), (11, "scipy.special"),
    ]
