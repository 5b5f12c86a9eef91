"""Every name a module of the package imports is used in it.

A deletion in src tends to leave the import of what it deleted behind; this
check reads each module with the standard library's `ast` and names every
imported name that no expression of the module reads. A name the package
re-exports (listed in the module's `__all__`) counts as used, and so does
each name of `KEPT`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "regretctl"

# (module, name) imported on purpose and never read: operator_oracle's
# binding of psd_sqrt is one the benchmark's tracer is required to wrap
# (perfbench/test_perfbench.py)
KEPT = {("operator_oracle", "psd_sqrt")}


def imported_names(tree):
    """{bound name: line} of every import statement of a module, the
    `from __future__` ones aside."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def read_names(tree):
    """Every name an expression of the module reads, plus the strings of its
    `__all__`."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return read


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = read_names(tree)
    return sorted(
        (line, name)
        for name, line in imported_names(tree).items()
        if name not in read and (path.stem, name) not in KEPT
    )


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path) == []


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from .kernels import _mv, _sym\n"
        "import os.path\n"
        "__all__ = ['_sym']\n"
        "def f(x):\n"
        "    return _mv(x, x)\n"
    )
    assert unused_imports(module) == [(2, "np"), (4, "os")]
