"""numpy is pinset's one runtime dependency (pyproject.toml): every module
under src/pinset imports only the standard library, numpy and pinset
itself. The check reads each module's syntax tree; it imports nothing."""

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "pinset"
ALLOWED = sys.stdlib_module_names | {"numpy", "pinset"}


def _imported_roots(tree: ast.AST):
    """(line, top-level package) for each absolute import anywhere in
    ``tree``, nested ones included; a relative import stays in pinset."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_every_import_form_is_seen():
    source = (
        "import os.path, scipy.linalg\n"
        "from . import tensor\n"
        "def f():\n"
        "    try:\n"
        "        from sklearn.datasets import load_digits\n"
        "    except ImportError:\n"
        "        import numpy as np\n"
    )
    assert list(_imported_roots(ast.parse(source))) == [(1, "os"), (1, "scipy"), (5, "sklearn"), (7, "numpy")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_module_imports_only_the_standard_library_numpy_and_pinset(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    foreign = [f"{path.name}:{line} imports {root}" for line, root in _imported_roots(tree) if root not in ALLOWED]
    assert foreign == []
