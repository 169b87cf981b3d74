"""The package imports nothing outside the standard library.

Every `import` in `src/qsymm` is read from the syntax tree, so an import in
a function body or behind a guard counts too.
"""

import ast
import sys
from pathlib import Path

import qsymm

ALLOWED = frozenset(sys.stdlib_module_names) | {"qsymm"}


def outside_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) of every absolute import of a top-level module that is
    neither in the standard library nor `qsymm`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names if name.split(".")[0] not in ALLOWED]
    return found


def test_package_imports_only_the_standard_library():
    outside = []
    for path in sorted(Path(qsymm.__file__).parent.rglob("*.py")):
        outside += [f"{path.name}:{line} {name}" for line, name in outside_imports(path.read_text(encoding="utf-8"))]
    assert outside == []


def test_the_scan_sees_every_import_form():
    source = (
        "import os, numpy.linalg\n"
        "from fractions import Fraction\n"
        "from . import elements\n"
        "from .compositions import weight\n"
        "from qsymm.errors import ParseError\n"
        "def f():\n"
        "    from scipy import sparse\n"
        "try:\n"
        "    import gmpy2\n"
        "except ImportError:\n"
        "    pass\n"
    )
    assert sorted(outside_imports(source)) == [(1, "numpy.linalg"), (7, "scipy"), (9, "gmpy2")]
