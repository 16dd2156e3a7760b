"""Every name a package module imports is read by that module.

No linter runs on this tree, so this test stands in for the unused-import
check: it parses each module of ``src/gmvshrink`` and fails on any name an
``import`` binds that no expression of the module reads. ``__future__``
imports are exempt. ``KEPT`` lists the re-exports that are imported only
to be read from outside the module; each entry says who reads it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gmvshrink"

KEPT = {
    # aliases perfbench/tests/tracer_checks.py asserts
    ("overlap", "gmv_weights"),
    ("overlap", "feasible_intensity"),
    ("strategies", "gmv_weights"),
    # the overlapping step that acceptance criteria 2 and 3 call
    ("overlap", "step"),
}


def unused_imports(source):
    """Names bound by an import in ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return imported - read


def test_finder_sees_unused_and_read_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport sys as system\nfrom math import inf, nan\n"
        "print(os.path.sep, nan)\n"
    )
    assert unused_imports(source) == {"system", "inf"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_module_reads_every_name_it_imports(path):
    unused = {name for name in unused_imports(path.read_text()) if (path.stem, name) not in KEPT}
    assert not unused, f"{path.name} imports names it never reads: {sorted(unused)}"


def test_kept_re_exports_are_still_unread_where_they_are_imported():
    found = {
        (path.stem, name)
        for path in PACKAGE.glob("*.py")
        for name in unused_imports(path.read_text())
    }
    assert found == KEPT
