"""Every name a package module imports is read by that module, and every
text file it opens names its encoding.

No linter runs on this tree, so this test stands in for the unused-import
check: it parses each module of ``src/gmvshrink`` and fails on any name an
``import`` binds that no expression of the module reads. ``__future__``
imports are exempt. ``KEPT`` lists the re-exports that are imported only
to be read from outside the module; each entry says who reads it.

The same parse fails on any ``open()`` call in text mode without an
``encoding`` argument, which would read and write in the locale's encoding.
A mode holding ``b`` is exempt.
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


def opens_without_encoding(source):
    """Lines of the text-mode ``open()`` calls in ``source`` that name no encoding."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open"):
            continue
        keywords = {k.arg: k.value for k in node.keywords}
        mode = node.args[1] if len(node.args) > 1 else keywords.get("mode")
        binary = isinstance(mode, ast.Constant) and "b" in mode.value
        if not binary and len(node.args) < 4 and "encoding" not in keywords:
            lines.append(node.lineno)
    return sorted(lines)


def test_encoding_finder_exempts_binary_modes_only():
    source = (
        "open(a)\nopen(a, 'rb')\nopen(a, mode='wb')\nopen(a, 'w', encoding='utf-8')\n"
        "open(a, 'r', -1, 'utf-8')\nopen(a, newline='')\nhandle.open(a)\n"
    )
    assert opens_without_encoding(source) == [1, 6]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_module_names_the_encoding_of_every_text_file_it_opens(path):
    lines = opens_without_encoding(path.read_text(encoding="utf-8"))
    assert not lines, f"{path.name} opens text files without an encoding on lines {lines}"
