"""Every name a package module imports is read by that module, every
private module-level definition is read by some module, and every text
file a module opens names its encoding.

No linter runs on this tree, so this test stands in for the unused-import
check: it parses each module of ``src/gmvshrink``, the script
``tests/golden/make_golden.py`` that writes the golden files, and each test
module (``conftest.py`` among them), and fails on any name an ``import``
binds that no expression of the module reads. ``KEPT`` lists the
re-exports that are imported only to be read from outside the module; each
entry says who reads it.

A module-level function, class or constant whose name starts with one
underscore is private to the package; one that no module of
``src/gmvshrink`` reads, by name, attribute or ``from`` import, is dead
code and fails, even when a test reads it. The test modules, taken as one
set, are held to the same rule, so a helper that deleted tests leave behind
fails too. A read of the same name in any module of the set counts, so the
check never flags a helper that is read, at the cost of missing a dead one
that shares its name with a live one.

The same parse of those files, and of the test modules, fails on any
``open()`` call in text mode and any ``.read_text()`` or ``.write_text()``
call without an ``encoding`` argument, which would read and write in the
locale's encoding. A mode holding ``b`` is exempt, and so is
``test_acceptance.py``, which stays as written.

The finder behind ``conftest.py``'s collection guard, which stops a run on
a test id that holds whitespace or an escaped character, is checked here.
"""

import ast
from pathlib import Path

import pytest
from conftest import unnameable_ids

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "gmvshrink"
#: the package modules and the script that writes the golden files
SOURCES = [*sorted(PACKAGE.glob("*.py")), TESTS / "golden" / "make_golden.py"]
#: the test modules, ``conftest.py`` among them
TEST_MODULES = sorted(TESTS.glob("*.py"))
MODULES = pytest.mark.parametrize("path", SOURCES + TEST_MODULES, ids=lambda p: p.stem)

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
    assert unused_imports(source) == {"annotations", "system", "inf"}


@MODULES
def test_module_reads_every_name_it_imports(path):
    unused = {
        name for name in unused_imports(path.read_text(encoding="utf-8"))
        if (path.stem, name) not in KEPT
    }
    assert not unused, f"{path.name} imports names it never reads: {sorted(unused)}"


def test_kept_re_exports_are_still_unread_where_they_are_imported():
    found = {
        (path.stem, name)
        for path in PACKAGE.glob("*.py")
        for name in unused_imports(path.read_text(encoding="utf-8"))
    }
    assert found == KEPT


def unread_private_definitions(sources):
    """``(module, name)`` of each private module-level definition in
    ``sources``, a mapping of module name to source, that no module reads."""
    defined, read = set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined.update((module, n) for n in names if n.startswith("_") and not n.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return {(module, name) for module, name in defined if name not in read}


def test_private_finder_sees_unread_definitions_across_modules():
    sources = {
        "a": (
            "_LIMIT = 3\n_unused = 1\n_typed: int = 0\n__all__ = []\n"
            "def _helper():\n    return _LIMIT\n"
            "def _by_attribute():\n    pass\n"
            "class _Dead:\n    def _method(self):\n        pass\n"
        ),
        "b": "from .a import _helper\nfrom . import a\na._by_attribute()\n",
    }
    assert unread_private_definitions(sources) == {("a", "_unused"), ("a", "_typed"), ("a", "_Dead")}


def test_package_reads_every_private_definition():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    dead = unread_private_definitions(sources)
    assert not dead, f"private definitions no module reads: {sorted(dead)}"


def test_test_modules_read_every_private_definition():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in TEST_MODULES}
    dead = unread_private_definitions(sources)
    assert not dead, f"private definitions no test module reads: {sorted(dead)}"


#: the position of the ``encoding`` argument of ``open``, ``Path.read_text``
#: and ``Path.write_text``
ENCODING_POSITION = {"open": 3, "read_text": 0, "write_text": 1}


def opens_without_encoding(source):
    """Lines of the text-mode ``open()`` calls and the ``.read_text()`` and
    ``.write_text()`` calls in ``source`` that name no encoding."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            name = "open"
        elif isinstance(node.func, ast.Attribute) and node.func.attr in ("read_text", "write_text"):
            name = node.func.attr
        else:
            continue
        keywords = {k.arg: k.value for k in node.keywords}
        mode = node.args[1] if name == "open" and len(node.args) > 1 else keywords.get("mode")
        binary = isinstance(mode, ast.Constant) and "b" in mode.value
        if not binary and len(node.args) <= ENCODING_POSITION[name] and "encoding" not in keywords:
            lines.append(node.lineno)
    return sorted(lines)


def test_encoding_finder_exempts_binary_modes_only():
    source = (
        "open(a)\nopen(a, 'rb')\nopen(a, mode='wb')\nopen(a, 'w', encoding='utf-8')\n"
        "open(a, 'r', -1, 'utf-8')\nopen(a, newline='')\nhandle.open(a)\n"
        "path.read_text()\npath.read_text(encoding='utf-8')\npath.read_text('utf-8')\n"
        "path.write_text(s)\npath.write_text(s, encoding='utf-8')\npath.write_text(s, 'utf-8')\n"
        "path.read_bytes()\npath.write_bytes(b)\n"
    )
    assert opens_without_encoding(source) == [1, 6, 8, 11]


#: ``SOURCES`` and the test modules but the acceptance tests, which stay as
#: written (their one ``write_text`` writes ASCII)
TEXT_FILE_READERS = pytest.mark.parametrize(
    "path",
    SOURCES + [path for path in TEST_MODULES if path.name != "test_acceptance.py"],
    ids=lambda p: p.stem,
)


@TEXT_FILE_READERS
def test_module_names_the_encoding_of_every_text_file_it_opens(path):
    lines = opens_without_encoding(path.read_text(encoding="utf-8"))
    assert not lines, f"{path.name} opens text files without an encoding on lines {lines}"


def test_id_finder_sees_whitespace_escapes_and_control_characters():
    ids = ["t[a b]", "t[a\\rb]", "t[a\x07b]", "t[ok-1]"]
    assert unnameable_ids(ids) == ids[:3]
