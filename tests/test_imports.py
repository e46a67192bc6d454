"""Each module of the package reads only the public names of the others, and the tests read only the private
names of ``harness`` that are its stream format and its documented seams."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "besselkit"
TESTS = Path(__file__).resolve().parent

# The private harness names a test may read or patch: the stream format, which the goldens and every replay
# depend on; the per-draw tables and the classical entry; the two caps; and the kept pool.
HARNESS_SEAMS = {
    *("_words", "_fields", "_round_keys", "_philox", "_count", "_accepted", "_head"),
    *("_HEAD", "_ENDS", "_X", "_VECTORS"),
    *("_tables", "_CLASSICAL", "_DRAW_ENTRIES", "_TASK_ENTRIES", "_pool"),
}


def private_imports(source: str) -> list[str]:
    """``module: name`` for each private name that ``source`` imports from the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level > 0 or (node.module or "").startswith("besselkit"):
            found += [f"{node.module}: {a.name}" for a in node.names if a.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 8
    found = {path.name: private_imports(path.read_text()) for path in modules}
    assert {name: names for name, names in found.items() if names} == {}


def test_private_imports_are_found():
    source = "from .sharp import Disk, _ends\nfrom besselkit.core import _x"
    assert private_imports(source) == ["sharp: _ends", "besselkit.core: _x"]
    assert private_imports("from .sharp import Disk\nimport math\nfrom math import _x") == []


def private_harness_names(source: str) -> set[str]:
    """The private names of ``harness`` that ``source`` reads, as ``harness._name``, imports from it, or names
    as a string to ``setattr``, ``getattr`` or ``delattr`` on it, ``monkeypatch``'s included."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "harness":
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("harness"):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.Call) and len(node.args) >= 2:
            func, (target, name) = node.func, node.args[:2]
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if called in ("setattr", "getattr", "delattr") and isinstance(target, ast.Name) and target.id == "harness":
                if isinstance(name, ast.Constant) and isinstance(name.value, str):
                    found.add(name.value)
    return {name for name in found if name.startswith("_") and not name.startswith("__")}


def test_tests_read_only_the_harness_seams():
    found = {path.name: private_harness_names(path.read_text()) - HARNESS_SEAMS for path in sorted(TESTS.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def test_private_harness_names_are_found():
    source = (
        "from besselkit import harness\n"
        "from besselkit.harness import BOUNDS, _a\n"
        "harness._b(harness.ENSEMBLES, harness.__file__)\n"
        "monkeypatch.setattr(harness, '_c', None)\n"
        "setattr(harness, '_d', getattr(harness, '_e'))\n"
        "monkeypatch.setattr(Stats, '_f', None)\n"
    )
    assert private_harness_names(source) == {"_a", "_b", "_c", "_d", "_e"}
