"""Each module of the package reads only the public names of the others."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "besselkit"


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
