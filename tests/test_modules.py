"""Structure of the looplab package: what its modules take from each other."""

import ast
import pathlib

import pytest

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "looplab"


def _private_imports(path):
    """The 'from <looplab module> import _name' imports of one module; dunder
    names such as __version__ are not private."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "looplab"):
            found += [f"from {'.' * node.level}{node.module or ''} import {a.name}"
                      for a in node.names
                      if a.name.startswith("_") and not a.name.endswith("__")]
    return found


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_another_modules_private_name(path):
    assert _private_imports(path) == []
