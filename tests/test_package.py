"""Structural checks on the package source."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "becircle"


def test_no_cross_module_private_imports():
    # an underscore name belongs to its module; a caller elsewhere in the
    # package that needs it needs a public function instead (dunders such
    # as __version__ are public)
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "becircle"):
                found += [f"{path.name}: from {'.' * node.level}{node.module or ''} "
                          f"import {alias.name}"
                          for alias in node.names
                          if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert not found, found
