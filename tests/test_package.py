"""Structural checks on the package source."""
import ast
from pathlib import Path

import becircle

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


def _source_module(node):
    """Stem of the package module a `from ... import` names, or None."""
    if node.level:
        return node.module or "__init__"
    head, _, rest = (node.module or "").partition(".")
    return (rest or "__init__") if head == "becircle" else None


def test_no_unread_module_level_names():
    # a module-level constant is read in its own module or imported by
    # another one; anything else is dead (dunders such as __all__ are
    # read by the import system)
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    imported = {(_source_module(node), alias.name)
                for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    dead = []
    for mod, tree in trees.items():
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for stmt in tree.body:
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
            for target in targets:
                for node in ast.walk(target):
                    if (isinstance(node, ast.Name)
                            and not (node.id.startswith("__") and node.id.endswith("__"))
                            and node.id not in read and (mod, node.id) not in imported):
                        dead.append(f"{mod}.py: {node.id}")
    assert not dead, dead


def test_every_export_is_read():
    # a name the package exports is read by the library itself (outside
    # __init__.py) or by the benchmark as bc.<name>; an oracle that only
    # the tests read belongs in tests/oracles.py
    read = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.add(node.module)
                read.update(alias.name for alias in node.names)
    for path in sorted((SRC.parents[1] / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "bc"):
                read.add(node.attr)
    unread = sorted(name for name in becircle.__all__
                    if not name.startswith("_") and name not in read)
    assert not unread, unread


def test_cli_module_holds_only_the_cli():
    # experiments_cli parses arguments and writes records; the library
    # functions it runs live in the library modules, and the package imports
    # the CLI module itself, no name from it
    tree = ast.parse((SRC / "experiments_cli.py").read_text())
    public = sorted(node.name for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_"))
    assert public == ["build_parser", "main"]
    init = ast.parse((SRC / "__init__.py").read_text())
    assert [(node.level, node.module, [a.name for a in node.names])
            for node in ast.walk(init) if isinstance(node, ast.ImportFrom)
            and "experiments_cli" in (node.module, *(a.name for a in node.names))
            ] == [(1, None, ["experiments_cli"])]
