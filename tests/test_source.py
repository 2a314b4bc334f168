"""Source hygiene: checks on the package's code itself, not its behaviour."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "majorkit"


def _private_definitions(tree: ast.Module) -> set[str]:
    """Module-level ``_name`` functions and classes (dunders excluded)."""
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name.startswith("_") and not node.name.endswith("__")}


def _references(tree: ast.Module) -> set[str]:
    """Every name used, attribute read and name imported in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_private_helper_has_a_caller():
    # A private helper nothing in the package uses is a duplicate or dead
    # code; tests alone do not keep it alive.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    used = set().union(*map(_references, trees.values()))
    unused = sorted(f"{module}:{name}" for module, tree in trees.items()
                    for name in _private_definitions(tree) - used)
    assert unused == []


def test_every_test_helper_has_a_caller():
    # An oracle that no test compares against checks nothing; a helper
    # only its own body refers to is dead too.
    helpers = ast.parse((TESTS / "helpers.py").read_text(encoding="utf-8"))
    used = set().union(*(_references(ast.parse(path.read_text(encoding="utf-8")))
                         for path in sorted(TESTS.glob("test_*.py"))))
    unused = []
    for node in helpers.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            others = ast.Module([n for n in helpers.body if n is not node], [])
            if node.name not in used | _references(others):
                unused.append(node.name)
    assert unused == []
