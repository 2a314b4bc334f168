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


def test_only_main_times_and_builds_the_cli_report():
    # Commands return (inputs, verdict, witness, counts); one place reads
    # the clock and assembles the report, so every report has one grammar.
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    offenders = []
    for func in ast.walk(tree):
        if (not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                or func.name == "main"):
            continue
        for node in ast.walk(func):
            if (isinstance(node, ast.Attribute) and node.attr == "monotonic"
                    or isinstance(node, ast.Dict) and any(
                        isinstance(k, ast.Constant) and k.value == "elapsed_ms"
                        for k in node.keys)):
                offenders.append(f"{func.name}:{node.lineno}")
    assert offenders == []


def test_no_module_calls_sort_desc():
    # sort_desc is a public view only: the package sorts its own integer
    # frames, so the witness path compares no two Fractions.
    calls = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)
             and ast.unparse(node.func).split(".")[-1] == "sort_desc"]
    assert calls == []


def _call_scopes(tree: ast.AST, name: str) -> list[str]:
    """The dotted function or class scope of every call of ``name``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if (isinstance(child, ast.Call)
                    and ast.unparse(child.func).split(".")[-1] == name):
                found.append(".".join(scope))
            visit(child, scope)
    visit(tree, [])
    return found


def test_only_values_and_the_weight_check_clear_denominators():
    # A Vec or Mat clears itself on the first read of its cached _frame,
    # and every caller reads that; a decomposition's weights are no value
    # and keep their own clear.
    calls = {f"{path.stem}:{scope}" for path in sorted(SRC.glob("*.py"))
             for scope in _call_scopes(ast.parse(path.read_text(encoding="utf-8")),
                                       "_clear_denominators")}
    outside = {call for call in calls if not call.startswith("numerics:")}
    assert outside == {"doubly_stochastic:BirkhoffDecomposition.__post_init__"}
    assert calls - outside == {"numerics:Vec._frame", "numerics:Mat._frame"}
