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
    # only its own body refers to is dead too, and so is a module or name
    # imported into the helpers that none of their code reads.
    helpers = ast.parse((TESTS / "helpers.py").read_text(encoding="utf-8"))
    used = set().union(*(_references(ast.parse(path.read_text(encoding="utf-8")))
                         for path in sorted(TESTS.glob("test_*.py"))))
    read = {node.id for node in ast.walk(helpers) if isinstance(node, ast.Name)}
    unused = []
    for node in helpers.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            others = ast.Module([n for n in helpers.body if n is not node], [])
            if node.name not in used | _references(others):
                unused.append(node.name)
        elif (isinstance(node, ast.Import)
              or isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            unused += [name for name in bound if name not in read]
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


def _scoped_nodes(tree: ast.AST, scope: str = ""):
    """Every node below ``tree`` with the dotted function or class scope it lies in."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _scoped_nodes(child, f"{scope}.{child.name}".lstrip("."))
            continue
        yield scope, child
        yield from _scoped_nodes(child, scope)


def _name(node: ast.AST) -> str:
    """The last dotted part of an expression: ``"Perm"`` for ``numerics.Perm``."""
    return ast.unparse(node).split(".")[-1]


def _src_calls() -> list[tuple[str, str, ast.Call]]:
    """``(module:scope, callee, call)`` for every call in ``src/``: ``scope``
    is the dotted function or class it lies in, ``callee`` the called
    expression's last dotted part."""
    return [(f"{path.stem}:{scope}", _name(node.func), node)
            for path in sorted(SRC.glob("*.py"))
            for scope, node in _scoped_nodes(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call)]


def test_no_module_calls_sort_desc():
    # sort_desc is a public view only: the package sorts its own integer
    # frames, so the witness path compares no two Fractions.
    calls = [f"{where}:{call.lineno}" for where, callee, call in _src_calls()
             if callee == "sort_desc"]
    assert calls == []


def test_only_values_and_the_weight_check_clear_denominators():
    # A Vec or Mat clears itself on the first read of its cached _frame,
    # and every caller reads that; a decomposition's weights are no value
    # and keep their own clear.
    calls = {where for where, callee, _ in _src_calls()
             if callee == "_clear_denominators"}
    outside = {call for call in calls if not call.startswith("numerics:")}
    assert outside == {"doubly_stochastic:BirkhoffDecomposition.__post_init__"}
    assert calls - outside == {"numerics:Vec._frame", "numerics:Mat._frame"}


def test_only_perm_of_builds_a_perm_inside_the_package():
    # Perm(...) checks a permutation that comes from outside; a permutation
    # the package builds by construction goes through the trusted Perm._of,
    # so no image is checked twice.  Passing Perm as a callable, as to
    # map, is a call too, and so is cls(...) inside Perm.
    offenders = [f"{where}:{call.lineno}" for where, callee, call in _src_calls()
                 if callee == "Perm" or callee == "cls" and ":Perm." in where
                 or callee != "isinstance" and "Perm" in map(
                     _name, [*call.args, *(k.value for k in call.keywords)])]
    assert offenders == []


def test_only_perm_images_and_verifys_n_check_raise_guard_exceeded():
    # numerics._perm_images owns the guard: every library caller refuses a
    # size by calling it.  cmd_verify checks --n itself before it builds
    # the default anchor, where _perm_images would refuse n <= 0 with
    # another message.
    raised = sorted((where, call.lineno) for where, callee, call in _src_calls()
                    if callee == "GuardExceeded")
    assert [where for where, _ in raised] == ["cli:cmd_verify", "numerics:_perm_images"]
    anchors = [call.lineno for where, callee, call in _src_calls()
               if (where, callee) == ("cli:cmd_verify", "AnchorPoint")]
    assert raised[0][1] < min(anchors)
