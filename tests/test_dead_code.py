"""A dead-code check on the package sources, read with ``ast`` alone: no
module imports a name it never uses, and every module-level ``_private``
function, class or constant is referenced somewhere in the package
beyond its definition."""
import ast
from pathlib import Path

import fedsurrogate

_SRC = Path(fedsurrogate.__file__).resolve().parent
_TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
          for path in sorted(_SRC.glob("*.py"))}


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import of the module -> its line."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    return bound


def _read(tree: ast.AST) -> set[str]:
    """Every bare name the code reads."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


def _referenced(tree: ast.AST) -> set[str]:
    """Every name the code reads, imports from another module or reads
    as an attribute."""
    names = _read(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level ``_name`` functions, classes and constants -> line."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = [t.id for target in getattr(node, "targets", None) or [node.target]
                       for t in ast.walk(target) if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def test_no_module_imports_a_name_it_never_uses():
    unused = [f"{module}:{line} {name}"
              for module, tree in _TREES.items()
              for name, line in _imported(tree).items() if name not in _read(tree)]
    assert unused == []


def test_every_private_definition_is_referenced():
    used = set().union(*(_referenced(tree) for tree in _TREES.values()))
    dead = [f"{module}:{line} {name}"
            for module, tree in _TREES.items()
            for name, line in _private_definitions(tree).items() if name not in used]
    assert dead == []


def test_the_check_sees_an_unused_import_and_a_dead_private_helper():
    tree = ast.parse("import os\nimport numpy as np\n"
                     "def _dead():\n    return np.zeros(1)\n"
                     "def _live():\n    return 1\n"
                     "_CONST = _live()\n_UNUSED = 2\nprint(_CONST)\n")
    assert [n for n in _imported(tree) if n not in _read(tree)] == ["os"]
    dead = [n for n in _private_definitions(tree) if n not in _referenced(tree)]
    assert dead == ["_dead", "_UNUSED"]
