"""A dead-code check on the package sources, read with ``ast`` alone: no
module imports a name it never uses; every module-level ``_private``
function, class or constant is referenced somewhere in the package
beyond its definition, and every public one in the package, ``scripts/``
or ``roundbench/`` (tests do not count); every function reads each of
its parameters; and every parameter with a default is passed by some
call there, so a knob no caller turns is a constant. Beside it, a check
that the HDBSCAN test oracle imports nothing from the package it
checks, and one that no module imports a thread pool: the package
starts no thread."""
import ast
from pathlib import Path

import fedsurrogate

_SRC = Path(fedsurrogate.__file__).resolve().parent
_TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
          for path in sorted(_SRC.glob("*.py"))}
_ROOT = Path(__file__).resolve().parents[1]
_USERS = [ast.parse(path.read_text(encoding="utf-8"))
          for folder in ("scripts", "roundbench") for path in sorted((_ROOT / folder).glob("*.py"))]

# Not read, and kept so that wrappers written for select_donor's former
# per-pair signature, which pass all six arguments on, keep working:
# roundbench/test_checks.py::test_traced_run_catches_a_swapped_donor.
_UNREAD_ALLOWED = {("select_donor", name) for name in ("flagged", "metric", "features")}

_UNPASSED_ALLOWED = {
    # the console script calls it with no arguments; tests pass argv
    ("main", "argv"),
    # kept for the same wrappers as _UNREAD_ALLOWED
    *_UNREAD_ALLOWED,
}


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


def _package_imports(tree: ast.AST) -> list[int]:
    """Line of each import of ``fedsurrogate`` or of a relative module."""
    return [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.Import)
                and any(a.name.split(".")[0] == "fedsurrogate" for a in node.names))
            or (isinstance(node, ast.ImportFrom)
                and (node.level or (node.module or "").split(".")[0] == "fedsurrogate"))]


_THREAD_MODULES = {"concurrent", "contextvars"}


def _thread_imports(tree: ast.AST) -> list[int]:
    """Line of each import of ``concurrent.futures`` or ``contextvars``,
    at any depth of the code."""
    return [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.Import)
                and any(a.name.split(".")[0] in _THREAD_MODULES for a in node.names))
            or (isinstance(node, ast.ImportFrom) and not node.level
                and (node.module or "").split(".")[0] in _THREAD_MODULES)]


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


def _definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level functions, classes and constants, dunders aside -> line."""
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
            if not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def _unread_parameters(tree: ast.AST) -> dict[tuple[str, str], int]:
    """(function, parameter) -> line of each parameter its function's body
    never reads; dunder methods and a method's ``self`` or ``cls`` aside."""
    unread = {}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or (
                fn.name.startswith("__") and fn.name.endswith("__")):
            continue
        a = fn.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        read = set().union(*(_read(node) for node in fn.body))
        for p in params:
            if p.arg not in read | {"self", "cls"}:
                unread[fn.name, p.arg] = p.lineno
    return unread


def _passed(trees: list[ast.AST]) -> dict[str, tuple[float, set[str]]]:
    """Callee name -> (the most positional arguments a call of it passes,
    the keywords calls pass). A ``*`` splat passes every position and a
    ``**`` splat every keyword (``"**"``); ``functools.partial(f, ...)``
    counts as a call of ``f``."""
    passed: dict[str, tuple[float, set[str]]] = {}
    for call in (node for tree in trees for node in ast.walk(tree)):
        if not isinstance(call, ast.Call):
            continue
        func, args = call.func, call.args
        if getattr(func, "id", getattr(func, "attr", None)) == "partial" and args:
            func, args = args[0], args[1:]
        name = getattr(func, "id", getattr(func, "attr", None))
        count, keywords = passed.get(name, (0, set()))
        star = any(isinstance(a, ast.Starred) for a in args)
        passed[name] = (max(count, float("inf") if star else len(args)),
                        keywords | {k.arg or "**" for k in call.keywords})
    return passed


def _unpassed_defaults(tree: ast.AST, passed: dict[str, tuple[float, set[str]]]
                       ) -> dict[tuple[str, str], int]:
    """(function, parameter) -> line of each parameter with a default that
    no call in ``passed`` passes; dunder methods aside. A method's calls
    do not pass its ``self`` or ``cls``."""
    methods = {id(fn) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for fn in cls.body if isinstance(fn, ast.FunctionDef)
               and "staticmethod" not in {getattr(d, "id", None) for d in fn.decorator_list}}
    unpassed = {}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or (
                fn.name.startswith("__") and fn.name.endswith("__")):
            continue
        a = fn.args
        count, keywords = passed.get(fn.name, (0, set()))
        positional = [*a.posonlyargs, *a.args]
        first = len(positional) - len(a.defaults)
        skip = id(fn) in methods
        defaulted = [(p, i - skip < count) for i, p in enumerate(positional) if i >= first]
        defaulted += [(p, False) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        for p, by_position in defaulted:
            if not (by_position or p.arg in keywords or "**" in keywords):
                unpassed[fn.name, p.arg] = p.lineno
    return unpassed


def test_no_module_imports_a_name_it_never_uses():
    unused = [f"{module}:{line} {name}"
              for module, tree in _TREES.items()
              for name, line in _imported(tree).items() if name not in _read(tree)]
    assert unused == []


def test_every_private_definition_is_referenced():
    used = set().union(*(_referenced(tree) for tree in _TREES.values()))
    dead = [f"{module}:{line} {name}"
            for module, tree in _TREES.items()
            for name, line in _definitions(tree).items()
            if name.startswith("_") and name not in used]
    assert dead == []


def test_every_public_definition_is_referenced_outside_the_tests():
    used = set().union(*(_referenced(tree) for tree in [*_TREES.values(), *_USERS]))
    dead = [f"{module}:{line} {name}"
            for module, tree in _TREES.items()
            for name, line in _definitions(tree).items()
            if not name.startswith("_") and name not in used]
    assert dead == []


def test_every_parameter_is_read():
    unread = [f"{module}:{line} {fn}({param})"
              for module, tree in _TREES.items()
              for (fn, param), line in _unread_parameters(tree).items()
              if (fn, param) not in _UNREAD_ALLOWED]
    assert unread == []


def test_every_defaulted_parameter_is_passed_by_some_call():
    passed = _passed([*_TREES.values(), *_USERS])
    unpassed = [f"{module}:{line} {fn}({param})"
                for module, tree in _TREES.items()
                for (fn, param), line in _unpassed_defaults(tree, passed).items()
                if (fn, param) not in _UNPASSED_ALLOWED]
    assert unpassed == []


def test_the_hdbscan_oracle_imports_nothing_from_the_package():
    oracle = Path(__file__).with_name("hdbscan_oracle.py")
    assert _package_imports(ast.parse(oracle.read_text(encoding="utf-8"))) == []


def test_the_oracle_check_sees_every_form_of_package_import():
    tree = ast.parse("import numpy\nimport fedsurrogate.clustering as c\n"
                     "from fedsurrogate import params\nfrom . import data\n"
                     "from fedsurrogate_extra import x\n")
    assert _package_imports(tree) == [2, 3, 4]


def test_no_module_imports_a_thread_pool():
    found = [f"{module}:{line}" for module, tree in _TREES.items()
             for line in _thread_imports(tree)]
    assert found == []


def test_the_thread_check_sees_every_form_of_import():
    tree = ast.parse("import contextvars\nfrom concurrent.futures import ThreadPoolExecutor\n"
                     "def f():\n    import concurrent.futures as cf\n"
                     "from . import concurrent\nimport concurrently\n")
    assert _thread_imports(tree) == [1, 2, 4]


def test_the_check_sees_an_unused_import_and_a_dead_private_helper():
    tree = ast.parse("import os\nimport numpy as np\n"
                     "def _dead():\n    return np.zeros(1)\n"
                     "def _live():\n    return 1\n"
                     "_CONST = _live()\n_UNUSED = 2\nprint(_CONST)\n"
                     "def public(a, b, *rest, key=None, **extra):\n"
                     "    def inner(c):\n        return a\n"
                     "    return inner, rest\n"
                     "class Used:\n    def __init__(self, unread):\n        pass\n"
                     "    def method(self, x, scale=1):\n        return x * scale\n"
                     "Used()\nUsed().method(1, 2)\n"
                     "def knobs(a, by_key=1, by_position=2, unset=3, *, kw_unset=4):\n"
                     "    return a, by_key, by_position, unset, kw_unset\n"
                     "knobs(0, by_key=1)\nknobs(0, 1, 2)\n"
                     "def splatted(a=1, *, b=2):\n    return a, b\n"
                     "splatted(*print(), **print())\n"
                     "def bound(a, b=1):\n    return a, b\n"
                     "functools.partial(bound, 0, 1)\n")
    assert [n for n in _imported(tree) if n not in _read(tree)] == ["os"]
    dead = [n for n in _definitions(tree) if n not in _referenced(tree)]
    assert dead == ["_dead", "_UNUSED", "public"]
    assert list(_unread_parameters(tree)) == [
        ("public", "b"), ("public", "key"), ("public", "extra"), ("inner", "c")]
    assert list(_unpassed_defaults(tree, _passed([tree]))) == [
        ("public", "key"), ("knobs", "unset"), ("knobs", "kw_unset")]
