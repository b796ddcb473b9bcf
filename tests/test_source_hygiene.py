"""Source hygiene: the CI lint gate's name checks, runnable without ruff.

Three properties over every Python file in ``src``, ``tests``,
``benchmarks`` and ``examples``, plus one over ``src`` alone, checked with
``ast`` and ``importlib`` only:

* no unused imports (ruff/pyflakes F401) outside ``__init__.py``, which
  the ruff configuration exempts, honouring ``# noqa`` comments;
* no undefined names (F821): every name a file loads is bound somewhere in
  that file or is a builtin, honouring ``# noqa`` comments;
* every absolute ``repro.*`` import (the codebase uses no relative ones)
  names a module that exists and a name that module provides — including
  imports deferred into function bodies and scripts that no test runs;
* nothing under ``src`` imports ``tests`` or ``benchmarks``, which hold the
  reference oracles and timing harnesses and do not ship with the package.
"""

import ast
import builtins
import importlib.util
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ROOTS = ("src", "tests", "benchmarks", "examples")

#: Mirrors ``[tool.ruff.lint.per-file-ignores]`` in pyproject.toml.
F401_EXEMPT_PATTERN = '"**/__init__.py" = ["F401"]'
F401_EXEMPT_NAME = "__init__.py"

NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z]+[0-9]+(?:[,\s]+[A-Z]+[0-9]+)*))?", re.I)


def python_files():
    for root in ROOTS:
        yield from sorted((REPO / root).rglob("*.py"))


def suppressed(line: str, code: str) -> bool:
    """Whether a ``# noqa`` comment on ``line`` covers ``code``."""
    match = NOQA.search(line)
    if match is None:
        return False
    codes = match.group("codes")
    return codes is None or code in re.split(r"[,\s]+", codes.upper())


def bound_name(alias: ast.alias) -> str:
    """The name an import alias binds: ``import a.b`` binds ``a``."""
    return alias.asname or alias.name.split(".")[0]


def annotation_names(node: ast.AST):
    """Names referenced by a string annotation (``-> "Network"``)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            parsed = ast.parse(node.value, mode="eval")
        except SyntaxError:
            return
        for inner in ast.walk(parsed):
            if isinstance(inner, ast.Name):
                yield inner.id


def used_names(scope: ast.AST) -> set:
    """Every name loaded anywhere inside ``scope``, plus ``__all__`` entries."""
    names = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            names.update(annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            names.update(annotation_names(node.returns))
        elif isinstance(node, ast.AnnAssign):
            names.update(annotation_names(node.annotation))
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                for item in ast.walk(node.value):
                    if isinstance(item, ast.Constant) and isinstance(item.value, str):
                        names.add(item.value)
    return names


def imports_by_scope(tree: ast.Module):
    """(scope node, import node) for every import, scoped to its enclosing
    module, function or class body."""
    todo = [tree]
    while todo:
        scope = todo.pop()
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield scope, node
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                todo.append(node)
            else:
                stack.extend(ast.iter_child_nodes(node))


def unused_imports(source: str, label: str) -> list:
    """``label:line: unused import 'name'`` for each unused import in ``source``."""
    lines = source.splitlines()
    usage: dict = {}
    findings = []
    for scope, node in imports_by_scope(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            name = bound_name(alias)
            if scope not in usage:
                usage[scope] = used_names(scope)
            if name in usage[scope] or suppressed(lines[alias.lineno - 1], "F401"):
                continue
            findings.append((alias.lineno, f"{label}:{alias.lineno}: unused import {name!r}"))
    return [finding for _, finding in sorted(findings)]


#: Names every module has without binding them.
MODULE_NAMES = frozenset(dir(builtins)) | {
    "__annotations__",
    "__builtins__",
    "__cached__",
    "__file__",
    "__path__",
}


def bound_names(tree: ast.Module) -> set:
    """Every name bound anywhere in a module, in any scope.

    Imports, ``def``/``class`` names, arguments, assignment, ``for``,
    ``with``, comprehension and walrus targets (all ``Store`` contexts),
    ``except ... as`` names, ``global``/``nonlocal`` declarations and
    ``match`` captures.
    """
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(bound_name(alias) for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            names.update(node.names)
        elif isinstance(node, (ast.ExceptHandler, ast.MatchAs, ast.MatchStar)) and node.name:
            names.add(node.name)
        elif isinstance(node, ast.MatchMapping) and node.rest:
            names.add(node.rest)
    return names


def loaded_names(tree: ast.Module):
    """``(line, name)`` for every name loaded, string annotations included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.lineno, node.id
        annotation = None
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        if annotation is not None:
            for name in annotation_names(annotation):
                yield annotation.lineno, name


def undefined_names(source: str, label: str) -> list:
    """``label:line: undefined name 'name'`` for each name bound nowhere.

    Scope-blind on purpose: a name bound anywhere in the module counts as
    bound everywhere, so this can miss a name used outside its scope but
    never flags a correct file.  A ``from x import *`` disables the check.
    """
    tree = ast.parse(source)
    if any(
        isinstance(node, ast.ImportFrom) and any(alias.name == "*" for alias in node.names)
        for node in ast.walk(tree)
    ):
        return []
    lines = source.splitlines()
    known = bound_names(tree) | MODULE_NAMES
    findings = {
        (line, f"{label}:{line}: undefined name {name!r}")
        for line, name in loaded_names(tree)
        if name not in known and not suppressed(lines[line - 1], "F821")
    }
    return [finding for _, finding in sorted(findings)]


#: Top-level packages production code must not import.
NON_PRODUCTION = ("tests", "benchmarks")


def non_production_imports(source: str, label: str) -> list:
    """``label:line: imports 'module'`` for each import of a non-production package."""
    findings = []
    for _, node in imports_by_scope(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif node.level == 0:
            modules = [node.module]
        else:
            continue
        findings += [
            (node.lineno, f"{label}:{node.lineno}: imports {module!r}")
            for module in modules
            if module.split(".")[0] in NON_PRODUCTION
        ]
    return [finding for _, finding in sorted(findings)]


def module_exists(name: str) -> bool:
    try:
        return importlib.util.find_spec(name) is not None
    except ModuleNotFoundError:
        return False


def dangling_repro_imports(path: Path, root: Path = REPO) -> list:
    findings = []
    where = path.relative_to(root)
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro" and not module_exists(alias.name):
                    findings.append(f"{where}:{node.lineno}: no module {alias.name!r}")
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module.split(".")[0] != "repro":
                continue
            if not module_exists(module):
                findings.append(f"{where}:{node.lineno}: no module {module!r}")
                continue
            imported = importlib.import_module(module)
            for alias in node.names:
                if alias.name == "*" or hasattr(imported, alias.name):
                    continue
                if not module_exists(f"{module}.{alias.name}"):
                    findings.append(
                        f"{where}:{node.lineno}: {module!r} has no name {alias.name!r}"
                    )
    return findings


def test_every_root_has_python_files():
    for root in ROOTS:
        assert any((REPO / root).rglob("*.py")), root


def test_f401_exemption_matches_ruff_config():
    assert F401_EXEMPT_PATTERN in (REPO / "pyproject.toml").read_text(encoding="utf-8")


def test_no_unused_imports():
    findings = [
        finding
        for path in python_files()
        if path.name != F401_EXEMPT_NAME
        for finding in unused_imports(
            path.read_text(encoding="utf-8"), str(path.relative_to(REPO))
        )
    ]
    assert findings == [], "\n".join(findings)


def test_no_undefined_names():
    findings = [
        finding
        for path in python_files()
        for finding in undefined_names(
            path.read_text(encoding="utf-8"), str(path.relative_to(REPO))
        )
    ]
    assert findings == [], "\n".join(findings)


def test_repro_imports_resolve():
    findings = [finding for path in python_files() for finding in dangling_repro_imports(path)]
    assert findings == [], "\n".join(findings)


def test_src_imports_no_tests_or_benchmarks():
    findings = [
        finding
        for path in sorted((REPO / "src").rglob("*.py"))
        for finding in non_production_imports(
            path.read_text(encoding="utf-8"), str(path.relative_to(REPO))
        )
    ]
    assert findings == [], "\n".join(findings)


def test_non_production_import_checker_flags_nested_imports():
    source = (
        "import benchmarks.engine_bench\n"
        "from repro.flows import lp\n"
        "from . import tests\n"
        "def f():\n"
        "    from tests import oracles\n"
        "    import testsuite\n"
    )
    assert non_production_imports(source, "sample.py") == [
        "sample.py:1: imports 'benchmarks.engine_bench'",
        "sample.py:5: imports 'tests'",
    ]


def test_unused_import_checker_flags_and_honours_noqa():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import sys  # noqa: F401 - re-exported\n"
        "from typing import Sequence\n"
        "import json\n"
        "def f(x: 'Sequence[int]'):\n"
        "    import re\n"
        "    return json.dumps(x)\n"
    )
    assert unused_imports(source, "sample.py") == [
        "sample.py:2: unused import 'os'",
        "sample.py:7: unused import 're'",
    ]


def test_dangling_import_checker_flags_missing_modules_and_names(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import repro.api\n"
        "from repro.api import run, no_such_name\n"
        "from repro.api import presets\n"
        "def f():\n"
        "    from repro.no_such_module import x\n"
    )
    assert [f.split(": ", 1)[1] for f in dangling_repro_imports(sample, tmp_path)] == [
        "'repro.api' has no name 'no_such_name'",
        "no module 'repro.no_such_module'",
    ]


def test_undefined_name_checker_flags_and_honours_noqa():
    source = (
        "import os.path\n"
        "from typing import Optional as Maybe\n"
        "GLOBAL = [item for item in range(3)]\n"
        "def f(arg, *rest, key=None, **extra) -> 'Maybe[Widget]':\n"
        "    global LATER\n"
        "    LATER = len(rest)\n"
        "    with open(__file__) as handle:\n"
        "        pass\n"
        "    try:\n"
        "        (walrus := arg)\n"
        "    except ValueError as error:\n"
        "        print(error, handle, walrus, os.path, extra, key)\n"
        "    for index, value in enumerate(GLOBAL):\n"
        "        missing_name(index, value)\n"
        "    return also_missing  # noqa: F821 - defined at run time\n"
        "class Widget:\n"
        "    pass\n"
    )
    assert undefined_names(source, "sample.py") == ["sample.py:14: undefined name 'missing_name'"]
    assert undefined_names(source + "from os import *\n", "sample.py") == []
    assert undefined_names("def g() -> 'Gadget':\n    pass\n", "s.py") == [
        "s.py:1: undefined name 'Gadget'"
    ]
