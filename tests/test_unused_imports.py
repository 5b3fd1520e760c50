"""No module imports a name it never uses (ruff's F401, over the same
scope: ``src``, ``tests`` and ``examples``; a package ``__init__`` re-exports
and a ``noqa`` line is an import kept on purpose).

A name counts as used where it appears as a name anywhere in its file, in
``__all__`` or inside a string annotation.  That is looser than
pyflakes' scopes, so this check finds a subset of what ruff finds; it runs
where ruff is not installed.
"""

from __future__ import annotations

import ast
import os

import repro

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(repro.__file__)))
SCOPE = ("src", "tests", "examples")


def _sources():
    for top in SCOPE:
        for folder, _, files in os.walk(os.path.join(ROOT, top)):
            for name in sorted(files):
                if name.endswith(".py") and name != "__init__.py":
                    yield os.path.join(folder, name)


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation:
            yield node.annotation
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns:
            yield node.returns


def _used(tree: ast.AST) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used(ast.parse(node.value, mode="eval"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= {elt.value for elt in ast.walk(node.value) if isinstance(elt, ast.Constant)}
    return used


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, bound name)`` of each import in ``source`` nothing reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _used(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, ast.Import | ast.ImportFrom):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "*" or bound in used:
                continue
            if "noqa" not in lines[alias.lineno - 1] and "noqa" not in lines[node.lineno - 1]:
                found.append((alias.lineno, bound))
    return sorted(found)


def test_the_checker_finds_what_f401_finds():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import json  # noqa: F401 - kept on purpose\n"
        "from typing import TYPE_CHECKING, Any\n"
        "if TYPE_CHECKING:\n"
        "    from x import Hinted, Unread\n"
        "__all__ = ['Exported']\n"
        "from y import Exported\n"
        "def f(a: 'Hinted') -> Any:\n"
        "    import sys\n"
        "    return TYPE_CHECKING\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "osp"), (7, "Unread"), (11, "sys")]


def test_no_module_imports_a_name_it_never_uses():
    found = []
    for path in _sources():
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        found += [
            f"{os.path.relpath(path, ROOT)}:{line}: {name}"
            for line, name in unused_imports(source)
        ]
    assert found == []
