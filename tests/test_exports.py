"""Every package re-exports lazily (``repro.lazy_exports``): a name in a
package's ``__all__`` must be the object its defining module binds,
whether it is read first or after every submodule has been imported.  The
second order is the one a name shared by a function and its own module
(``fuzz.shrink`` was both) gets wrong: the import binds the module over
the package attribute, and the lazy lookup never runs."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))

#: run in a fresh interpreter: ``first`` reads every exported name before
#: anything else is imported, ``last`` imports every module of the tree
#: first.  Prints the (package, name, found) of every export that is not
#: its defining module's object.
PROBE = r"""
import ast, importlib, json, pkgutil, sys

import repro

order = sys.argv[1]
infos = list(pkgutil.walk_packages(repro.__path__, "repro."))
if order == "last":
    for info in infos:
        importlib.import_module(info.name)
packages = ["repro"] + [info.name for info in infos if info.ispkg]
found = {
    (package, name): getattr(sys.modules[package], name)
    for package in packages
    for name in sys.modules[package].__all__
}


def bound(module_name):
    spec = importlib.util.find_spec(module_name)
    tree = ast.parse(open(spec.origin, encoding="utf-8").read())
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


modules = ["repro"] + [info.name for info in infos]
definers = {}
for module_name in modules:
    for name in bound(module_name):
        definers.setdefault(name, []).append(module_name)
wrong = []
for (package, name), value in sorted(found.items(), key=lambda item: item[0]):
    owners = definers.get(name, [])
    inside = [m for m in owners if m.startswith(package + ".")]
    expected = [getattr(importlib.import_module(m), name) for m in inside or owners]
    if not expected and package + "." + name in modules:  # a submodule exported as itself
        expected = [importlib.import_module(package + "." + name)]
    if len(expected) != 1 or value is not expected[0]:
        wrong.append([package, name, repr(value)[:80], len(expected)])
print(json.dumps(wrong))
"""


@pytest.mark.parametrize("order", ["first", "last"])
def test_every_export_is_its_defining_modules_object(order):
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run(
        [sys.executable, "-c", PROBE, order],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert json.loads(out) == []


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'repro.graph' has no attribute 'Tensor'"):
        repro.graph.Tensor  # noqa: B018 - the read is the test
    assert not hasattr(repro, "no_such_name")


def test_dir_lists_the_lazy_names():
    assert set(repro.graph.__all__) <= set(dir(repro.graph))
    assert set(repro.__all__) <= set(dir(repro))
