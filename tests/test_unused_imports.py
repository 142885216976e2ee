"""No module of the package imports a name it never uses, or defines a
private module-level name it never reads."""

import ast
from pathlib import Path

import pytest

import liefoliate

PACKAGE = Path(liefoliate.__file__).resolve().parent
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

# The documented protocol of collections.namedtuple: a class built on a
# namedtuple that defines one of these overrides inherited API, which the
# inherited methods read (``_replace`` calls ``_make``), not a private member.
NAMEDTUPLE_API = {"_make", "_replace", "_asdict", "_fields", "_field_defaults"}

# argparse.ArgumentParser writes help, usage errors and its version line
# through ``_print_message``: a parser class that defines it overrides what
# the inherited methods call, as a namedtuple's class does with NAMEDTUPLE_API.
ARGPARSE_API = {"_print_message"}


def _imports_in(scope: ast.AST):
    """Import statements of a scope, leaving out those of nested functions."""
    for child in ast.iter_child_nodes(scope):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        elif not isinstance(child, FUNCTIONS):
            yield from _imports_in(child)


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0] for alias in node.names if alias.name != "*"]


def _exported(tree: ast.Module) -> set[str]:
    """The string constants listed in a module-level ``__all__``."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= {c.value for c in ast.walk(node.value)
                      if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return names


def unused_imports(source: str) -> list[str]:
    """Names imported in a scope (the module or a function) and read nowhere in it."""
    tree = ast.parse(source)
    unused = []
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, FUNCTIONS))]:
        used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        if scope is tree:
            used |= _exported(tree)
        for node in _imports_in(scope):
            unused.extend(f"line {node.lineno}: {name}" for name in _bound_names(node)
                          if name not in used)
    return unused


def _private_names(node: ast.stmt) -> list[str]:
    """Private names (``_name``, not dunders) a statement defines."""
    if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _builds_on_namedtuple(cls: ast.ClassDef) -> bool:
    """A base of the class is a call of ``namedtuple`` (or ``collections.namedtuple``)."""
    return any(isinstance(base, ast.Call) and (getattr(base.func, "id", None) == "namedtuple"
                                               or getattr(base.func, "attr", None) == "namedtuple")
               for base in cls.bases)


def _builds_on_argparse(cls: ast.ClassDef) -> bool:
    """A base of the class is ``ArgumentParser`` (or ``argparse.ArgumentParser``)."""
    return any(getattr(base, "id", getattr(base, "attr", None)) == "ArgumentParser" for base in cls.bases)


def unread_privates(source: str) -> list[str]:
    """Private module-level names no other statement of the module reads, and
    private class members the module never reads as an attribute.  A class
    built on a namedtuple may define the names of NAMEDTUPLE_API, and one
    built on argparse's parser those of ARGPARSE_API."""
    tree = ast.parse(source)
    members = [m for cls in tree.body if isinstance(cls, ast.ClassDef) for m in cls.body
               if not (_builds_on_namedtuple(cls) and set(_private_names(m)) <= NAMEDTUPLE_API
                       or _builds_on_argparse(cls) and set(_private_names(m)) <= ARGPARSE_API)]
    loads = [n for n in ast.walk(tree)
             if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)]
    unread = []
    for node in [*tree.body, *members]:
        kind = ast.Name if node in tree.body else ast.Attribute
        inside = {id(n) for n in ast.walk(node)}
        for name in _private_names(node):
            if not any(isinstance(n, kind) and (n.id if kind is ast.Name else n.attr) == name
                       and id(n) not in inside for n in loads):
                unread.append(f"line {node.lineno}: {name}")
    return unread


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_module_reads_every_private_name_it_defines(path):
    assert unread_privates(path.read_text()) == []


@pytest.mark.parametrize("source, expected", [
    ("_X = 1\n", ["line 1: _X"]),
    ("_X = 1\ndef f():\n    return _X\n", []),
    ("def _f():\n    return _f()\n", ["line 1: _f"]),
    ("class _C:\n    pass\n\n\nclass D(_C):\n    pass\n", []),
    ("class D:\n    def _m(self):\n        pass\n", ["line 2: _m"]),
    ("class D:\n    _k = 1\n    def _m(self):\n        return self._k\n    def f(self):\n"
     "        return self._m()\n", []),
    ("_T: int = 3\n__all__ = []\n", ["line 1: _T"]),
    ("import functools\n@functools.cache\ndef _f():\n    pass\ng = _f\n", []),
    ("from collections import namedtuple\nclass P(namedtuple('P', 'x')):\n    @classmethod\n"
     "    def _make(cls, it):\n        return cls(*it)\n", []),
    ("import collections\nclass P(collections.namedtuple('P', 'x')):\n    def _asdict(self):\n"
     "        return {}\n    def _m(self):\n        pass\n", ["line 5: _m"]),
    ("class D:\n    @classmethod\n    def _make(cls, it):\n        return cls(*it)\n", ["line 3: _make"]),
    ("import argparse\nclass P(argparse.ArgumentParser):\n    def _print_message(self, message, file=None):\n"
     "        pass\n    def _m(self):\n        pass\n", ["line 5: _m"]),
    ("class D:\n    def _print_message(self, message, file=None):\n        pass\n", ["line 2: _print_message"]),
])
def test_unread_private_check_finds_what_it_should(source, expected):
    assert unread_privates(source) == expected


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("source, expected", [
    ("import os\n", ["line 1: os"]),
    ("import os.path\nos.sep\n", []),
    ("from __future__ import annotations\nimport math as m\nm.pi\n", []),
    ("from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    from x import Y\n"
     "def f(y: Y) -> None:\n    pass\n", []),
    ("import math\ndef f():\n    import json\n    return math.pi\n", ["line 3: json"]),
    ("def f():\n    import json\ndef g():\n    return json\n", ["line 2: json"]),
    ("from x import y\n__all__ = ['y']\n", []),
])
def test_unused_import_check_finds_what_it_should(source, expected):
    assert unused_imports(source) == expected
