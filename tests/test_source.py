"""What the README promises of the source: the standard library only, no
floats anywhere, every cache a _memo table, and no definition that nothing
uses."""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

import dbl

SRC = Path(__file__).resolve().parents[1] / "src" / "dbl"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def test_the_source_is_read():
    assert {"__init__.py", "_memo.py", "cech.py", "spectrum.py"} <= set(TREES)


@pytest.mark.parametrize("name", sorted(TREES))
def test_every_absolute_import_is_from_the_standard_library(name):
    for node in ast.walk(TREES[name]):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        for module in modules:
            assert module.split(".")[0] in sys.stdlib_module_names, (name, module)


@pytest.mark.parametrize("name", sorted(TREES))
def test_no_float_literal_and_no_float_name(name):
    for node in ast.walk(TREES[name]):
        assert not (isinstance(node, ast.Constant) and type(node.value) is float), (name, node.lineno)
        assert not (isinstance(node, ast.Name) and node.id == "float"), (name, node.lineno)


@pytest.mark.parametrize("name", sorted(set(TREES) - {"_memo.py"}))
def test_every_cache_is_a_memo_table(name):
    # no functools cache and no lock of its own, and no module-level dict,
    # list or set but __all__: a module keeps what it memoizes in a Memo
    for node in ast.walk(TREES[name]):
        if isinstance(node, ast.ImportFrom) and node.module in ("functools", "threading"):
            assert not {a.name for a in node.names} & {"cache", "lru_cache", "Lock", "RLock"}, name
        if isinstance(node, ast.Attribute):
            assert node.attr not in ("cache", "lru_cache", "Lock", "RLock"), (name, node.lineno)
    for node in TREES[name].body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            mutable = isinstance(node.value, (ast.Dict, ast.List, ast.Set)) or (
                isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name)
                and node.value.func.id in ("dict", "list", "set")
            )
            assert not mutable or [t.id for t in targets] == ["__all__"], (name, node.lineno)


def test_every_definition_is_referenced_or_exported():
    # a module-level function or class, or a method, is named somewhere in
    # the source outside its own body (a Name or an Attribute), so neither
    # recursion nor a self-reference counts, or it is exported from the package
    def names(tree):
        return Counter(
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
        )

    everywhere = sum(map(names, TREES.values()), Counter())
    exported = set(dbl.__all__)

    def unused(node):
        return node.name not in exported and everywhere[node.name] == names(node)[node.name]

    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for name, tree in TREES.items():
        for node in tree.body:
            if not isinstance(node, defs):
                continue
            if unused(node):
                found.append((name, node.name))
            methods = node.body if isinstance(node, ast.ClassDef) else []
            for item in methods:
                if not isinstance(item, defs) or item.name.startswith("__") and item.name.endswith("__"):
                    continue
                if unused(item):
                    found.append((name, f"{node.name}.{item.name}"))
    assert found == []


# The wire formats: what a command reads (spaces and ring objects) and what
# its reports write.  A new entry needs a line in the README's wire-format
# paragraph, and a command, criterion or report that reaches it.
WIRE = {
    ("BasisFamily", "to_json"),
    ("FiniteSpace", "from_json"),
    ("FiniteSpace", "to_json"),
    ("NormValue", "to_json"),
    ("RingDescriptor", "from_json"),
    ("SWCertificate", "to_json"),
}


def test_only_the_wire_formats_define_json_readers_and_writers():
    found = {
        (node.name, item.name)
        for tree in TREES.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name in ("to_json", "from_json")
    }
    assert found == WIRE
