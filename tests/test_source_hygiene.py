"""Leftovers in the library source, found with the standard ``ast`` module:
an imported name a module never uses, a private function or method that
nothing in the package refers to, a parameter its function never reads,
and a public signature that takes ``*args`` or ``**kwargs``; and an
exported class that is not a frozen value."""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import pytest

import symjump

SRC = Path(__file__).resolve().parent.parent / "src" / "symjump"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _references(tree: ast.AST) -> set[str]:
    """Every name a module reads: bare names, attributes, imported names
    and the strings of ``__all__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = _tree(path)
    used = _references(tree)
    imported = [alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
                for alias in node.names]
    assert [name for name in imported if name not in used] == []


def test_every_private_function_is_referenced():
    trees = {path.name: _tree(path) for path in MODULES}
    referenced = set().union(*map(_references, trees.values()))
    for tree in trees.values():
        referenced.update(alias.name for node in ast.walk(tree)
                          if isinstance(node, ast.ImportFrom) for alias in node.names)
    unreferenced = [f"{name}: {node.name}" for name, tree in trees.items()
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_") and not node.name.startswith("__")
                    and node.name not in referenced]
    assert unreferenced == []


# Parameters accepted and ignored: the benchmark still passes ``budget=`` to
# these three entry points, from before every angle query decided on one
# read.  Each goes once the benchmark stops passing it.
IGNORED_PARAMETERS = {("analysis.py", "run_analysis", "budget"),
                      ("jumps.py", "find_jump_tuples", "budget"),
                      ("jumps.py", "verify_tuple", "budget")}


def _related_methods(trees) -> set[tuple[str, str]]:
    """(class, method) for every method that a base class or a subclass
    in the package also defines: an override keeps its base's signature."""
    classes = {node.name: node for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    methods = {name: {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
               for name, node in classes.items()}

    def ancestors(name):
        bases = [b.id for b in classes[name].bases
                 if isinstance(b, ast.Name) and b.id in classes]
        return set(bases).union(*map(ancestors, bases))

    related = set()
    for name in classes:
        for other in ancestors(name):
            shared = methods[name] & methods[other]
            related |= {(name, m) for m in shared} | {(other, m) for m in shared}
    return related


def test_every_parameter_is_read():
    trees = {path.name: _tree(path) for path in MODULES}
    related = _related_methods(trees)
    unread = []
    for name, tree in trees.items():
        owners = {f: c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                  for f in c.body if isinstance(f, ast.FunctionDef)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            owner = owners.get(node)
            if node.name.startswith("__") or (owner, node.name) in related:
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            if owner is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in node.decorator_list):
                params = params[1:]  # self or cls
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{name}: {node.name}({p})" for p in params
                       if p not in read and (name, node.name, p) not in IGNORED_PARAMETERS]
    assert unread == []


def test_no_public_function_takes_star_args():
    # a public signature names every parameter it accepts: no open
    # pass-through for keywords the callee may not take
    found = []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and (not node.name.startswith("_") or node.name.endswith("__"))
                    and (node.args.vararg or node.args.kwarg)):
                found.append(f"{path.name}: {node.name}")
    assert found == []


def test_no_module_imports_numpy():
    # the library is pure Python; numpy serves the tests as an oracle only
    found = []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}: {name}" for name in names if name.split(".")[0] == "numpy"]
    assert found == []


def test_every_angle_kind_subclasses_exact_angle_directly():
    # one model per kind: no angle kind inherits another kind's queries
    kinds = {node.name: [ast.unparse(b) for b in node.bases]
             for node in ast.walk(_tree(SRC / "angles.py"))
             if isinstance(node, ast.ClassDef) and node.name.endswith("Angle")}
    assert sorted(kinds) == ["ExactAngle", "IrrationalAngle", "QuadraticAngle", "RationalAngle"]
    assert {name: bases for name, bases in kinds.items() if name != "ExactAngle"} == {
        "IrrationalAngle": ["ExactAngle"], "QuadraticAngle": ["ExactAngle"],
        "RationalAngle": ["ExactAngle"]}


def test_every_angle_kind_is_a_dataclass_sharing_the_irrational_queries():
    # each kind is a generated value type; ceil_mul = floor_mul + 1,
    # varphi_mul = 1 and the enclosure midpoint as float are written once,
    # on ExactAngle, and only the rational kind overrides them; frac_side
    # is written once, on ExactAngle, for every kind
    kinds = [node for node in ast.walk(_tree(SRC / "angles.py"))
             if isinstance(node, ast.ClassDef) and node.name.endswith("Angle")
             and node.name != "ExactAngle"]
    assert len(kinds) == 3 and "frac_side" in vars(symjump.ExactAngle)
    for kind in kinds:
        decorators = [ast.unparse(d.func if isinstance(d, ast.Call) else d)
                      for d in kind.decorator_list]
        methods = {f.name for f in kind.body if isinstance(f, ast.FunctionDef)}
        assert decorators == ["dataclass"], kind.name
        assert not methods & {"__init__", "__setattr__", "frac_side"}, kind.name
        if kind.name != "RationalAngle":
            assert not methods & {"ceil_mul", "varphi_mul", "__float__"}, kind.name


# Decomposition stays a plain class.  Frozen, it would set each of its 19
# attributes through object.__setattr__: about 3 us against 1 us per
# construction (CPython 3.11, 2-vCPU VM), paid once per seed of every parsed
# scenario.  Filling its instance dict through vars(self).update instead
# made index_iterate about 5% slower: that dict loses CPython's attribute
# specialisation.
NOT_FROZEN = {symjump.ExactAngle,     # the angle kinds' base, with no fields
              symjump.Matrix,         # a tuple of rows
              symjump.Decomposition}


def test_every_exported_class_is_a_frozen_dataclass():
    # a value shared between seeds, reports and queries cannot be changed under them
    classes = [obj for obj in map(symjump.__dict__.get, symjump.__all__)
               if isinstance(obj, type) and not issubclass(obj, Exception)]
    assert [cls.__name__ for cls in classes if cls not in NOT_FROZEN and not (
        dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen)] == []
