"""Nothing in `src/idealhash` is public without a caller.

A top-level `def` or `class` whose name has no leading underscore must be
referenced by some module of the package outside its own definition: a
name, an attribute or an imported name.  A public wrapper that only tests
call fails here; it either earns a caller in the package or goes.

The same holds for CLI flags: every flag a subcommand declares must be read
by that subcommand's handler.

The package root re-exports nothing, so each name has one import path: its
home module.
"""

import argparse
import ast
import inspect
import textwrap
import types
from pathlib import Path

import idealhash
from idealhash import cli

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "idealhash"


def _public_definitions(tree: ast.Module) -> list[ast.stmt]:
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node for node in tree.body if isinstance(node, kinds) and not node.name.startswith("_")]


def _referenced_names(node: ast.AST) -> set[str]:
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def test_every_public_name_has_a_caller_in_the_package():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    # references per (module, top-level statement); a definition's own body does
    # not count for it, nor does a re-export in the package root
    refs = [
        (module, getattr(stmt, "name", None), _referenced_names(stmt))
        for module, tree in trees.items()
        for stmt in tree.body
        if not (module == "__init__" and isinstance(stmt, (ast.Import, ast.ImportFrom)))
    ]
    uncalled = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in _public_definitions(tree)
        if not any(
            node.name in names and (where, owner) != (module, node.name)
            for where, owner, names in refs
        )
    ]
    assert uncalled == []


def test_the_package_root_holds_only_its_version():
    # every name has one import path, its home module: the root re-exports nothing
    public = [
        name
        for name, value in vars(idealhash).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)  # loaded submodules aside
    ]
    assert public == []
    assert not hasattr(idealhash, "__getattr__") and not hasattr(idealhash, "__all__")
    assert idealhash.__version__


def _unread_flags() -> list[str]:
    """`subcommand.dest` for each declared flag its handler never reads as `args.<dest>`."""
    (subparsers,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    unread = []
    for name, sp in subparsers.choices.items():
        tree = ast.parse(textwrap.dedent(inspect.getsource(cli._DISPATCH[name])))
        read = {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args"
        }
        unread += [f"{name}.{a.dest}" for a in sp._actions if a.dest != "help" and a.dest not in read]
    return unread


def test_every_flag_is_read_by_its_handler():
    assert _unread_flags() == []
