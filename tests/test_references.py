"""Every public top-level function and class of the package is read
somewhere in the package.

A name is read where it appears as an ``ast.Name`` or ``ast.Attribute``
node other than its own definition, so a docstring mention does not
count.  A public name that nothing in ``src/`` reads is code nothing
ships: delete it, or make the package use it.
"""

import ast
import pathlib

import kodsim


def public_definitions(tree: ast.Module):
    """Names of the module's public top-level functions and classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name


def read_names(tree: ast.Module):
    """Every name the module reads, as a bare name or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_public_definition_is_read_in_the_package():
    src = pathlib.Path(kodsim.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    read = {name for tree in trees.values() for name in read_names(tree)}
    defined = {(module, name) for module, tree in trees.items()
               for name in public_definitions(tree)}
    assert len(defined) > 50
    assert sorted((m, n) for m, n in defined if n not in read) == []
