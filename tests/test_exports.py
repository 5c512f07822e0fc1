"""Every exported function and class is used by the package itself.

A public name that only ``__init__`` and the tests reach is code no
command runs; this keeps such names from accumulating.
"""

import ast
import inspect
from pathlib import Path

import fluxgate

PACKAGE = Path(fluxgate.__file__).parent


def _exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    names = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    return {
        name for name in names
        if inspect.isfunction(getattr(fluxgate, name)) or inspect.isclass(getattr(fluxgate, name))
    }


def _references(node: ast.AST, enclosing: frozenset = frozenset()) -> set[str]:
    """Names and attribute names referenced under ``node``, leaving out
    references to a def or class from inside its own statement."""
    found = set()
    if isinstance(node, ast.Name) and node.id not in enclosing:
        found.add(node.id)
    elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
        found.add(node.attr)
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing = enclosing | {node.name}
    for child in ast.iter_child_nodes(node):
        found |= _references(child, enclosing)
    return found


def test_every_exported_function_and_class_is_used_by_the_package():
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used |= _references(ast.parse(path.read_text()))
    exported = _exported_names()
    assert exported  # the parse found the exports
    assert sorted(exported - used) == []
