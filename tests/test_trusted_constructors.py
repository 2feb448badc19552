"""The trusted constructors skip every check of the public ones, so each
has exactly one caller: the builder whose docstring says why its outputs
pass those checks.  ``VStability._trusted`` is named only in
``posets._searched_stabilities``, ``SheafData._trusted`` only in
``sheaves._sheaf`` and ``DegeneracySet._trusted`` only in
``posets.enumerate_degeneracy_subsets``; a reference from anywhere else
in the package (``serialize`` and ``cli`` among them), or by a string
such as a ``getattr`` name, fails here.
"""

import ast
from pathlib import Path

import vstab

SRC = Path(vstab.__file__).parent

TRUSTED = {
    # class: (module defining it, (module, function) of its one caller)
    "VStability": ("stability.py", ("posets.py", "_searched_stabilities")),
    "SheafData": ("sheaves.py", ("sheaves.py", "_sheaf")),
    "DegeneracySet": ("stability.py", ("posets.py", "enumerate_degeneracy_subsets")),
}


def modules():
    return [(path.name, ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))]


def uses(name, tree):
    """(owner, enclosing function) for each attribute ``_trusted`` in the
    tree; the owner is the name it is read from, or a dump of the
    expression."""
    out = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr == "_trusted":
                owner = child.value.id if isinstance(child.value, ast.Name) else ast.dump(child.value)
                out.append((owner, name, func))
            visit(child, func)

    visit(tree, None)
    return out


def test_each_trusted_constructor_has_its_one_builder():
    found = sorted(use for name, tree in modules() for use in uses(name, tree))
    assert found == sorted((cls, *caller) for cls, (_, caller) in TRUSTED.items())


def test_each_trusted_constructor_is_defined_once_in_its_class():
    found = sorted(
        (node.name, name)
        for name, tree in modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name == "_trusted"
    )
    assert found == sorted((cls, module) for cls, (module, _) in TRUSTED.items())


def test_no_trusted_constructor_is_named_by_a_string():
    assert not [
        (name, node.lineno)
        for name, tree in modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value == "_trusted"
    ]
