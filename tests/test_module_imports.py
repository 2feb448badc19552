"""Every import in the package sits at module level.  An import inside a
function body runs again on every call that reaches it, and hides a
dependency between modules from the reader of the header; a cycle
between two modules is broken by moving code, not by a late import.  An
``import`` or ``from ... import`` anywhere inside a function or method
body of ``src/vstab`` fails here.
"""

import ast
from pathlib import Path

import vstab

SRC = Path(vstab.__file__).parent


def function_imports(tree):
    """(enclosing function, line) for each import inside a function body."""
    return [
        (func.name, node.lineno)
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


def test_no_import_inside_a_function():
    found = [
        (path.name, *where)
        for path in sorted(SRC.glob("*.py"))
        for where in function_imports(ast.parse(path.read_text()))
    ]
    assert found == []

