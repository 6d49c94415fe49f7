"""Every name the package exports has a caller that ships with it.

A caller is a use of the name, as a variable or an attribute, in the
package's modules, `scripts/` or `perfbench/`, outside the name's own
definition.  Tests do not count, and neither do docstrings or import
lines, so an export that only a test reaches shows up here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cfdyn"

# log_deriv_at is the one-step reference that orbit averages are tested
# against (tests/test_lyapunov.py); the orbit engine sums the same
# derivative without it
EXEMPT = {"log_deriv_at"}


def exported_names() -> set:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def shipped_sources() -> list:
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    return (files + sorted((ROOT / "scripts").glob("*.py"))
            + sorted((ROOT / "perfbench").glob("*.py")))


def used_names(tree: ast.AST) -> set:
    """Names used as variables or attributes, each outside the function
    or class that defines a name of that spelling."""
    used = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Name) and node.id not in enclosing:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return used


def test_every_export_has_a_shipped_caller():
    used = set()
    for path in shipped_sources():
        used |= used_names(ast.parse(path.read_text(), filename=str(path)))
    exported = exported_names()
    assert sorted(exported - used - EXEMPT) == []
    # an exemption that gained a caller, or left the exports, goes
    assert EXEMPT <= exported - used
