"""The dyadic box [Q, 2Q)^ell is spelled out in one function of src/,
boxes.box_grid; every other box pass reads its grid from there."""

import ast
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "polysieve"


def _is_dyadic_range(node: ast.AST) -> bool:
    """range(a, 2 * a), for any expression a."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "range" and len(node.args) == 2
            and ast.unparse(node.args[1]) == f"2 * {ast.unparse(node.args[0])}")


def dyadic_builders(tree: ast.Module, module: str) -> set[str]:
    """The qualified names of the functions (or the module itself) that
    spell out range(a, 2 * a)."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = (f"{scope}.{child.name}"
                     if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope)
            if _is_dyadic_range(child):
                found.add(inner)
            visit(child, inner)

    visit(tree, module)
    return found


def test_box_grid_is_the_only_dyadic_box_builder():
    found = set().union(*(dyadic_builders(ast.parse(path.read_text()), path.stem)
                          for path in SRC.glob("*.py")))
    assert found == {"boxes.box_grid"}


def test_the_guard_finds_every_spelling():
    tree = ast.parse(textwrap.dedent("""
        class Box:
            def axes(self, Q):
                return [range(Q, 2*Q)] * 2

        def sieve(q0):
            vals = grid(range(q0, 2 * q0))
            return [range(q0, 3 * q0), range(2 * q0)]

        TOP = range(N, 2 * N)
    """))
    assert dyadic_builders(tree, "m") == {"m.Box.axes", "m.sieve", "m"}
