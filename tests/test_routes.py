"""Every public route of the library has a caller in the library or in the
experiment scripts.  A route that only tests call belongs in
tests/oracles.py, not in src/."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Routes with no caller in src/ or scripts/ that stay anyway, and why.
ALLOWED_UNCALLED = dict.fromkeys(
    ("DirichletCharacter.is_principal", "DirichletCharacter.conductor",
     "DirichletCharacter.is_primitive", "enumerate_characters", "MvPoly.evaluate"),
    "bench/tracer.py patches this route or its class, and it leaves with ROADMAP item 1")


def _names(tree: ast.AST) -> Counter:
    """How often each identifier is named in code: loads, stores and
    attribute accesses, not imports or definitions."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def _public_routes(tree: ast.Module):
    """(qualified name, def node) for each public function and class of a
    module and each public method of its public classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def uncalled_routes() -> set[str]:
    sources = [*(ROOT / "src" / "polysieve").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sources}
    named = sum((_names(tree) for tree in trees.values()), Counter())
    return {qualname
            for path, tree in trees.items() if path.parent.name == "polysieve"
            for qualname, node in _public_routes(tree)
            if named[node.name] == _names(node)[node.name]}


def test_every_public_route_has_a_caller_outside_tests():
    assert uncalled_routes() == set(ALLOWED_UNCALLED)
