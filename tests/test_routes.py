"""Every public route of the library has a caller in the library or in the
experiment scripts.  A route that only tests call belongs in
tests/oracles.py, not in src/."""

import ast
import textwrap
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Routes with no caller in src/ or scripts/ that stay anyway, and why.
ALLOWED_UNCALLED = dict.fromkeys(
    ("DirichletCharacter.is_principal", "DirichletCharacter.conductor",
     "DirichletCharacter.is_primitive", "enumerate_characters", "MvPoly.evaluate"),
    "bench/tracer.py patches this route or its class, and it leaves with ROADMAP item 1")


def _names(tree: ast.AST, method: bool) -> Counter:
    """How often each identifier is named in code, not in imports or
    definitions: by attribute access only for a method, so that a local
    variable of the same name cannot stand in for its caller, and also by
    its bare name for a module function or class."""
    return Counter(node.attr if isinstance(node, ast.Attribute) else node.id
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) or not method and isinstance(node, ast.Name))


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


def uncalled_routes(library: list[ast.Module], others: list[ast.Module]) -> set[str]:
    """The public routes of the library modules that no code of the library
    or of the other modules names outside the route's own definition."""
    named = {method: sum((_names(tree, method) for tree in library + others), Counter())
             for method in (False, True)}
    return {qualname for tree in library for qualname, node in _public_routes(tree)
            if named[(method := "." in qualname)][node.name] == _names(node, method)[node.name]}


def test_every_public_route_has_a_caller_outside_tests():
    library, scripts = ([ast.parse(path.read_text(), str(path)) for path in folder.glob("*.py")]
                        for folder in (ROOT / "src" / "polysieve", ROOT / "scripts"))
    assert uncalled_routes(library, scripts) == set(ALLOWED_UNCALLED)


def test_a_local_variable_does_not_stand_in_for_a_method():
    library = ast.parse(textwrap.dedent("""
        class Window:
            def indices(self):
                return range(3)

            def size(self):
                return 3

        def width(w: Window):
            indices = w.size()
            return indices
    """))
    caller = ast.parse("import window\nwindow.width(None)\n")
    assert uncalled_routes([library], [caller]) == {"Window.indices"}
    assert uncalled_routes([library], []) == {"Window.indices", "width"}
