"""Every public route of the library has a caller in the library or in the
experiment scripts, and every private module function a caller in the
library.  A route that only tests call belongs in tests/oracles.py or in the
test that calls it, not in src/.  Every work cap refuses through one
errors.charge call whose `what` has its message pinned in test_refusals.py.
Every cache the library keeps between calls is documented in the README and
cleared by the cold tests, and no other module state is rebound at run time
than the Lambda stream, which the README lists.  Only arith.exact_dtype
decides whether int64 is exact: no other comparison with 2^63 is made but
the named caps and checks of input."""

import ast
import contextlib
import io
import textwrap
from collections import Counter
from pathlib import Path

import numpy as np

from oracles import clear_caches, process_caches
from test_refusals import REFUSALS

ROOT = Path(__file__).resolve().parent.parent

# Routes with no caller in src/ or scripts/ that stay anyway, and why.
ALLOWED_UNCALLED = dict.fromkeys(
    ("DirichletCharacter", "DirichletCharacter.conductor", "DirichletCharacter.is_primitive",
     "MvPoly.evaluate"),
    "bench/tracer.py names this route or its class (lines 123-124 patch MvPoly.evaluate, "
    "lines 125-128 DirichletCharacter's properties), so it leaves src/ with ROADMAP item 9, "
    "after a bench change")

# The attributes of the builtin types and of numpy arrays, any of which a
# bare method name may stand for.
BUILTIN_ATTRIBUTES = frozenset().union(*map(dir, (dict, list, set, tuple, str, int, float,
                                                  np.ndarray)))


def _names(tree: ast.AST, method: bool) -> Counter:
    """How often each identifier is named in code, not in imports or
    definitions: by attribute access only for a method, so that a local
    variable of the same name cannot stand in for its caller, and also by
    its bare name for a module function or class."""
    return Counter(node.attr if isinstance(node, ast.Attribute) else node.id
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) or not method and isinstance(node, ast.Name))


def _public_routes(tree: ast.Module):
    """(qualified name, name, scope) for each public function and class of a
    module, whose scope is its own definition, and each public method of its
    public classes, whose scope is its class body."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name, node


def uncalled_routes(library: list[ast.Module], others: list[ast.Module]) -> set[str]:
    """The public routes of the library modules that no code of the library
    or of the other modules names outside the route's scope, and every
    public method whose name a builtin's attribute shares, since a bare
    name cannot tell a call of one from a call of the other."""
    named = {method: sum((_names(tree, method) for tree in library + others), Counter())
             for method in (False, True)}
    return {qualname for tree in library for qualname, name, scope in _public_routes(tree)
            if (method := "." in qualname) and name in BUILTIN_ATTRIBUTES
            or named[method][name] == _names(scope, method)[name]}


def test_every_public_route_has_a_caller_outside_tests():
    library, scripts = ([ast.parse(path.read_text(), str(path)) for path in folder.glob("*.py")]
                        for folder in (ROOT / "src" / "polysieve", ROOT / "scripts"))
    assert uncalled_routes(library, scripts) == set(ALLOWED_UNCALLED)


def unnamed_private_functions(library: dict[str, ast.Module]) -> set[str]:
    """The private module-level functions, as module.name, that no code of
    the library modules names outside the function's own definition."""
    named = sum((_names(tree, False) for tree in library.values()), Counter())
    return {f"{module}.{node.name}" for module, tree in library.items() for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
            and named[node.name] == _names(node, False)[node.name]}


def test_every_private_module_function_has_a_caller_in_the_library():
    library = {path.stem: ast.parse(path.read_text(), str(path))
               for path in (ROOT / "src" / "polysieve").glob("*.py")}
    assert unnamed_private_functions(library) == set()


def test_a_private_function_named_only_by_itself_is_reported():
    library = ast.parse(textwrap.dedent("""
        def _digits(n):
            return _digits(n // 10) + 1 if n else 0

        def _width(n):
            return len(str(n))

        def width(n):
            return _width(n)
    """))
    assert unnamed_private_functions({"m": library}) == {"m._digits"}


def test_a_local_variable_does_not_stand_in_for_a_method():
    library = ast.parse(textwrap.dedent("""
        class Window:
            def indices(self):
                return range(3)

            def span(self):
                return 3

        def width(w: Window):
            indices = w.span()
            return indices
    """))
    caller = ast.parse("import window\nwindow.width(None)\n")
    assert uncalled_routes([library], [caller]) == {"Window.indices"}
    assert uncalled_routes([library], []) == {"Window.indices", "width"}


def test_a_call_from_the_methods_own_class_does_not_count():
    library = ast.parse(textwrap.dedent("""
        class Window:
            def indices(self):
                return range(self.span())

            def span(self):
                return 3

        def width(w: Window):
            return len(w.indices())
    """))
    caller = ast.parse("import window\nwindow.width(None)\n")
    assert uncalled_routes([library], [caller]) == {"Window.span"}
    outside = ast.parse("import window\nwindow.width(None)\nwindow.Window().span()\n")
    assert uncalled_routes([library], [outside]) == set()


def test_a_method_named_like_a_builtin_attribute_is_reported():
    library = ast.parse(textwrap.dedent("""
        class Table:
            def values(self):
                return [1]

            def rows(self):
                return 1

        def total(counts: dict, t: Table):
            return sum(counts.values()) + t.rows()
    """))
    caller = ast.parse("import table\ntable.total({}, None)\n")
    assert uncalled_routes([library], [caller]) == {"Table.values"}
    called = ast.parse("import table\ntable.total({}, None)\ntable.Table().values()\n")
    assert uncalled_routes([library], [called]) == {"Table.values"}


def test_every_allowed_uncalled_route_is_named_by_the_tracer():
    # the allowlist holds only what bench/tracer.py patches by name; once the
    # tracer stops naming a route, that route leaves src/ (ROADMAP item 9)
    tracer = (ROOT / "bench" / "tracer.py").read_text()
    assert [name for name in ALLOWED_UNCALLED if name.rsplit(".", 1)[-1] not in tracer] == []


def unused_imports(tree: ast.Module) -> set[str]:
    """The names a module binds by import but never names, where a name in
    the module's __all__ counts as used (a package re-exports that way)."""
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names}
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {elt.value for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                for elt in node.value.elts}
    return imported - named - exported


def test_no_library_module_imports_a_name_it_does_not_use():
    unused = {path.name: names for path in sorted((ROOT / "src" / "polysieve").glob("*.py"))
              if (names := unused_imports(ast.parse(path.read_text(), str(path))))}
    assert unused == {}


def test_an_import_counts_as_used_when_named_or_exported():
    tree = ast.parse(textwrap.dedent("""
        from __future__ import annotations
        import os.path
        from dataclasses import dataclass
        from math import gcd, log as ln
        from .errors import BudgetError

        __all__ = ["BudgetError"]

        def f(n):
            return gcd(n, 6)
    """))
    assert unused_imports(tree) == {"os", "dataclass", "ln"}


def _callee(node: ast.AST) -> str | None:
    """The bare name of a called or raised function or class, if any."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def test_every_work_cap_refuses_through_charge_with_a_pinned_what():
    pinned = {what for _, what, *_ in REFUSALS}
    raised, charged = [], []
    for path in sorted((ROOT / "src" / "polysieve").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            site = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Raise) and node.exc and _callee(node.exc) == "BudgetError" \
                    and path.name != "errors.py":
                raised.append(site)
            elif isinstance(node, ast.Call) and _callee(node) == "charge":
                first = node.args[0] if node.args else None
                charged.append((site, first.value if isinstance(first, ast.Constant) else None))
    assert raised == []
    assert [(site, what) for site, what in charged if what not in pinned] == []
    assert {what for _, what in charged} == pinned


def test_every_cache_is_documented_and_cleared_by_the_cold_tests():
    from polysieve import arith, bv, cli, largesieve
    from polysieve.mvpoly import FactoredPoly, parse_poly

    caches = process_caches()
    readme = (ROOT / "README.md").read_text()
    kept = readme.split("## What a process keeps between calls\n", 1)[1].split("\n## ", 1)[0]
    assert [name for name in caches if f"`{name}" not in kept] == []
    # a plain dict has no cache_clear, so process_caches cannot see it
    assert "`largesieve.sequence_autocorrelation`" in kept
    cli.build_parser()
    bv.discrepancy_sum(FactoredPoly([parse_poly("x1"), parse_poly("x2")]), 16, 100.0)
    bv.mean_value_sum(parse_poly("x1^2+x2^2"), 2, 100)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["sieve-scan", "--P", "x1^2+x2^2", "--Q", "2", "--N", "8,16"]) == 0
    assert all(cache.cache_info().currsize for cache in caches.values())
    assert arith._lambda_stream is not None and largesieve._autocorrelations
    clear_caches()
    assert {name: cache.cache_info().currsize for name, cache in caches.items()} == \
        dict.fromkeys(caches, 0)
    assert arith._lambda_stream is None and largesieve._autocorrelations == {}


def test_the_lambda_stream_is_the_only_name_a_global_statement_rebinds():
    # module state rebound through `global` has no cache_clear; the README's
    # "What a process keeps between calls" lists the Lambda stream, and no
    # other such state may come back unlisted
    rebound = {f"{path.stem}.{name}" for path in (ROOT / "src" / "polysieve").glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.Global) for name in node.names}
    assert rebound == {"arith._lambda_stream"}


# The comparisons with 2^63 (or 2^63 - 1) that src/ may make, and why: every
# choice between int64 and Python ints asks arith.exact_dtype.
INT64_EDGES = {
    "arith.exact_dtype": "the one decision that int64 is exact below 2^63",
    "largesieve.sieve_sums": "input validation: the window (M, M+N] must end below 2^63",
}


def _constant(node: ast.AST):
    """The value of an expression made of int constants and operators only, else None."""
    if all(isinstance(n, (ast.Constant, ast.BinOp, ast.UnaryOp, ast.operator, ast.unaryop))
           for n in ast.walk(node)):
        return eval(compile(ast.Expression(node), "<constant>", "eval"), {"__builtins__": {}})
    return None


def int64_edges(tree: ast.Module, scope: str) -> set[str]:
    """The qualified names of the functions of a module that compare with 2^63 or 2^63 - 1."""
    found = set()
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            found |= int64_edges(child, f"{scope}.{child.name}")
            continue
        if isinstance(child, ast.Compare) and {2 ** 63 - 1, 2 ** 63} & {
                _constant(side) for side in (child.left, *child.comparators)}:
            found.add(scope)
        found |= int64_edges(child, scope)
    return found


def test_only_exact_dtype_decides_when_int64_is_exact():
    found = set().union(*(int64_edges(ast.parse(path.read_text(), str(path)), path.stem)
                          for path in (ROOT / "src" / "polysieve").glob("*.py")))
    assert found == set(INT64_EDGES)


def test_the_int64_edge_guard_finds_a_comparison_in_any_scope():
    tree = ast.parse(textwrap.dedent("""
        LIMIT = 2 ** 63
        class Grid:
            def values(self, bound):
                return np.int64 if bound < 2 ** 63 else object
        def window(M, N):
            wide = [M for _ in range(N) if M + N > 9223372036854775807]
            return M % 2 ** 63, N < 2 ** 62, N < 63
    """))
    assert int64_edges(tree, "m") == {"m.Grid.values", "m.window"}
