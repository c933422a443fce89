"""The package's import structure, read from the source of its modules:
modules import each other by name at the top, never through the package
object, and without a cycle."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "seqgames"


def _module_name(path: Path) -> str:
    return "seqgames" if path.stem == "__init__" else f"seqgames.{path.stem}"


def _imported(tree: ast.Module, modules: set[str]) -> set[str]:
    """The modules an import statement of ``tree`` names or binds: ``import
    a.b`` binds ``a``, and ``from a import b`` names ``a.b`` when that is
    one of ``modules``, else ``a``."""
    names = set()
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                names.add(alias.name)
                if alias.asname is None:
                    names.add(alias.name.split(".")[0])
        elif isinstance(stmt, ast.ImportFrom):
            assert stmt.level == 0, f"relative import of {stmt.module!r} at line {stmt.lineno}"
            for alias in stmt.names:
                module = f"{stmt.module}.{alias.name}"
                names.add(module if module in modules else stmt.module)
    return names


def test_modules_import_each_other_at_the_top_by_name_without_a_cycle():
    trees = {_module_name(path): ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}
    assert {"seqgames", "seqgames.core", "seqgames.graphs", "seqgames.coinduction"} <= trees.keys()
    edges = {}
    for name, tree in trees.items():
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = [n.lineno for n in ast.walk(function) if isinstance(n, (ast.Import, ast.ImportFrom))]
                assert not inner, f"{name}.{function.name} imports at line {inner[0]}"
        edges[name] = _imported(tree, trees.keys()) & trees.keys()
        if name != "seqgames":
            assert "seqgames" not in edges[name], f"{name} imports the package seqgames"
    # Depth first: a module met again on the current path closes a cycle.
    done: set[str] = set()

    def visit(name: str, path: list[str]) -> None:
        if name in path:
            raise AssertionError("import cycle: " + " -> ".join(path[path.index(name):] + [name]))
        if name not in done:
            for target in sorted(edges[name]):
                visit(target, path + [name])
            done.add(name)

    for name in sorted(edges):
        visit(name, [])
