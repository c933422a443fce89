"""No function in ``seqgames`` calls itself.

Game trees, documents and graphs can be deeper than Python's recursion
limit, so every walk over them keeps an explicit stack or works layer by
layer.  This ratchet parses each module and fails on any function or nested
``def`` that calls its own name, directly or as ``self.<name>``.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "seqgames"

ALLOWED: frozenset[str] = frozenset()


def _calls_itself(function: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for call in ast.walk(function):
        if not isinstance(call, ast.Call):
            continue
        target = call.func
        if isinstance(target, ast.Name) and target.id == function.name:
            return True
        if (
            isinstance(target, ast.Attribute)
            and target.attr == function.name
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return True
    return False


def _recursive_functions() -> list[str]:
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _calls_itself(function):
                    found.append(f"{path.stem}.{function.name}:{function.lineno}")
    return found


def test_no_function_calls_itself():
    recursive = [
        name for name in _recursive_functions() if name.split(":")[0] not in ALLOWED
    ]
    assert recursive == []
