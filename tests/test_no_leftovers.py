"""Private helpers must have a caller: a ``_name`` function or method
under ``src/repro/`` that nothing in ``src/repro/`` references is what
a replaced code path leaves behind."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def test_every_private_function_is_referenced():
    defined, referenced = {}, set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined[node.name] = f"{path.relative_to(SRC)}:{node.lineno}"
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                referenced.add(node.value)  # getattr(obj, "_name") and the like
    leftovers = {n: where for n, where in defined.items() if n not in referenced}
    assert not leftovers, f"private functions nothing references: {leftovers}"
