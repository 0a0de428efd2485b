"""The library holds only code that the library or the CLI reaches: every
public module-level function and class in ``src/permanental`` is referenced
from some other statement there.  Code that only tests call belongs in
``tests/``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "permanental"


def _referenced(node: ast.AST) -> set[str]:
    """The names a statement uses: bare names, attributes and imported names."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def test_every_public_function_and_class_is_referenced_in_src():
    statements = [(path.stem, stmt) for path in sorted(SRC.glob("*.py"))
                  for stmt in ast.parse(path.read_text()).body]
    used = [_referenced(stmt) for _, stmt in statements]
    unused = [
        f"{module}.{stmt.name}"
        for k, (module, stmt) in enumerate(statements)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")
        and not any(stmt.name in names for j, names in enumerate(used) if j != k)
    ]
    assert unused == [], f"public names that no other code in src/ references: {unused}"
