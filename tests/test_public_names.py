"""The library holds only code that the library or the CLI reaches: every
module-level function, class and assigned constant in ``src/permanental``,
private ones included and dunders excepted, is referenced from some other
statement there.  Code that only tests call belongs in ``tests/``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "permanental"


def _referenced(node: ast.AST) -> set[str]:
    """The names a statement uses: bare names, attributes, imported names and
    the modules that ``from`` imports read."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
        elif isinstance(sub, ast.ImportFrom) and sub.module:
            names.add(sub.module.rpartition(".")[2])
    return names


def _defined(stmt: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a function, a class, or
    the plain names that an assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [sub.id for target in targets for sub in ast.walk(target)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)]


def test_every_module_level_name_is_referenced_in_src():
    statements = [(path.stem, stmt) for path in sorted(SRC.glob("*.py"))
                  for stmt in ast.parse(path.read_text()).body]
    used = [_referenced(stmt) for _, stmt in statements]
    unused = [
        f"{module}.{name}"
        for k, (module, stmt) in enumerate(statements)
        for name in _defined(stmt)
        if not (name.startswith("__") and name.endswith("__"))
        and not any(name in names for j, names in enumerate(used) if j != k)
    ]
    assert unused == [], f"module-level names that no other code in src/ references: {unused}"
