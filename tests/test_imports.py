"""Every module in src/ckframe/ and tests/ uses each name it imports."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[str]:
    """The names source imports, other than from __future__, that it never loads."""
    tree = ast.parse(source)
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    ]
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in loaded]


def test_every_imported_name_is_loaded():
    # __init__.py's imports are the package exports, which test_readme checks
    modules = [*(ROOT / "src" / "ckframe").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    unused = {
        str(path.relative_to(ROOT)): names
        for path in sorted(modules)
        if path.name != "__init__.py" and (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}
