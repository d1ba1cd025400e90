"""Source hygiene checks that read the package's modules with ``ast``."""

import ast
from pathlib import Path

import wheelfree

MODULES = sorted(p for p in Path(wheelfree.__file__).parent.glob("*.py") if p.name != "__init__.py")


def test_modules_use_every_name_they_import():
    assert MODULES
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = sorted(imported - used)
        assert not unused, f"{path.name} imports {unused} without using them"
