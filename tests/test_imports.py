"""Module boundaries: a name with a leading underscore stays in its module."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "levellab"


def test_no_module_imports_a_private_name_from_another():
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("levellab"):
                continue
            private += [f"{path.name}: {node.module}.{alias.name}"
                        for alias in node.names if alias.name.startswith("_")]
    assert private == []
