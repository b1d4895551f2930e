"""The package's public surface: ``__all__`` names what ``__init__`` binds."""

import ast
from pathlib import Path

import levellab

INIT = Path(__file__).resolve().parent.parent / "src" / "levellab" / "__init__.py"


def test_all_lists_exactly_the_public_names_bound_in_init():
    bound = set()
    for node in ast.parse(INIT.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    public = {name for name in bound if not name.startswith("_")}
    assert sorted(levellab.__all__) == sorted(public)
    assert len(set(levellab.__all__)) == len(levellab.__all__)
    for name in levellab.__all__:
        assert getattr(levellab, name) is not None, name
