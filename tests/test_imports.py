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


def test_only_forms_constructions_and_the_package_name_form():
    # every other module keeps generators as int64 rows, so deleting
    # ``Form`` touches only these three files
    naming = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.alias):
                names |= {node.name, node.asname}
            if "Form" in names:
                naming.add(path.name)
    assert naming <= {"forms.py", "constructions.py", "__init__.py"}
    assert "forms.py" in naming
