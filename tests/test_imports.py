"""Module boundaries: a name with a leading underscore stays in its module."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "levellab"


def files_naming(directory: Path, name: str) -> set[str]:
    """Names of the .py files in ``directory`` that use, bind or import
    ``name``."""
    naming = set()
    for path in sorted(directory.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.alias):
                names |= {node.name, node.asname}
            if name in names:
                naming.add(path.name)
    return naming


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
    naming = files_naming(PACKAGE, "Form")
    assert naming <= {"forms.py", "constructions.py", "__init__.py"}
    assert "forms.py" in naming


def test_only_three_test_files_name_form():
    # the other tests hold forms as coefficient rows, so deleting ``Form``
    # touches only these test files
    naming = files_naming(TESTS, "Form")
    assert naming <= {"test_forms.py", "test_constructions.py", "test_benchmark_tracer.py"}


def test_four_test_files_name_random_form():
    # ``random_form`` draws its rows as a ``Form``, so deleting ``Form``
    # reaches these test files too (``random_forms`` in monomials.py draws
    # plain rows)
    assert files_naming(TESTS, "random_form") == {
        "monomials.py", "test_forms.py", "test_constructions.py", "test_modules.py"}


def test_only_forms_defines_the_raising_table():
    # the tower's partials and the products of forms read one table, so
    # neither can drift onto a copy of its own
    defining = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                names = {node.name}
            elif isinstance(node, ast.Assign):  # a module could bind a copy
                names = {getattr(target, "id", "") for target in node.targets}
            else:
                continue
            if any("raising_table" in name for name in names):
                defining.add(path.name)
    assert defining == {"forms.py"}
    spans = ast.parse((PACKAGE / "spans.py").read_text(encoding="utf-8"))
    assert any(isinstance(node, ast.ImportFrom) and node.module == "levellab.forms"
               and "raising_table" in {alias.name for alias in node.names}
               for node in ast.walk(spans))
