"""The package's modules form layers: each imports only those below it."""

import ast
from pathlib import Path

# bottom to top
LAYERS = [
    "errors", "codec", "_bn256", "algebra", "policy", "musig", "mlabe", "tenon", "tdb",
    "workflow", "cli",
]

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "etenon"


def package_imports(path: Path) -> set[str]:
    """The sibling modules a module imports, at any depth of its code; the
    package names its own modules only by relative import."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


def test_each_module_imports_only_modules_below_it():
    upward = {
        name: sorted(m for m in package_imports(PACKAGE / (name + ".py"))
                     if LAYERS.index(m) >= LAYERS.index(name))
        for name in LAYERS
    }
    assert upward == {name: [] for name in LAYERS}
