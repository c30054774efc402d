"""The package's modules form layers: each imports only those below it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def loaded_by(module: str) -> set[str]:
    """The package's modules that importing ``module`` loads, in a fresh
    interpreter."""
    code = "import sys, %s; print(*(m for m in sys.modules if m.startswith('etenon.')))" % module
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return {name.split(".", 1)[1] for name in proc.stdout.split()}


def test_the_package_loads_no_module():
    assert loaded_by("etenon") == set()


@pytest.mark.parametrize("name", LAYERS)
def test_a_module_loads_no_module_above_it(name):
    above = {m for m in loaded_by("etenon." + name) if LAYERS.index(m) > LAYERS.index(name)}
    assert above == set()


def test_the_key_authority_uses_no_signing_module():
    """``mlabe`` issues decryption keys only, and a co-signer draws its
    signing key through ``musig`` itself, so ``mlabe`` uses no ``musig``."""
    assert "musig" not in package_imports(PACKAGE / "mlabe.py")
    assert "musig" not in loaded_by("etenon.mlabe")
