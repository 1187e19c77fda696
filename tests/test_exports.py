import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import groupdecay

MODULES = sorted(m.name for m in pkgutil.iter_modules(groupdecay.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"groupdecay.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("path", sorted(Path(groupdecay.__path__[0]).rglob("*.py")),
                         ids=lambda p: p.name)
def test_imports_only_the_standard_library_and_numpy(path):
    """numpy is the one runtime dependency (pyproject.toml)."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "groupdecay"}
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert sorted(imported - allowed) == []
