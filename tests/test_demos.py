"""Every name a demo imports from tvglab exists (the demos are not run here)."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_present():
    assert DEMOS, "no demos found"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "tvglab"
                for alias in node.names]
    assert imported, f"{path.name} imports nothing from tvglab"
    for module, name in imported:
        holder = importlib.import_module(module)
        assert hasattr(holder, name), f"{path.name}: {module}.{name} does not exist"
