import ast
import importlib
from pathlib import Path

import pytest

import passiflow

MODULES = ["passiflow", *(f"passiflow.{m}" for m in passiflow.__all__), "passiflow.cli"]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_exists(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


@pytest.mark.parametrize("module", MODULES)
def test_every_public_def_and_class_is_exported(module):
    mod = importlib.import_module(module)
    tree = ast.parse(Path(mod.__file__).read_text())
    public = [node.name for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]
    assert [name for name in public if name not in mod.__all__] == []
