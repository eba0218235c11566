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


def _writes(call: ast.Call) -> bool:
    """Whether ``call`` writes a file: ``open`` or ``.open`` with a mode that
    writes, appends, creates or updates (or one not spelled as a string), or a
    call of ``write_text``, ``write_bytes``, ``tofile`` or ``np.save*``."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes", "tofile"):
        return True
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        if func.value.id in ("np", "numpy") and name.startswith("save"):
            return True
    if name != "open":
        return False
    # open(path, mode) and io.open(path, mode); Path.open(mode)
    function = isinstance(func, ast.Name) or getattr(func.value, "id", None) == "io"
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"]
    modes += call.args[1 if function else 0:][:1]
    return any(not (isinstance(mode, ast.Constant) and isinstance(mode.value, str))
               or set(mode.value) & set("wax+") for mode in modes)


@pytest.mark.parametrize("path", sorted(Path(passiflow.__file__).parent.glob("*.py")),
                         ids=lambda path: path.stem)
def test_only_the_cli_writes_files(path):
    tree = ast.parse(path.read_text())
    writes = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Call) and _writes(node)]
    if path.stem == "cli":
        assert writes, "the scan no longer sees the cli's own writes"
    else:
        assert writes == []
