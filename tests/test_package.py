import ast
import importlib
import inspect
from pathlib import Path

import pytest

import passiflow
from passiflow import ode

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


@pytest.mark.parametrize("path", sorted(Path(passiflow.__file__).parent.glob("*.py")),
                         ids=lambda path: path.stem)
def test_only_ode_spells_rk4s_stability_bounds(path):
    # the rounded-down points of RK4's region, ode.RK4_REAL_BOUND and
    # ode.RK4_DISC_BOUND, as float literals
    tree = ast.parse(path.read_text())
    bounds = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Constant)
              and type(node.value) is float and node.value in (2.785, 2.6155)]
    if path.stem == "ode":
        assert len(bounds) == 2, "the scan no longer sees ode's own bounds"
    else:
        assert bounds == []


def _private_reads(tree: ast.Module) -> list[str]:
    """The ``_``-prefixed names, dunders aside, that a module reads from other
    ``passiflow`` modules: ``from .mod import _name``, and ``alias._name``
    where ``alias`` is bound by ``from . import mod [as alias]``."""
    aliases, reads = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level
                                                 or node.module.startswith("passiflow")):
            for name in node.names:
                if node.module in (None, "passiflow"):
                    aliases.add(name.asname or name.name)
                elif name.name.startswith("_"):
                    reads.append(f"{node.module}.{name.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            reads.append(f"{node.value.id}.{node.attr}")
    return reads


@pytest.mark.parametrize("path", sorted(Path(passiflow.__file__).parent.glob("*.py")),
                         ids=lambda path: path.stem)
def test_no_module_reads_another_modules_private_names(path):
    assert _private_reads(ast.parse(path.read_text())) == []


def test_the_private_name_scan_sees_both_forms():
    tree = ast.parse("from . import tline as t\nfrom .ode import _rk4_step\n"
                     "from passiflow import cli\n"
                     "t._step_guard\ncli._BLOCK\nt.__name__\nt.cfl_limit")
    assert sorted(_private_reads(tree)) == ["cli._BLOCK", "ode._rk4_step", "t._step_guard"]


INTEGRATE_PARAMS = list(inspect.signature(ode.integrate).parameters)


def _integrate_params_passed(tree: ast.Module) -> set[str]:
    """The parameters of ``ode.integrate`` that calls of ``integrate`` or
    ``<name>.integrate`` in ``tree`` pass: by keyword, or by position."""
    passed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "integrate":
                passed.update(INTEGRATE_PARAMS[:len(node.args)])
                passed.update(kw.arg for kw in node.keywords)
    return passed


def test_every_parameter_of_integrate_is_passed_in_src():
    # every run goes through integrate, so an option no call in src/ passes
    # serves only tests
    passed = set()
    for path in Path(passiflow.__file__).parent.glob("*.py"):
        passed |= _integrate_params_passed(ast.parse(path.read_text()))
    assert [name for name in INTEGRATE_PARAMS if name not in passed] == []


def test_the_integrate_parameter_scan_sees_both_forms():
    tree = ast.parse("integrate(f, y0, cfg, sink=print)\node.integrate(f, y0, floats=True)\n"
                     "solve(guards=g)\nintegrate.cache_clear()")
    assert _integrate_params_passed(tree) == {"rhs", "x0", "config", "sink", "floats"}
