import importlib

import pytest

import passiflow


@pytest.mark.parametrize("module", ["passiflow", *(f"passiflow.{m}" for m in passiflow.__all__),
                                    "passiflow.cli"])
def test_every_exported_name_exists(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
