import importlib
import pkgutil

import pytest

import qch

# __main__ runs the command line on import, and exports nothing
MODULES = [qch] + [importlib.import_module(f"qch.{m.name}")
                   for m in pkgutil.iter_modules(qch.__path__) if not m.name.startswith("__")]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    assert len(set(module.__all__)) == len(module.__all__)
