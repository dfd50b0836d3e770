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


@pytest.mark.parametrize("module", [m for m in MODULES[1:] if m.__name__ != "qch.cli"],
                         ids=lambda m: m.__name__)
def test_the_package_exports_every_public_name_of_its_modules(module):
    # the command line's entry points stay in qch.cli
    assert [name for name in module.__all__ if name not in qch.__all__] == []
