import importlib
import pkgutil

import pytest

import saginpsc

EXPORTING = [module for module in [saginpsc] + [
    importlib.import_module(f"saginpsc.{info.name}")
    for info in pkgutil.iter_modules(saginpsc.__path__)]
    if hasattr(module, "__all__")]


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    # A name removed from a module must leave its __all__ too.
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
