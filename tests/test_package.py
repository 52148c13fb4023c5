import importlib
import pkgutil

import pytest

import slowfast

MODULES = [m.name for m in pkgutil.iter_modules(slowfast.__path__, "slowfast.")]


def test_package_imports():
    assert slowfast.__version__
    assert "slowfast.control" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
