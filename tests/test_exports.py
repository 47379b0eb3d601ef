"""Every exported name resolves: the package's `__all__` and each module's."""

import importlib
import pkgutil

import pytest

import hophase as hp

MODULES = sorted(m.name for m in pkgutil.iter_modules(hp.__path__))


def test_package_exports_resolve():
    missing = [name for name in hp.__all__ if not hasattr(hp, name)]
    assert missing == []
    assert len(set(hp.__all__)) == len(hp.__all__)


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"hophase.{module}")
    names = getattr(mod, "__all__", [])
    assert [name for name in names if not hasattr(mod, name)] == []
    assert len(set(names)) == len(names)
