"""Every name a package exports resolves, so ``import *`` cannot fail."""

import importlib

import pytest


@pytest.mark.parametrize("package", ["sp4lab", "sp4lab.verifiers"])
def test_all_names_resolve(package):
    mod = importlib.import_module(package)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)
