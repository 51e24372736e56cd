"""Every name that a veralg module lists in ``__all__`` resolves.

A name left in ``__all__`` after its definition moved or was deleted makes
``from veralg.<module> import *`` raise; this test finds it first.
"""

import importlib
import pkgutil

import pytest

import veralg

# __main__ runs the command line when imported
MODULES = ["veralg"] + [
    f"veralg.{info.name}"
    for info in pkgutil.iter_modules(veralg.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, (name, missing)
