"""Every name that a veralg module lists in ``__all__`` resolves.

A name left in ``__all__`` after its definition moved or was deleted makes
``from veralg.<module> import *`` raise; this test finds it first.  The
last test keeps the rewrite rows of a truncation private to variety.py.
"""

import importlib
import pkgutil
import re
from pathlib import Path

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


def test_only_variety_reads_rewrite_rows():
    # the rewrite rows of a truncation are read through
    # TruncatedAlgebra.word_form and product_form, so a change to them
    # stays inside variety.py
    src = Path(veralg.__file__).parent
    offenders = [
        path.name
        for path in sorted(src.glob("*.py"))
        if path.name != "variety.py"
        and re.search(r"\.rewrite\b|_add_product", path.read_text(encoding="utf-8"))
    ]
    assert not offenders, offenders
