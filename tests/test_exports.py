"""Every name that a veralg module lists in ``__all__`` resolves.

A name left in ``__all__`` after its definition moved or was deleted makes
``from veralg.<module> import *`` raise; this test finds it first.  The
last tests keep the rewrite rows of a truncation private to variety.py,
the exact values to one product by a constant and one pair of caches, and
every text to one reader per kind, all on one tokenizer.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import veralg
from veralg.freealg import Element
from veralg.scalars import ParamPoly, Scalar, _Exact

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


def test_one_product_by_a_constant_and_one_cache():
    # `*` is the only product by a constant, and _Exact caches hash and text
    for cls in (Scalar, ParamPoly, Element):
        assert not hasattr(cls, "scale") and not hasattr(cls, "scale_fraction"), cls
    for cls in (Scalar, ParamPoly):
        assert cls.__hash__ is _Exact.__hash__, cls
        assert cls.encode is _Exact.encode and "encode" not in vars(cls), cls


def test_one_reader_per_kind_on_one_tokenizer():
    # parse_scalar, parse_parampoly and parse_element are the only names of
    # their readers, and freealg reads its text from scalars._tokenize
    for cls in (Scalar, ParamPoly, Element):
        assert not hasattr(cls, "parse"), cls
    text = (Path(veralg.__file__).parent / "freealg.py").read_text(encoding="utf-8")
    assert "_tokenize(" in text
    for scanner in ("import re", "_NAME_RE", "isspace", "_split_top_terms"):
        assert scanner not in text, scanner
