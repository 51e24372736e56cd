"""Every name that a veralg module lists in ``__all__`` resolves.

A name left in ``__all__`` after its definition moved or was deleted makes
``from veralg.<module> import *`` raise; this test finds it first.  The
last tests keep the rewrite rows of a truncation private to variety.py,
the exact values to one product by a constant and one pair of caches,
every text to one reader per kind, all on one tokenizer, the rational
rows of a build to ints inside the one row reducer, sigma(t) to one
computation per falsify job, products in an ideal to ``product_form``, and
the chain of each case to ``solve_cases``, which ``kernel_contains`` walks
without checking or rebuilding it.  The record classes are frozen, slotted
and compared, hashed and printed by their fields, and ``import veralg``
loads neither ``dataclasses`` nor ``json`` nor ``copy``; a loaded job is a
copy that shares nothing a caller can change with the pinned one.
"""

import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

import veralg
from veralg import cases, closure, scalars, variety, verbal
from veralg.freealg import Element, GeneratorSet, parse_element
from veralg.scalars import (
    FieldAutomorphism,
    FieldSpec,
    ParamContext,
    ParamPoly,
    Scalar,
    _Exact,
    parse_scalar,
)

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


def test_build_rows_are_ints(monkeypatch):
    # a build stores its rational rows as ints over one denominator each,
    # in the one RowReducer, which takes no arguments; Jordan's pivots of 2
    # would leave Fractions in rows divided by their pivots
    denominators = set()
    real = variety.RowReducer.insert

    def insert(self, row):
        out = real(self, row)
        for c, r in self._rows.items():
            # ints with no common factor, over a positive pivot entry
            assert all(type(v) is int for v in r.values()), r
            assert r[c] > 0 and gcd(*r.values()) == 1, r
            denominators.add(r[c])
        return out

    monkeypatch.setattr(variety, "_BUILD_MEMO", {})
    monkeypatch.setattr(variety.RowReducer, "insert", insert)
    variety.build_truncated(variety.builtin_variety("jordan"), GeneratorSet.default(2), 6)
    monkeypatch.undo()
    assert 2 in denominators
    assert not inspect.signature(variety.RowReducer).parameters


@pytest.mark.parametrize(
    "name,changes",
    (("aut_6", {}), ("aut_1_3_4", {"bound": 3})),
    ids=("aut_6", "tail-inside-the-bound"),
)
def test_a_falsify_job_computes_sigma_once(monkeypatch, name, changes):
    # gen_constraints computes sigma(t), and sigma(T) is spanned from it
    real = verbal.sigma_apply
    images = []

    def counted(*args):
        images.append(real(*args))
        return images[-1]

    for module in MODULES:
        mod = importlib.import_module(module)
        if getattr(mod, "sigma_apply", None) is real:
            monkeypatch.setattr(mod, "sigma_apply", counted)
    job = dict(cases.load_job(name), **changes)
    cert = cases.falsify_job(job)
    assert [cert.details["sigma_generator"]] == [e.encode() for e in images]


def test_one_product_path_in_an_ideal():
    # the ideal closure multiplies through product_form, and the names that
    # only the second product path used are gone
    assert not hasattr(closure, "sf_image")
    for cls, name in (
        (variety.TruncatedAlgebra, "multiply"),
        (variety.RowReducer, "equals"),
        (verbal.VerbalSystem, "product"),
        (Element, "truncate"),
    ):
        assert not hasattr(cls, name), (cls, name)
    assert list(inspect.signature(closure._admissible).parameters) == ["alg", "system"]


def _copied_pairs(node):
    """The tree with each pair a new tuple: equal pairs, no shared objects."""
    return closure.Branch(
        tuple((n, p) for n, p in node.step),
        node.assumed,
        node.residuals,
        node.status,
        node.note,
        tuple(_copied_pairs(c) for c in node.children),
    )


def _kernel_calls(monkeypatch, copied):
    """Calls made inside kernel_contains on aut_6, pairs copied or not."""
    calls = {"kernel": 0, "substitute": 0}
    inside = []
    real_kernel, real_substitute = closure.kernel_contains, ParamPoly.substitute

    def kernel(*args):
        calls["kernel"] += 1
        inside.append(True)
        try:
            return real_kernel(*args)
        finally:
            inside.pop()

    def substitute(p, mapping):
        calls["substitute"] += bool(inside)
        return real_substitute(p, mapping)

    for name in ("check_next_substitution", "substitute_in_order"):
        real = getattr(scalars, name)
        calls[name] = 0

        def counted(*args, name=name, real=real):
            calls[name] += bool(inside)
            return real(*args)

        for module in MODULES:
            mod = importlib.import_module(module)
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counted)
    if copied:
        real_solve = closure.solve_cases
        monkeypatch.setattr(
            closure, "solve_cases", lambda *a: _copied_pairs(real_solve(*a))
        )
    monkeypatch.setattr(closure, "kernel_contains", kernel)
    monkeypatch.setattr(ParamPoly, "substitute", substitute)
    cases.falsify_job(cases.load_job("aut_6"))
    monkeypatch.undo()
    return calls


def test_kernel_walks_the_case_tree(monkeypatch):
    # kernel_contains takes the case tree and trusts solve_cases with each
    # chain: it checks no pair's order and substitutes no chain again, and
    # it does the same work whether or not each step's pairs are the
    # objects solve_cases made, so it tells no pair by identity
    params = inspect.signature(closure.kernel_contains).parameters
    assert list(params) == ["alg", "ideal", "constraints", "tree", "el"]
    shared = _kernel_calls(monkeypatch, copied=False)
    assert shared["kernel"] == len(cases.load_job("aut_6")["candidates"])
    assert shared["substitute"] > 0
    assert shared["check_next_substitution"] == shared["substitute_in_order"] == 0
    assert _kernel_calls(monkeypatch, copied=True) == shared


# record class -> the fields it is built from, compared, hashed and printed by
RECORD_FIELDS = {
    "GeneratorSet": ("names",),
    "FieldSpec": ("names",),
    "FieldAutomorphism": ("field", "perm"),
    "ParamContext": ("field", "names"),
    "VerbalSystem": ("phi", "a", "b"),
    "Op2Report": (
        "variety", "phi", "a", "b", "bound", "form_ok", "identity_ok",
        "invertible", "identity_failures", "singular_multidegrees",
    ),
    "InnerReport": ("status", "witness", "obstruction", "equations"),
    "GenConstraints": ("alpha", "equations", "basis", "sigma_generator"),
    "Branch": ("step", "assumed", "residuals", "status", "note", "children"),
    "Certificate": ("kind", "verdict", "alg", "system", "op2", "details"),
}


def _records():
    """One record of each class, in the order of RECORD_FIELDS."""
    field = FieldSpec(("t1", "t2"))
    gens = GeneratorSet(("x1", "x2"))
    swap = FieldAutomorphism(field, (1, 0))
    system = verbal.VerbalSystem(swap, parse_scalar("t1", field), Scalar.one(field))
    alg = variety.build_truncated(variety.builtin_variety("alllinear"), gens, 2)
    t = parse_element("(x1 x2)", gens, field)
    cons = closure.gen_constraints(
        alg, closure.ideal_build(alg, field, (t,), 3), system
    )
    return [
        gens,
        field,
        swap,
        ParamContext(field, ("u", "v")),
        system,
        verbal.check_op2(alg.variety, system, gens, 2),
        verbal.InnerReport("inner", Scalar.one(field), None, ("mu^2 - mu",)),
        cons,
        closure.solve_cases(cons.equations, cons.ctx),
        cases.falsify_job(cases.load_job("s_1_3")),
    ]


def _outcome(compute):
    try:
        return compute()
    except TypeError:
        return TypeError


@pytest.mark.parametrize("record", _records(), ids=list(RECORD_FIELDS))
def test_record_contract(record):
    cls = type(record)
    fields = RECORD_FIELDS[cls.__name__]
    values = tuple(getattr(record, name) for name in fields)
    # frozen, with no attribute beyond its slots
    for name in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, fields[0])
    assert not hasattr(record, "__dict__")
    # built by position or by keyword alike
    by_position, by_keyword = cls(*values), cls(**dict(zip(fields, values)))
    assert by_position == by_keyword == record
    assert not by_position != record
    assert record != values
    # the hash is that of the tuple of the fields, or a TypeError with it
    expected = _outcome(lambda: hash(values))
    assert _outcome(lambda: hash(record)) == expected
    assert _outcome(lambda: hash(by_keyword)) == expected
    if cls is verbal.VerbalSystem:
        # a system prints its parts as text
        text = ", ".join(f"{k}={v}" for k, v in record.encode().items())
    else:
        text = ", ".join(f"{k}={v!r}" for k, v in zip(fields, values))
    assert repr(record) == f"{cls.__name__}({text})"


def test_records_of_different_classes_differ():
    names = ("x1", "x2")
    assert GeneratorSet(names) != FieldSpec(names)
    assert hash(GeneratorSet(names)) == hash(FieldSpec(names)) == hash((names,))


@pytest.mark.parametrize(
    "args,kwargs",
    (((("x1",), ("x2",)), {}), ((), {}), ((("x1",),), {"names": ("x2",)}),
     ((), {"names": ("x1",), "order": 1})),
    ids=("too-many", "missing", "twice", "unknown"),
)
def test_record_takes_each_field_once(args, kwargs):
    with pytest.raises(TypeError, match=r"GeneratorSet\(\) takes names, each once"):
        GeneratorSet(*args, **kwargs)


# the stdlib modules `import veralg` must not load: dataclasses with the
# chain it pulls in, json, and copy
HEAVY_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize", "json", "copy")


def _loaded_after(statement):
    """Which HEAVY_MODULES a fresh interpreter holds after the statement."""
    src = str(Path(veralg.__file__).parents[1])
    probe = (
        f"{statement}\n"
        "import sys\n"
        f"print(' '.join(m for m in {HEAVY_MODULES!r} if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout.split()


def test_import_loads_no_dataclasses_or_json():
    # the probe sees these modules once loaded, a bare interpreter loads
    # none of them, and neither does `import veralg`
    assert _loaded_after("import dataclasses, json") == list(HEAVY_MODULES)
    assert _loaded_after("pass") == []
    assert _loaded_after("import veralg") == []


def test_loaded_job_shares_nothing_mutable():
    for name in ("aut_1_3_4", "aut_6", "s_1_3"):
        pinned = cases.load_job(name)
        job = cases.load_job(name)
        job["system"]["a"] = "7"
        job["system"]["extra"] = "1"
        job["candidates" if "candidates" in job else "field"].append("(x1 x1)")
        assert cases.load_job(name) == pinned
        assert cases.load_job(name) != job
