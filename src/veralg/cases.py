"""Pinned example runs with their recorded outcomes.

Every example is a frozen job description (the same JSON shape accepted by
``veralg falsify --spec``) together with the values a correct build must
reproduce: constraint systems, image coefficients, verdicts, witnesses.
``run_example`` executes one and itemizes the comparisons, so the bundle
doubles as a regression suite for the whole pipeline.
"""

from __future__ import annotations

from .closure import (
    _nonzero_word,
    falsify_equation_ideal,
    falsify_smallest_closed,
    gen_constraints,
    ideal_build,
)
from .freealg import (
    GeneratorSet,
    SymbolicEndomorphism,
    parse_element,
    parse_monomial,
)
from .scalars import FieldSpec, ParamPoly, parse_parampoly
from .variety import build_truncated, builtin_variety
from .verbal import VerbalSystem, check_op2, inner_witness, sigma_apply

__all__ = [
    "EXAMPLE_IDS",
    "example_bound",
    "expand_job",
    "falsify_job",
    "load_job",
    "run_all",
    "run_example",
]

DEFAULT_FIELD = ("t1", "t2")

EXAMPLE_IDS = (
    "aut_1_3_4",
    "aut_2_5",
    "aut_6",
    "s_1_3",
    "s_4",
    "op2_table",
    "inner_table",
)

DET = "a11*a22 - a12*a21"

_JOBS = {
    "aut_1_3_4": {
        "kind": "equation-ideal",
        "field": list(DEFAULT_FIELD),
        "variety": "alllinear",
        "gens": 2,
        "bound": 2,
        "system": {"phi": "swap", "a": "1", "b": "0"},
        "generator": "t1 * (x1 x2) + (x2 x1)",
        "tail": 3,
        "candidates": ["(x1 x2)", "(x2 x1)"],
        "hints": [],
    },
    "aut_2_5": {
        "kind": "equation-ideal",
        "field": list(DEFAULT_FIELD),
        "variety": "commutative",
        "gens": 2,
        "bound": 3,
        "system": {"phi": "swap", "a": "1", "b": "0"},
        "generator": "t1 * (x1 (x1 x2)) + (x2 (x1 x1))",
        "tail": 4,
        "candidates": [
            "(x1 (x1 x2))",
            "(x1 (x2 x2))",
            "(x2 (x1 x1))",
            "(x2 (x1 x2))",
        ],
        "hints": [],
    },
    "aut_6": {
        "kind": "equation-ideal",
        "field": list(DEFAULT_FIELD),
        "variety": "lie",
        "gens": 2,
        "bound": 5,
        "system": {"phi": "swap", "a": "1", "b": "0"},
        "generator": "t1 * (x1 (x1 ((x1 x2) x2))) + ((x1 (x1 x2)) (x1 x2))",
        "tail": 6,
        "candidates": [
            "(x1 (x1 (x1 (x1 x2))))",
            "(x1 (x1 ((x1 x2) x2)))",
            "(x1 (((x1 x2) x2) x2))",
            "((x1 (x1 x2)) (x1 x2))",
            "((x1 x2) ((x1 x2) x2))",
            "((((x1 x2) x2) x2) x2)",
        ],
        "hints": [DET],
    },
    "s_1_3": {
        "kind": "smallest-closed",
        "field": list(DEFAULT_FIELD),
        "variety": "alllinear",
        "gens": 2,
        "bound": 3,
        "system": {"phi": "id", "a": "2", "b": "1"},
        "word": "((x1 x1) x2)",
    },
    "s_4": {
        "kind": "smallest-closed",
        "field": list(DEFAULT_FIELD),
        "variety": "alternative",
        "gens": 2,
        "bound": 3,
        "system": {"phi": "id", "a": "0", "b": "1"},
        "word": "(x1 (x2 x2))",
    },
}

_EXPECTED_EQUATIONS = {
    "aut_1_3_4": [
        "(t2 + 1)*a11*a12",
        "t2*a11*a22 + a12*a21 - t1*rho",
        "a11*a22 + t2*a12*a21 - rho",
        "(t2 + 1)*a21*a22",
    ],
    "aut_2_5": [
        "(t2 + 1)*a11^2*a12",
        "t2*a11^2*a22 + (t2 + 2)*a11*a12*a21 - t1*rho",
        "t2*a11*a21*a22 + a12*a21^2",
        "a11^2*a22 + t2*a11*a12*a21 - rho",
        "(t2 + 2)*a11*a21*a22 + t2*a12*a21^2",
        "(t2 + 1)*a21^2*a22",
    ],
}

_EXPECTED_VERDICT = "not_geometrically_equivalent"

_EXPECTED_WITNESS = {
    "aut_1_3_4": "(x1 x2)",
    "aut_2_5": "(x1 (x1 x2))",
    "aut_6": "(x1 (x1 (x1 (x1 x2))))",
}

_EXPECTED_DIMS = {"aut_6": [2, 1, 2, 3, 6]}

_EXPECTED_SIGMA_WORD = {
    "s_1_3": "3 * (x2 (x1 x1)) + 6 * ((x1 x1) x2)",
    "s_4": "(x2 (x2 x1))",
}

_EXPECTED_SPAN_RANK = {"s_1_3": 6, "s_4": 6}


def _lie_image_coefficients(ctx):
    """The six image coefficients of the degree-5 run, in candidate order.

    Each one carries the common determinant factor of the generic linear
    map; they are stored factored, as displayed."""
    parse = lambda s: parse_parampoly(s, ctx)
    det = parse(DET)
    return [
        parse("-t2*a11^2*a12") * det,
        parse("t2*a11") * det * parse("a11*a22 + 2*a12*a21"),
        parse("-t2*a21") * det * parse("2*a11*a22 + a12*a21"),
        parse("-a11") * det * parse("t2*a12*a21 - a11*a22 + a12*a21"),
        parse("a21") * det * parse("-t2*a12*a21 - t2*a11*a22 + a11*a22 - a12*a21"),
        parse("t2*a21^2*a22") * det,
    ]


def _expected_equations(name, ctx):
    if name in _EXPECTED_EQUATIONS:
        return [parse_parampoly(s, ctx) for s in _EXPECTED_EQUATIONS[name]]
    if name == "aut_6":
        alpha = _lie_image_coefficients(ctx)
        rho = parse_parampoly("rho", ctx)
        t1rho = parse_parampoly("t1", ctx) * rho
        zero = ParamPoly.zero(ctx)
        # constraint rows follow the basis order of degree 5, which differs
        # from the candidate order; rho enters where the generator lives
        return [
            zero - alpha[3] + rho,
            zero - alpha[4],
            alpha[0],
            zero - alpha[1] + t1rho,
            alpha[2],
            zero - alpha[5],
        ]
    raise KeyError(name)


# Recorded admissibility pattern per variety over a fixed (a, b) grid.
# Where x2 x1 folds onto x1 x2 only the representative (a, 0) is admitted.
OP2_GRID = ((1, 0), (2, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (-1, 1))

GROUP_TABLE = (
    ("alllinear", "k* ⋉ Aut k"),
    ("commutative", "Aut k"),
    ("powerassociative", "k* ⋉ Aut k"),
    ("alternative", "S₂ × Aut k"),
    ("jordan", "Aut k"),
    ("lie", "Aut k"),
    ("anticommutative", "Aut k"),
)


def _expected_op2(name, a, b):
    if name in ("alllinear", "powerassociative"):
        return a != b and a != -b
    if name == "alternative":
        return (a == 0) != (b == 0)
    return b == 0 and a != 0


INNER_TABLE = (
    {"variety": "alllinear", "phi": "id", "a": "1", "b": "0",
     "status": "inner", "witness": "1"},
    {"variety": "alllinear", "phi": "id", "a": "2", "b": "0",
     "status": "inner", "witness": "1/2"},
    {"variety": "alllinear", "phi": "id", "a": "t1", "b": "0",
     "status": "inner", "witness": "1/t1"},
    {"variety": "alllinear", "phi": "swap", "a": "1", "b": "0",
     "status": "refuted", "witness": None},
    {"variety": "alllinear", "phi": "id", "a": "2", "b": "1",
     "status": "refuted", "witness": None},
    {"variety": "alternative", "phi": "id", "a": "0", "b": "1",
     "status": "refuted", "witness": None},
)

INNER_BOUND = 3


def load_job(name: str) -> dict:
    """A copy of the pinned job description for a falsification run.

    A job's values are strs, ints, lists of strs and the ``system`` dict of
    strs, so copying each list and dict shares nothing a caller can change.
    """
    if name not in _JOBS:
        raise KeyError(f"no pinned job named {name!r}")
    job = dict(_JOBS[name])
    for key, value in job.items():
        if isinstance(value, (list, dict)):
            job[key] = value.copy()
    return job


def example_bound(name: str) -> int:
    """The largest truncation bound the named example builds."""
    if name == "op2_table":
        return 4  # largest default admissibility bound over the varieties
    if name == "inner_table":
        return INNER_BOUND
    if name not in _JOBS:
        raise KeyError(f"no pinned example named {name!r}")
    return int(_JOBS[name]["bound"])


def job_context(job: dict):
    field = FieldSpec(tuple(job["field"]))
    gens = GeneratorSet.default(int(job["gens"]))
    alg = build_truncated(builtin_variety(job["variety"]), gens, int(job["bound"]))
    sysd = job["system"]
    system = VerbalSystem.parse(field, sysd["phi"], sysd["a"], sysd["b"])
    return alg, field, gens, system


def expand_job(job: dict) -> dict:
    """Symbolic expansion of a job: constraint rows and image coefficients.

    For an equation-ideal job the image coefficients are those of the
    generic linear map applied to the transformed generator, expressed in
    the candidate directions, combined from the rational tables that
    ``gen_constraints`` built; the equations are the proportionality
    constraints with the auxiliary unknown rho.  For a smallest-closed job
    the expansion reports the transformed word; a word that is 0 in the
    truncation is refused with PreconditionError, as ``falsify`` refuses it.
    """
    alg, field, gens, system = job_context(job)
    if job["kind"] == "smallest-closed":
        word = parse_monomial(job["word"], gens)
        sw = sigma_apply(alg, system, _nonzero_word(alg, field, word))
        return {
            "kind": job["kind"],
            "word": job["word"],
            "sigma_word": sw.encode(),
        }
    t = parse_element(job["generator"], gens, field)
    ideal = ideal_build(alg, field, (t,), int(job["tail"]))
    cons = gen_constraints(alg, ideal, system)
    applied = cons.alpha.apply(cons.sigma_generator)
    image = []
    for text in job.get("candidates", ()):
        target = alg.normal_form(parse_element(text, gens, field))
        if len(target.terms) != 1:
            raise ValueError(
                f"candidate {text!r} has the normal form {target.encode()}:"
                " an image coefficient needs one basis monomial"
            )
        [(b, c)] = target.terms.items()
        image.append({
            "target": text,
            "coefficient": (applied.coefficient(b) * c.inverse()).encode(),
        })
    return {
        "kind": job["kind"],
        "sigma_generator": cons.sigma_generator.encode(),
        "basis": [m.encode() for m in cons.basis],
        "equations": [p.encode() for p in cons.equations],
        "image": image,
    }


def falsify_job(job: dict):
    """Run the falsifier a job describes and return its certificate."""
    alg, field, gens, system = job_context(job)
    if job["kind"] == "smallest-closed":
        return falsify_smallest_closed(
            alg, system, parse_monomial(job["word"], gens)
        )
    t = parse_element(job["generator"], gens, field)
    candidates = [parse_element(s, gens, field) for s in job.get("candidates", ())]
    return falsify_equation_ideal(
        alg, system, t, int(job["tail"]), candidates,
        hints=tuple(job.get("hints", ())),
    )


def _check(name, got, want):
    return {"name": name, "ok": got == want, "got": got, "want": want}


def _run_equation_ideal(name: str) -> dict:
    job = load_job(name)
    cert = falsify_job(job)
    alg = cert.alg
    # the unknowns of the job's constraints; no table is built
    ctx = SymbolicEndomorphism(alg, cert.system.field, extra=("rho",)).ctx

    checks = []
    if name in _EXPECTED_DIMS:
        dims = [alg.dims()[d] for d in range(1, alg.bound + 1)]
        checks.append(_check("dims", dims, _EXPECTED_DIMS[name]))
    expected_eqs = _expected_equations(name, ctx)
    checks.append(_check(
        "equations",
        cert.details["equations"],
        [p.encode() for p in expected_eqs],
    ))
    checks.append(_check("verdict", cert.verdict, _EXPECTED_VERDICT))
    checks.append(_check("witness", cert.details["witness"], _EXPECTED_WITNESS[name]))
    checks.append(_check("stuck_count", cert.details["stuck_count"], 0))
    if name == "aut_6":
        expansion = expand_job(job)
        want = [p.encode() for p in _lie_image_coefficients(ctx)]
        got = [entry["coefficient"] for entry in expansion["image"]]
        checks.append(_check("image", got, want))
    return {
        "example": name,
        "ok": all(c["ok"] for c in checks),
        "checks": checks,
        "certificate": cert.as_dict(),
    }


def _run_smallest_closed(name: str) -> dict:
    cert = falsify_job(load_job(name))
    checks = [
        _check("verdict", cert.verdict, _EXPECTED_VERDICT),
        _check("sigma_word", cert.details["sigma_word"], _EXPECTED_SIGMA_WORD[name]),
        _check("span_rank", cert.details["span_rank"], _EXPECTED_SPAN_RANK[name]),
        _check("witness", cert.details["witness"], _EXPECTED_SIGMA_WORD[name]),
    ]
    return {
        "example": name,
        "ok": all(c["ok"] for c in checks),
        "checks": checks,
        "certificate": cert.as_dict(),
    }


def _run_op2_table() -> dict:
    field = FieldSpec(DEFAULT_FIELD)
    gens = GeneratorSet.default(2)
    rows = []
    checks = []
    for name, group in GROUP_TABLE:
        variety = builtin_variety(name)
        cells = []
        for a, b in OP2_GRID:
            system = VerbalSystem.parse(field, "id", str(a), str(b))
            report = check_op2(variety, system, gens)
            cells.append({
                "a": a,
                "b": b,
                "form_ok": report.form_ok,
                "identity_ok": report.identity_ok,
                "invertible": report.invertible,
                "admissible": report.admissible,
            })
            checks.append(_check(
                f"{name} ({a},{b})", report.admissible, _expected_op2(name, a, b)
            ))
        rows.append({"variety": variety.name, "group": group, "cells": cells})
    return {
        "example": "op2_table",
        "ok": all(c["ok"] for c in checks),
        "checks": checks,
        "rows": rows,
    }


def _run_inner_table() -> dict:
    field = FieldSpec(DEFAULT_FIELD)
    gens = GeneratorSet.default(2)
    rows = []
    checks = []
    for spec in INNER_TABLE:
        alg = build_truncated(builtin_variety(spec["variety"]), gens, INNER_BOUND)
        system = VerbalSystem.parse(field, spec["phi"], spec["a"], spec["b"])
        report = inner_witness(alg, system)
        witness = None if report.witness is None else report.witness.encode()
        rows.append({
            "variety": spec["variety"],
            "phi": spec["phi"],
            "a": spec["a"],
            "b": spec["b"],
            "status": report.status,
            "witness": witness,
            "obstruction": report.obstruction,
        })
        label = f"{spec['variety']} ({spec['phi']},{spec['a']},{spec['b']})"
        checks.append(_check(
            label, [report.status, witness], [spec["status"], spec["witness"]]
        ))
    return {
        "example": "inner_table",
        "ok": all(c["ok"] for c in checks),
        "checks": checks,
        "rows": rows,
    }


def run_example(name: str) -> dict:
    """Run one pinned example and compare against its recorded outcome."""
    if name == "op2_table":
        return _run_op2_table()
    if name == "inner_table":
        return _run_inner_table()
    if name not in _JOBS:
        raise KeyError(f"no example named {name!r}")
    if _JOBS[name]["kind"] == "equation-ideal":
        return _run_equation_ideal(name)
    return _run_smallest_closed(name)


def run_all() -> dict:
    reports = [run_example(name) for name in EXAMPLE_IDS]
    return {"ok": all(r["ok"] for r in reports), "examples": reports}
