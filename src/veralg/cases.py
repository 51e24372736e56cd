"""Pinned example runs with their recorded outcomes.

``EXAMPLES`` is one table: each entry is a frozen job description (the
same JSON shape accepted by ``veralg falsify --spec``) together with the
checks a correct build must pass, such as constraint systems, image
coefficients, verdicts and witnesses.  ``run_example`` runs one, or one of
the two report tables, and itemizes the comparisons, so the bundle doubles
as a regression suite for the whole pipeline.
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
from .scalars import FieldSpec, parse_parampoly
from .variety import build_truncated, builtin_variety
from .verbal import (
    VerbalSystem,
    check_op2,
    default_op2_bound,
    inner_witness,
    sigma_apply,
)

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

DET = "a11*a22 - a12*a21"

_VERDICT = "not_geometrically_equivalent"

# aut_6's image coefficients in candidate order, stored factored as displayed:
# each carries the determinant factor of the generic linear map
_LIE_IMAGE = [f"{factor}*({DET})" for factor in (
    "-t2*a11^2*a12",
    "t2*a11*(a11*a22 + 2*a12*a21)",
    "-t2*a21*(2*a11*a22 + a12*a21)",
    "-a11*(t2*a12*a21 - a11*a22 + a12*a21)",
    "a21*(-t2*a12*a21 - t2*a11*a22 + a11*a22 - a12*a21)",
    "t2*a21^2*a22",
)]

# name -> the pinned job (the JSON shape ``veralg falsify --spec`` reads) and
# its checks, in report order: {check name: the value a correct build gives}.
# An equation-ideal job's checks are among dims, equations, verdict,
# witness, stuck_count and image; a smallest-closed job's among verdict,
# sigma_word, span_rank and witness.  The polynomial wants (equations,
# image) are texts over the job's unknowns, compared in normal form.
EXAMPLES = {
    "aut_1_3_4": {
        "job": {
            "kind": "equation-ideal",
            "field": list(DEFAULT_FIELD),
            "variety": "alllinear", "gens": 2, "bound": 2,
            "system": {"phi": "swap", "a": "1", "b": "0"},
            "generator": "t1 * (x1 x2) + (x2 x1)",
            "tail": 3,
            "candidates": ["(x1 x2)", "(x2 x1)"],
            "hints": [],
        },
        "checks": {
            "equations": [
                "(t2 + 1)*a11*a12",
                "t2*a11*a22 + a12*a21 - t1*rho",
                "a11*a22 + t2*a12*a21 - rho",
                "(t2 + 1)*a21*a22",
            ],
            "verdict": _VERDICT,
            "witness": "(x1 x2)",
            "stuck_count": 0,
        },
    },
    "aut_2_5": {
        "job": {
            "kind": "equation-ideal",
            "field": list(DEFAULT_FIELD),
            "variety": "commutative", "gens": 2, "bound": 3,
            "system": {"phi": "swap", "a": "1", "b": "0"},
            "generator": "t1 * (x1 (x1 x2)) + (x2 (x1 x1))",
            "tail": 4,
            "candidates": ["(x1 (x1 x2))", "(x1 (x2 x2))",
                           "(x2 (x1 x1))", "(x2 (x1 x2))"],
            "hints": [],
        },
        "checks": {
            "equations": [
                "(t2 + 1)*a11^2*a12",
                "t2*a11^2*a22 + (t2 + 2)*a11*a12*a21 - t1*rho",
                "t2*a11*a21*a22 + a12*a21^2",
                "a11^2*a22 + t2*a11*a12*a21 - rho",
                "(t2 + 2)*a11*a21*a22 + t2*a12*a21^2",
                "(t2 + 1)*a21^2*a22",
            ],
            "verdict": _VERDICT,
            "witness": "(x1 (x1 x2))",
            "stuck_count": 0,
        },
    },
    "aut_6": {
        "job": {
            "kind": "equation-ideal",
            "field": list(DEFAULT_FIELD),
            "variety": "lie", "gens": 2, "bound": 5,
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
        "checks": {
            "dims": [2, 1, 2, 3, 6],
            # the constraint rows follow the basis order of degree 5, which
            # differs from the candidate order; rho enters where the
            # generator lives
            "equations": [
                f"rho - ({_LIE_IMAGE[3]})",
                f"-({_LIE_IMAGE[4]})",
                _LIE_IMAGE[0],
                f"t1*rho - ({_LIE_IMAGE[1]})",
                _LIE_IMAGE[2],
                f"-({_LIE_IMAGE[5]})",
            ],
            "verdict": _VERDICT,
            "witness": "(x1 (x1 (x1 (x1 x2))))",
            "stuck_count": 0,
            "image": _LIE_IMAGE,
        },
    },
    "s_1_3": {
        "job": {
            "kind": "smallest-closed",
            "field": list(DEFAULT_FIELD),
            "variety": "alllinear", "gens": 2, "bound": 3,
            "system": {"phi": "id", "a": "2", "b": "1"},
            "word": "((x1 x1) x2)",
        },
        "checks": {
            "verdict": _VERDICT,
            "sigma_word": "3 * (x2 (x1 x1)) + 6 * ((x1 x1) x2)",
            "span_rank": 6,
            "witness": "3 * (x2 (x1 x1)) + 6 * ((x1 x1) x2)",
        },
    },
    "s_4": {
        "job": {
            "kind": "smallest-closed",
            "field": list(DEFAULT_FIELD),
            "variety": "alternative", "gens": 2, "bound": 3,
            "system": {"phi": "id", "a": "0", "b": "1"},
            "word": "(x1 (x2 x2))",
        },
        "checks": {
            "verdict": _VERDICT,
            "sigma_word": "(x2 (x2 x1))",
            "span_rank": 6,
            "witness": "(x2 (x2 x1))",
        },
    },
}

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
    if name not in EXAMPLES:
        raise KeyError(f"no pinned job named {name!r}")
    job = dict(EXAMPLES[name]["job"])
    for key, value in job.items():
        if isinstance(value, (list, dict)):
            job[key] = value.copy()
    return job


def example_bound(name: str) -> int:
    """The largest truncation bound the named example builds."""
    if name in _REPORTS:
        return _REPORTS[name][1]()
    return int(load_job(name)["bound"])


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
    constraints with the auxiliary unknown rho, over which each hint is read,
    so that a hint ``falsify`` refuses is refused here too.  For a
    smallest-closed job the expansion reports the transformed word; a word
    that is 0 in the truncation is refused with PreconditionError, as
    ``falsify`` refuses it.
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
    for hint in job.get("hints", ()):
        parse_parampoly(hint, cons.ctx)
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


def _run_job(name: str):
    """The checks of a pinned job, and its certificate.

    "got" is read from the certificate: its details and its verdict, with
    the dimensions of its truncation and the image coefficients of
    ``expand_job`` added only for an entry that checks them."""
    job = load_job(name)
    wants = EXAMPLES[name]["checks"]
    cert = falsify_job(job)
    got = {**cert.details, "verdict": cert.verdict}
    if "dims" in wants:
        got["dims"] = [cert.alg.dims()[d] for d in range(1, cert.alg.bound + 1)]
    if "image" in wants:
        got["image"] = [entry["coefficient"] for entry in expand_job(job)["image"]]
    # the unknowns of the job's constraints; no table is built
    ctx = SymbolicEndomorphism(cert.alg, cert.system.field, extra=("rho",)).ctx
    checks = []
    for key, want in wants.items():
        if key in ("equations", "image"):
            want = [parse_parampoly(text, ctx).encode() for text in want]
        checks.append(_check(key, got[key], want))
    return checks, {"certificate": cert.as_dict()}


def _run_op2_table():
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
    return checks, {"rows": rows}


def _run_inner_table():
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
    return checks, {"rows": rows}


# the report tables: name -> (its runner, the largest bound it builds)
_REPORTS = {
    "op2_table": (_run_op2_table, lambda: max(
        default_op2_bound(builtin_variety(v)) for v, _ in GROUP_TABLE
    )),
    "inner_table": (_run_inner_table, lambda: INNER_BOUND),
}

EXAMPLE_IDS = (*EXAMPLES, *_REPORTS)


def run_example(name: str) -> dict:
    """Run one pinned example and compare against its recorded outcome."""
    if name in _REPORTS:
        checks, outcome = _REPORTS[name][0]()
    elif name in EXAMPLES:
        checks, outcome = _run_job(name)
    else:
        raise KeyError(f"no example named {name!r}")
    ok = all(c["ok"] for c in checks)
    return {"example": name, "ok": ok, "checks": checks, **outcome}


def run_all() -> dict:
    reports = [run_example(name) for name in EXAMPLE_IDS]
    return {"ok": all(r["ok"] for r in reports), "examples": reports}
