"""Command line front end.

Subcommands: basis (dimensions and monomials of a truncated algebra),
expand (symbolic constraint systems and image coefficients for a job),
op2 (admissibility of an operation change), inner (inner-witness search),
falsify (run a falsifier from a job file or pinned example), and repro
(run pinned examples against their recorded outcomes).

Exit codes: 0 when the requested computation reached a verdict, 1 when it
was inconclusive or a reproduction mismatched, 2 on usage errors and bad
input (such as a division by zero in an expression), and 3 on an internal
error, whose traceback goes to stderr.  The environment variable VF_MAX_DEG
caps every accepted degree bound (default 8), and a generator count is
refused, before anything is built, when it gives more free monomials up to
the bound than 2 generators give up to the cap.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback

from . import cases
from .freealg import GeneratorSet
from .scalars import FieldSpec, ZeroInversion
from .variety import build_truncated, builtin_variety, builtin_variety_names
from .verbal import VerbalSystem, check_op2, default_op2_bound, inner_witness

DEFAULT_DEGREE_CAP = 8

# the keys every job needs
JOB_COMMON = ("kind", "field", "variety", "gens", "bound", "system")
# job kind -> (the keys it needs beyond the common ones, the keys it may have)
JOB_KINDS = {
    "equation-ideal": (("generator", "tail"), ("candidates", "hints")),
    "smallest-closed": (("word",), ()),
}

_STRING = (lambda v: isinstance(v, str), "a string")
_INTEGER = (lambda v: type(v) is int, "an integer")
_STRINGS = (
    lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
    "a list of strings",
)
_SYSTEM = (
    lambda v: isinstance(v, dict)
    and all(isinstance(v.get(k), str) for k in ("phi", "a", "b")),
    "an object whose 'phi', 'a' and 'b' are strings",
)
# job key -> (test of its value, what the value must be)
JOB_FIELDS = {
    **dict.fromkeys(("kind", "variety", "generator", "word"), _STRING),
    **dict.fromkeys(("gens", "bound", "tail"), _INTEGER),
    **dict.fromkeys(("field", "candidates", "hints"), _STRINGS),
    "system": _SYSTEM,
}


class UsageError(Exception):
    pass


def _degree_cap() -> int:
    raw = os.environ.get("VF_MAX_DEG")
    if raw is None:
        return DEFAULT_DEGREE_CAP
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"VF_MAX_DEG must be an integer, got {raw!r}")


def _capped(value: int, what: str) -> int:
    cap = _degree_cap()
    if value < 1:
        raise UsageError(f"{what} must be at least 1")
    if value > cap:
        raise UsageError(
            f"{what} {value} exceeds the degree cap {cap}"
            " (set VF_MAX_DEG to raise it)"
        )
    return value


def _monomial_count(gens: int, bound: int) -> int:
    """Free-magma monomials on `gens` generators of degree 1 to `bound`."""
    return sum(gens**d * math.comb(2 * d - 2, d - 1) // d for d in range(1, bound + 1))


def _generators(count: int, what: str, bound: int) -> GeneratorSet:
    if count < 1:
        raise UsageError(f"{what} must be at least 1")
    cap = _degree_cap()
    if _monomial_count(count, bound) > _monomial_count(2, cap):
        raise UsageError(
            f"{what} {count} at degree bound {bound} gives more free monomials"
            f" than 2 generators at the degree cap {cap}"
            " (set VF_MAX_DEG to raise it)"
        )
    return GeneratorSet.default(count)


def _field(args) -> FieldSpec:
    names = tuple(n for n in args.field.split(",") if n)
    return FieldSpec(names)


def _system(args, field: FieldSpec) -> VerbalSystem:
    return VerbalSystem.parse(field, args.phi, args.a, args.b)


def _load_job(args) -> dict:
    if args.example is not None:
        job = cases.load_job(args.example)
    else:
        with open(args.spec, "r", encoding="utf-8") as handle:
            try:
                job = json.load(handle)
            except RecursionError:
                raise UsageError("the job file nests too deep to read") from None
    if not isinstance(job, dict):
        raise UsageError("a job must be a JSON object")
    unknown = [key for key in job if key not in JOB_FIELDS]
    if unknown:
        raise UsageError(
            f"unknown job field {', '.join(map(repr, unknown))};"
            f" a job's fields are {', '.join(JOB_FIELDS)}"
        )
    for key in JOB_COMMON:
        if key not in job:
            raise UsageError(f"job is missing the {key!r} field")
    for key, (ok, want) in JOB_FIELDS.items():
        if key in job and not ok(job[key]):
            raise UsageError(
                f"job field {key!r} must be {want}, got {json.dumps(job[key])}"
            )
    kind = job["kind"]
    if kind not in JOB_KINDS:
        raise UsageError(
            f"unknown job kind {kind!r}; choose from {', '.join(JOB_KINDS)}"
        )
    required, optional = JOB_KINDS[kind]
    allowed = JOB_COMMON + required + optional
    foreign = [key for key in job if key not in allowed]
    if foreign:
        raise UsageError(
            f"a {kind} job has no field {', '.join(map(repr, foreign))};"
            f" its fields are {', '.join(allowed)}"
        )
    for key in required:
        if key not in job:
            raise UsageError(f"{kind} job is missing the {key!r} field")
    _generators(job["gens"], "gens", _capped(job["bound"], "bound"))
    return job


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def cmd_basis(args) -> int:
    bound = _capped(args.max_deg, "--max-deg")
    gens = _generators(args.gens, "--gens", bound)
    alg = build_truncated(builtin_variety(args.variety), gens, bound)
    dims = alg.dims()
    listing = {
        d: [m.encode() for m in alg.basis_of_degree(d)]
        for d in range(1, bound + 1)
    }
    payload = {
        "variety": alg.variety.name,
        "gens": list(gens.names),
        "max_deg": bound,
        "dims": [dims.get(d, 0) for d in range(1, bound + 1)],
        "basis": {str(d): ms for d, ms in listing.items()},
    }
    lines = [f"variety {alg.variety.name}, generators {', '.join(gens.names)}"]
    for d in range(1, bound + 1):
        lines.append(f"degree {d}: dim {dims.get(d, 0)}")
        for m in listing[d]:
            lines.append(f"  {m}")
    lines.append(f"total dimension {sum(dims.values())}")
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_op2(args) -> int:
    field = _field(args)
    system = _system(args, field)
    variety = builtin_variety(args.variety)
    if args.max_deg is None:
        bound = default_op2_bound(variety)
    else:
        bound = _capped(args.max_deg, "--max-deg")
    report = check_op2(variety, system, _generators(args.gens, "--gens", bound), bound)
    d = report.as_dict()
    lines = [
        f"variety {d['variety']}, operation change phi={d['phi']}"
        f" a={d['a']} b={d['b']} (bound {d['bound']})",
        f"form_ok: {d['form_ok']}",
        f"identity_ok: {d['identity_ok']}",
        f"invertible: {d['invertible']}",
        f"admissible: {d['admissible']}",
    ]
    for scheme, witness in report.identity_failures:
        lines.append(f"  identity fails: {scheme} at {', '.join(witness)}")
    for md in report.singular_multidegrees:
        lines.append(f"  singular on multidegree {md}")
    _emit(args, d, "\n".join(lines))
    return 0


def cmd_inner(args) -> int:
    field = _field(args)
    system = _system(args, field)
    bound = _capped(args.max_deg, "--max-deg")
    alg = build_truncated(
        builtin_variety(args.variety), _generators(args.gens, "--gens", bound), bound
    )
    report = inner_witness(alg, system)
    d = report.as_dict()
    if report.status == "inner":
        text = f"inner: witness mu = {d['witness']}"
    elif report.status == "refuted":
        text = f"refuted: {d['obstruction']}"
    else:
        text = "unknown: the single-scaling ansatz is inconclusive"
    _emit(args, d, text)
    return 0 if report.status in ("inner", "refuted") else 1


def cmd_expand(args) -> int:
    job = _load_job(args)
    out = cases.expand_job(job)
    if job["kind"] == "smallest-closed":
        text_lines = [
            f"word: {out['word']}",
            f"transformed word: {out['sigma_word']}",
        ]
    else:
        text_lines = [f"transformed generator: {out['sigma_generator']}"]
        text_lines.append("constraint equations:")
        for row in out["equations"]:
            text_lines.append(f"  {row} = 0")
        if out["image"]:
            text_lines.append("image coefficients:")
            for entry in out["image"]:
                text_lines.append(f"  {entry['target']}: {entry['coefficient']}")
    _emit(args, out, "\n".join(text_lines))
    return 0


def cmd_falsify(args) -> int:
    job = _load_job(args)
    cert = cases.falsify_job(job)
    d = cert.as_dict()
    lines = [
        f"kind: {d['kind']}",
        f"variety {d['variety']}, bound {d['bound']}",
        f"verdict: {d['verdict']}",
    ]
    witness = d["details"].get("witness")
    if witness:
        lines.append(f"witness: {witness}")
    if d["kind"] == "equation-ideal":
        lines.append(
            f"cases: {d['details']['case_count']} solved,"
            f" {d['details']['stuck_count']} stuck"
        )
    _emit(args, d, "\n".join(lines))
    return 1 if cert.verdict == "inconclusive" else 0


def cmd_repro(args) -> int:
    names = list(cases.EXAMPLE_IDS) if args.all else [args.example]
    for name in names:
        _capped(cases.example_bound(name), "bound")
    if args.all:
        result = cases.run_all()
        reports = result["examples"]
        ok = result["ok"]
        payload = result
    else:
        report = cases.run_example(args.example)
        reports = [report]
        ok = report["ok"]
        payload = report
    lines = []
    for rep in reports:
        status = "ok" if rep["ok"] else "MISMATCH"
        lines.append(f"{rep['example']}: {status} ({len(rep['checks'])} checks)")
        for check in rep["checks"]:
            if not check["ok"]:
                lines.append(
                    f"  FAIL {check['name']}:"
                    f" got {json.dumps(check['got'])},"
                    f" want {json.dumps(check['want'])}"
                )
    lines.append("overall: " + ("ok" if ok else "MISMATCH"))
    _emit(args, payload, "\n".join(lines))
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="veralg",
        description="Truncated relatively free algebras, operation changes,"
        " and geometric-equivalence falsifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_variety(p, max_deg_default=None, max_deg_required=False):
        p.add_argument(
            "--variety", required=True,
            help=f"one of: {', '.join(builtin_variety_names())}",
        )
        p.add_argument("--gens", type=int, default=2, help="generators (default 2)")
        p.add_argument(
            "--max-deg", type=int, dest="max_deg",
            default=max_deg_default, required=max_deg_required,
            help="degree bound of the truncation",
        )

    def common_system(p):
        p.add_argument("--field", default="t1,t2",
                       help="comma-separated transcendentals (default t1,t2)")
        p.add_argument("--phi", default="id",
                       help="field automorphism: id, swap, or a permutation")
        # argparse reads a value that starts with '-' and is not a number
        # as an option, so such a value needs the --a=-t1 form
        p.add_argument("--a", default="1",
                       help="left product coefficient; write one that starts"
                       " with '-' as --a=-t1")
        p.add_argument("--b", default="0",
                       help="right product coefficient; write one that starts"
                       " with '-' as --b=-t1")

    def common_job(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--spec", help="path to a job JSON file")
        group.add_argument(
            "--example", choices=[e for e in cases.EXAMPLE_IDS
                                  if e not in ("op2_table", "inner_table")],
            help="a pinned example id",
        )

    p = sub.add_parser("basis", help="basis and dimensions of a truncation")
    common_variety(p, max_deg_required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_basis)

    p = sub.add_parser("op2", help="admissibility of an operation change")
    common_variety(p)
    common_system(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_op2)

    p = sub.add_parser("inner", help="inner-witness search for a change")
    common_variety(p, max_deg_default=3)
    common_system(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_inner)

    p = sub.add_parser("expand", help="symbolic expansion of a job")
    common_job(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_expand)

    p = sub.add_parser("falsify", help="run a falsifier and print the certificate")
    common_job(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_falsify)

    p = sub.add_parser("repro", help="run pinned examples against recorded outcomes")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--example", choices=list(cases.EXAMPLE_IDS))
    group.add_argument("--all", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_repro)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its message; normalize the exit code
        return 2 if exc.code else 0
    try:
        return args.handler(args)
    except (UsageError, KeyError, ValueError, OSError, ZeroInversion) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # a crash must not read as a verdict (0) or as inconclusive (1)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
