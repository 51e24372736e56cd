"""Ideals in truncated algebras, constraint case analysis, and certificates.

The falsification pipeline: an ideal T = <t> + (all of degree >= tail) is
carried through an operation change; the endomorphisms alpha with
alpha(sigma t) in T are described by polynomial equations in the matrix
entries of alpha; a case split solves those equations; and in every case a
candidate space is checked to land inside T under alpha.  A candidate that
always lands in T but is missing from the transformed ideal certifies that
the two quotient algebras impose genuinely different closures.

Everything is exact: coefficients are rational functions, and case splits
track their assumptions.  A certificate records the verdict, the equations,
the case tree and the witness, but not yet the names of the field's
transcendentals, so it cannot be replayed from the certificate alone.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Optional, Sequence

from .freealg import Element, Endomorphism, Monomial
from .scalars import (
    ParamContext,
    ParamPoly,
    Scalar,
    factor_for_branching,
    parampoly_reduce,
)
from .variety import RowReducer, TruncatedAlgebra
from .verbal import (
    PreconditionError,
    VerbalSystem,
    check_op2,
    sigma_apply,
)

__all__ = [
    "Branch",
    "Certificate",
    "GenConstraints",
    "PreconditionError",
    "TruncatedIdeal",
    "closure_sampled",
    "falsify_equation_ideal",
    "falsify_smallest_closed",
    "gen_constraints",
    "ideal_build",
    "kernel_contains",
    "sf_image",
    "solve_cases",
]


def coordinates(alg: TruncatedAlgebra, el: Element) -> dict:
    """Sparse coordinates of an element over the algebra's full basis."""
    nf = alg.normal_form(el)
    index = alg.basis_index()
    return {index[m]: c for m, c in nf.terms.items()}


class TruncatedIdeal:
    """An ideal <generators> + (everything of degree >= tail)."""

    __slots__ = ("alg", "field", "tail", "generators", "reducer")

    def __init__(self, alg, field, tail, generators, reducer):
        self.alg = alg
        self.field = field
        self.tail = tail
        self.generators = generators
        self.reducer = reducer

    def contains(self, el: Element) -> bool:
        if el.domain != self.field:
            raise ValueError("element lives over a different field")
        return self.reducer.contains(coordinates(self.alg, el))

    @property
    def rank(self) -> int:
        return self.reducer.rank

    def span_elements(self) -> tuple:
        basis = self.alg.all_basis()
        out = []
        for row in self.reducer.pivots.values():
            out.append(
                Element(
                    self.alg.gens,
                    self.field,
                    {basis[c]: v for c, v in row.items()},
                )
            )
        return tuple(out)

    def residue(self, coords: dict) -> dict:
        """Coordinates modulo the ideal, with Scalar or ParamPoly values."""
        return self.reducer.reduce(coords)

    def __repr__(self):
        gens = ", ".join(g.encode() for g in self.generators)
        return f"TruncatedIdeal(<{gens}> + deg>={self.tail}, rank={self.rank})"


def ideal_build(alg, field, generators: Sequence[Element], tail: int) -> TruncatedIdeal:
    """Span the ideal generated by the elements plus all of degree >= tail.

    The span is closed under one-sided multiplication by monomials; the
    worklist only chases vectors that actually enlarge it.
    """
    if tail < 2:
        raise ValueError("tail must be at least 2")
    index = alg.basis_index()
    one = Scalar.one(field)
    reducer = RowReducer()
    for d in range(tail, alg.bound + 1):
        for m in alg.basis_of_degree(d):
            reducer.insert({index[m]: one})

    normalized = []
    pending = []
    for g in generators:
        if g.domain != field or g.gens != alg.gens:
            raise ValueError("generator context mismatch")
        nf = alg.normal_form(g)
        if nf.is_zero:
            continue
        normalized.append(nf)
        pending.append(nf)

    monomials = [
        Element.from_monomial(alg.gens, field, m) for m in alg.all_basis()
    ]
    while pending:
        el = pending.pop()
        if not reducer.insert({index[m]: c for m, c in el.terms.items()}):
            continue
        low = min(m.degree for m in el.terms)
        for u in monomials:
            if low + u.max_degree() > alg.bound:
                continue
            for prod in (alg.multiply(el, u), alg.multiply(u, el)):
                if not prod.is_zero:
                    pending.append(prod)

    return TruncatedIdeal(alg, field, tail, tuple(normalized), reducer)


def _single_homogeneous_generator(ideal: TruncatedIdeal) -> Element:
    if len(ideal.generators) != 1:
        raise PreconditionError("the ideal must have a single listed generator")
    t = ideal.generators[0]
    if t.homogeneous_degree() != ideal.tail - 1:
        raise PreconditionError(
            "the generator must be homogeneous of degree tail - 1"
        )
    return t


def sf_image(alg, ideal: TruncatedIdeal, system: VerbalSystem, report=None) -> TruncatedIdeal:
    """The ideal sigma(T) for T = <t> + tail, assuming the change is admissible.

    For such T the underlying set is k*t plus the tail, so an invertible
    degree-preserving sigma carries it to <sigma(t)> plus the same tail.
    """
    t = _single_homogeneous_generator(ideal)
    if ideal.field != system.field:
        raise PreconditionError("ideal and system fields differ")
    if report is None:
        report = check_op2(alg.variety, system, alg.gens, alg.bound)
    if not report.admissible:
        raise PreconditionError(
            "operation change is not admissible for this variety: "
            + json.dumps(report.as_dict())
        )
    st = sigma_apply(alg, system, t)
    return ideal_build(alg, system.field, (st,), ideal.tail)


@dataclass(frozen=True)
class GenConstraints:
    """Equations cutting out the linear alpha with alpha(sigma t) in T.

    Proportionality of the degree (tail-1) component of alpha(sigma t) to t
    is expressed through the extra unknown rho, one equation per basis
    monomial of that degree, in basis order.
    """

    ctx: ParamContext
    alpha: Endomorphism
    equations: tuple
    basis: tuple
    sigma_generator: Element


def gen_constraints(alg, ideal: TruncatedIdeal, system: VerbalSystem) -> GenConstraints:
    t = _single_homogeneous_generator(ideal)
    if ideal.field != system.field:
        raise PreconditionError("ideal and system fields differ")
    st = sigma_apply(alg, system, t)
    alpha = Endomorphism.generic_linear(alg.gens, system.field, extra=("rho",))
    ctx = alpha.domain
    applied = alg.normal_form(alpha.apply(st, alg.bound))
    target = alg.normal_form(t)
    rho = ParamPoly.variable(ctx, "rho")
    equations = []
    basis = alg.basis_of_degree(ideal.tail - 1)
    for b in basis:
        eq = applied.coefficient(b) - rho.scale(target.coefficient(b))
        if not eq.is_zero:
            equations.append(eq)
    return GenConstraints(ctx, alpha, tuple(equations), basis, st)


# ---------------------------------------------------------------------------
# Case analysis.


@dataclass(frozen=True)
class Branch:
    """A node of the case tree over the constraint equations.

    substitutions and nonvanishing are cumulative along the path from the
    root; residuals are the remaining equations, already reduced.  A
    "solved" leaf keeps its residuals as reduction rules (equations that
    hold on the case but do not isolate any unknown).
    """

    substitutions: tuple
    nonvanishing: tuple
    residuals: tuple
    status: str  # "split" | "solved" | "contradiction" | "infeasible" | "stuck"
    note: str
    children: tuple = ()

    def leaves(self):
        if not self.children:
            yield self
            return
        for child in self.children:
            yield from child.leaves()

    def as_dict(self) -> dict:
        return {
            "substitutions": {n: p.encode() for n, p in self.substitutions},
            "nonvanishing": [p.encode() for p in self.nonvanishing],
            "residuals": [p.encode() for p in self.residuals],
            "status": self.status,
            "note": self.note,
            "children": [c.as_dict() for c in self.children],
        }


def _is_variable(p: ParamPoly) -> Optional[str]:
    if len(p.terms) != 1:
        return None
    (e, c), = p.terms.items()
    if sum(e) != 1 or not c.is_one:
        return None
    return p.ctx.names[e.index(1)]


def _normalized(p: ParamPoly) -> ParamPoly:
    _, lc = p.leading()
    return p.scale(lc.inverse())


def _try_eliminate(equations, ctx):
    """A residual of the shape c*v + rest with scalar c: solve for v."""
    for eq in equations:
        for vi, name in enumerate(ctx.names):
            with_v = [(e, c) for e, c in eq.terms.items() if e[vi]]
            if len(with_v) != 1:
                continue
            e0, c0 = with_v[0]
            if e0[vi] != 1 or any(e0[j] for j in range(len(e0)) if j != vi):
                continue
            rest = ParamPoly(ctx, {e: c for e, c in eq.terms.items() if not e[vi]})
            return name, (-rest).scale(c0.inverse()), eq
    return None


def solve_cases(
    equations: Sequence[ParamPoly],
    ctx: ParamContext,
    hints: Sequence = (),
    max_depth: int = 12,
) -> Branch:
    """Split the system into cases by elimination and factor branching."""

    hints = tuple(
        ParamPoly.parse(h, ctx) if isinstance(h, str) else h for h in hints
    )

    def build(subs, nonvan, eqs, depth, note):
        subs_map = dict(subs)
        reduced_nv = []
        for p in nonvan:
            r = parampoly_reduce(p, subs_map)
            if r.is_zero:
                return Branch(
                    subs, nonvan, tuple(eqs), "infeasible",
                    f"assumed nonzero {p.encode()} vanished", ()
                )
            reduced_nv.append(r)

        work = []
        for eq in eqs:
            r = parampoly_reduce(eq, subs_map)
            if r.is_zero:
                continue
            if r.constant_value() is not None:
                return Branch(
                    subs, nonvan, (r,), "contradiction",
                    f"constant residual {r.encode()}", ()
                )
            if all(r != w for w in work):
                work.append(r)

        hit = _try_eliminate(work, ctx)
        if hit is not None:
            name, image, src = hit
            return build(
                subs + ((name, image),),
                nonvan,
                [e for e in work if e is not src],
                depth,
                note or f"eliminated {name}",
            )

        if not work:
            return Branch(subs, nonvan, (), "solved", note or "no residuals", ())

        nv_set = list(reduced_nv)
        chosen = None
        for eq in sorted(work, key=lambda p: len(p.terms)):
            factors = factor_for_branching(eq, hints)
            uniq = []
            for f in factors:
                if all(f != g for g in uniq):
                    uniq.append(f)
            active = [f for f in uniq if all(f != n for n in nv_set)]
            if not active:
                return Branch(
                    subs, nonvan, (eq,), "contradiction",
                    "every factor is assumed nonzero", ()
                )
            trivial = (
                len(active) == 1
                and _is_variable(active[0]) is None
                and active[0] == _normalized(eq)
            )
            if not trivial:
                chosen = (eq, active)
                break
        if chosen is None:
            # every residual is a single irreducible equation: keep as rules
            return Branch(
                subs, nonvan, tuple(work), "solved",
                note or "residuals kept as reduction rules", ()
            )

        eq, active = chosen
        if depth >= max_depth:
            return Branch(subs, nonvan, tuple(work), "stuck", "depth limit", ())

        rest = [e for e in work if e is not eq]
        children = []
        for i, f in enumerate(active):
            hyp = nonvan + tuple(active[:i])
            name = _is_variable(f)
            if name is not None:
                children.append(
                    build(
                        subs + ((name, ParamPoly.zero(ctx)),),
                        hyp, list(rest), depth + 1, f"{name} = 0",
                    )
                )
            else:
                children.append(
                    build(subs, hyp, rest + [f], depth + 1, f"{f.encode()} = 0")
                )
        children.append(
            Branch(
                subs, nonvan + tuple(active), (eq,), "contradiction",
                "all factors assumed nonzero", ()
            )
        )
        return Branch(
            subs, nonvan, tuple(work), "split",
            note or f"split on {eq.encode()}", tuple(children)
        )

    return build((), (), list(equations), 0, "")


def kernel_contains(alg, ideal: TruncatedIdeal, constraints: GenConstraints, branch: Branch, el: Element) -> bool:
    """Does alpha(el) lie in the ideal for every alpha satisfying the case?"""
    residue = ideal.residue(coordinates(alg, constraints.alpha.apply(el, alg.bound)))
    subs = dict(branch.substitutions)
    rules = list(branch.residuals)
    return all(
        parampoly_reduce(q, subs, rules).is_zero for q in residue.values()
    )


# ---------------------------------------------------------------------------
# Sampled closures.


def closure_sampled(alg, ideal: TruncatedIdeal, endos: Sequence[Endomorphism]) -> RowReducer:
    """The subspace of v with alpha(v) in the ideal for every sampled alpha.

    Every endomorphism must map the ideal into itself; with the identity
    among them the result is the ideal's own span back again.
    """
    for alpha in endos:
        for g in ideal.span_elements():
            if not ideal.contains(alg.normal_form(alpha.apply(g, alg.bound))):
                raise PreconditionError(
                    "sampled endomorphism does not preserve the ideal"
                )

    basis = alg.all_basis()
    constraints = RowReducer()
    for alpha in endos:
        residues = [
            ideal.residue(coordinates(alg, alpha.apply(
                Element.from_monomial(alg.gens, ideal.field, b), alg.bound
            )))
            for b in basis
        ]
        positions = set()
        for r in residues:
            positions.update(r)
        for k in positions:
            row = {}
            for j, r in enumerate(residues):
                c = r.get(k)
                if c is not None and not c.is_zero:
                    row[j] = c
            constraints.insert(row)

    one = Scalar.one(ideal.field)
    out = RowReducer()
    pivots = constraints.pivots
    for j in range(len(basis)):
        if j in pivots:
            continue
        vec = {j: one}
        for p, row in pivots.items():
            c = row.get(j)
            if c is not None and not c.is_zero:
                vec[p] = -c
        out.insert(vec)
    return out


# ---------------------------------------------------------------------------
# Certificates.


@dataclass(frozen=True)
class Certificate:
    """The record of a falsification attempt: verdict, case tree, witness."""

    kind: str
    verdict: str
    variety: str
    gens: tuple
    bound: int
    system: dict
    op2: dict
    details: dict

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "verdict": self.verdict,
            "variety": self.variety,
            "generators": list(self.gens),
            "bound": self.bound,
            "system": self.system,
            "op2": self.op2,
            "details": self.details,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)


def falsify_equation_ideal(
    alg,
    system: VerbalSystem,
    t: Element,
    tail: int,
    candidates: Sequence[Element],
    hints: Sequence[str] = (),
    max_depth: int = 12,
) -> Certificate:
    """Compare the ideal <t> + tail with its sigma-image through closures.

    Every linear alpha with alpha(sigma t) in T is covered by a case tree;
    candidates that land in T under all of them, but are missing from
    sigma(T), witness that the quotients impose different closures.  The
    verdict is "inconclusive" when a case resists the analysis,
    "no_falsification" when no candidate separates, and
    "not_geometrically_equivalent" with a witness otherwise.
    """
    report = check_op2(alg.variety, system, alg.gens, alg.bound)
    ideal = ideal_build(alg, system.field, (t,), tail)
    image = sf_image(alg, ideal, system, report)
    cons = gen_constraints(alg, ideal, system)
    hint_polys = tuple(ParamPoly.parse(h, cons.ctx) for h in hints)
    tree = solve_cases(cons.equations, cons.ctx, hint_polys, max_depth)

    leaves = list(tree.leaves())
    solved = [l for l in leaves if l.status == "solved"]
    stuck = [l for l in leaves if l.status == "stuck"]

    kernel = {}
    for v in candidates:
        kernel[v.encode()] = all(
            kernel_contains(alg, ideal, cons, leaf, v) for leaf in solved
        )

    witness = None
    if not stuck:
        certified = [v for v in candidates if kernel[v.encode()]]
        pool = list(certified) + [
            u + v for u, v in itertools.combinations(certified, 2)
        ]
        for w in pool:
            if not image.contains(w):
                witness = w
                break

    if stuck:
        verdict = "inconclusive"
    elif witness is not None:
        verdict = "not_geometrically_equivalent"
    else:
        verdict = "no_falsification"

    details = {
        "tail": tail,
        "ideal_generator": t.encode(),
        "sigma_generator": cons.sigma_generator.encode(),
        "ideal_rank": ideal.rank,
        "image_rank": image.rank,
        "equations": [e.encode() for e in cons.equations],
        "constraint_basis": [b.encode() for b in cons.basis],
        "hints": list(hints),
        "cases": tree.as_dict(),
        "case_count": len(solved),
        "stuck_count": len(stuck),
        "kernel": kernel,
        "candidates": [v.encode() for v in candidates],
        "witness": None if witness is None else witness.encode(),
    }
    return Certificate(
        kind="equation-ideal",
        verdict=verdict,
        variety=alg.variety.name,
        gens=alg.gens.names,
        bound=alg.bound,
        system=system.encode(),
        op2=report.as_dict(),
        details=details,
    )


def falsify_smallest_closed(alg, system: VerbalSystem, word: Monomial) -> Certificate:
    """Compare the smallest closed subspace spanned by a word's images.

    The span of alpha(word) over all linear alpha is computed exactly from
    the generic alpha; when sigma(word) falls outside it, the transformed
    word generates a strictly different closed set, and the verdict is
    "not_geometrically_equivalent" with sigma(word) as witness.
    """
    report = check_op2(alg.variety, system, alg.gens, alg.bound)
    element = Element.from_monomial(alg.gens, system.field, word)
    alpha = Endomorphism.generic_linear(alg.gens, system.field)
    applied = alg.normal_form(alpha.apply(element, alg.bound))
    index = alg.basis_index()

    vectors = {}
    for m, poly in applied.terms.items():
        j = index[m]
        for e, c in poly.terms.items():
            vectors.setdefault(e, {})[j] = c
    span = RowReducer()
    for vec in vectors.values():
        span.insert(vec)

    sw = alg.normal_form(sigma_apply(alg, system, element))
    inside = span.contains(coordinates(alg, sw))
    verdict = "no_falsification" if inside else "not_geometrically_equivalent"

    details = {
        "word": word.encode(),
        "sigma_word": sw.encode(),
        "span_rank": span.rank,
        "witness": None if inside else sw.encode(),
    }
    return Certificate(
        kind="smallest-closed",
        verdict=verdict,
        variety=alg.variety.name,
        gens=alg.gens.names,
        bound=alg.bound,
        system=system.encode(),
        op2=report.as_dict(),
        details=details,
    )
