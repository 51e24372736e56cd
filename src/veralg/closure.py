"""Ideals in truncated algebras, constraint case analysis, and certificates.

The falsification pipeline: an ideal T = <t> + (all of degree >= tail) is
carried through an operation change; the endomorphisms alpha with
alpha(sigma t) in T are described by polynomial equations in the matrix
entries of alpha; a case split solves those equations; and in every case a
candidate space is checked to land inside T under alpha.  A candidate that
always lands in T but is missing from the transformed ideal certifies that
the two quotient algebras impose genuinely different closures.

Each step of a job runs once: ``gen_constraints`` computes sigma(t), and
the transformed ideal is spanned from it.  The span of an ideal is closed
under products with basis monomials through
``TruncatedAlgebra.product_form``, the one normal-form product.

Everything is exact: coefficients are rational functions, and case splits
track their assumptions.  A certificate records the verdict, the equations,
the case tree and the witness, but not yet the names of the field's
transcendentals, so it cannot be replayed from the certificate alone.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from .freealg import Element, Monomial, SymbolicEndomorphism
from .scalars import (
    ParamContext,
    ParamPoly,
    Scalar,
    _Record,
    check_next_substitution,
    factor_for_branching,
    parse_parampoly,
)
from .variety import RowReducer, TruncatedAlgebra
from .verbal import (
    Op2Report,
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
    "falsify_equation_ideal",
    "falsify_smallest_closed",
    "gen_constraints",
    "ideal_build",
    "kernel_contains",
    "solve_cases",
]


def coordinates(alg: TruncatedAlgebra, el: Element) -> dict:
    """Sparse coordinates of an element over the algebra's full basis."""
    nf = alg.normal_form(el)
    index = alg.basis_index()
    return {index[m]: c for m, c in nf.terms.items()}


class TruncatedIdeal:
    """An ideal <generators> + (everything of degree >= tail).

    ``generators`` are the listed elements in normal form, 0 included.
    """

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

    def residue(self, coords: dict) -> dict:
        """Coordinates modulo the ideal, with Scalar or ParamPoly values."""
        return self.reducer.reduce(coords)

    def __repr__(self):
        gens = ", ".join(g.encode() for g in self.generators)
        return f"TruncatedIdeal(<{gens}> + deg>={self.tail}, rank={self.rank})"


def ideal_build(alg, field, generators: Sequence[Element], tail: int) -> TruncatedIdeal:
    """Span the ideal generated by the elements plus all of degree >= tail.

    The worklist holds normal forms, {basis monomial: Scalar}, and only
    chases those that enlarge the span.  Each one is multiplied by every
    basis monomial u on both sides through ``product_form``, less its terms
    that would go above the bound with u.
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
    for g in generators:
        if g.domain != field or g.gens != alg.gens:
            raise ValueError("generator context mismatch")
        normalized.append(alg.normal_form(g))
    pending = [nf.terms for nf in normalized if not nf.is_zero]

    while pending:
        p = pending.pop()
        if not reducer.insert({index[m]: c for m, c in p.items()}):
            continue
        # the basis runs by degree, so once no term of p fits, none will
        for d, words in itertools.groupby(index, lambda m: m.degree):
            low = {m: c for m, c in p.items() if m.degree + d <= alg.bound}
            if not low:
                break
            for u in words:
                unit = {u: 1}
                for pair in ((low, unit), (unit, low)):
                    prod = alg.product_form((pair,))
                    if prod:
                        pending.append(prod)

    return TruncatedIdeal(alg, field, tail, tuple(normalized), reducer)


def _single_homogeneous_generator(ideal: TruncatedIdeal) -> Element:
    if len(ideal.generators) != 1:
        raise PreconditionError("the ideal must have a single listed generator")
    t = ideal.generators[0]
    if t.is_zero:
        raise PreconditionError("the generator is 0 in this truncation")
    if t.homogeneous_degree() != ideal.tail - 1:
        raise PreconditionError(
            "the generator must be homogeneous of degree tail - 1"
        )
    return t


def _admissible(alg, system: VerbalSystem):
    """The change's check_op2 report; PreconditionError unless admissible."""
    report = check_op2(alg.variety, system, alg.gens, alg.bound)
    if not report.admissible:
        import json  # only this refusal needs it, so `import veralg` skips it

        raise PreconditionError(
            "operation change is not admissible for this variety: "
            + json.dumps(report.as_dict())
        )
    return report


class GenConstraints(_Record):
    """Equations cutting out the linear alpha with alpha(sigma t) in T.

    Proportionality of the degree (tail-1) component of alpha(sigma t) to t
    is expressed through the extra unknown rho, one equation per basis
    monomial of that degree, in basis order.  ``alpha`` is the generic
    linear map of the job, over ``ctx``; its rational tables on words stay
    with it, so that ``kernel_contains`` reuses the tables that
    ``gen_constraints`` built.  ``gen_constraints`` is the only constructor.
    """

    __slots__ = ("alpha", "equations", "basis", "sigma_generator")

    @property
    def ctx(self) -> ParamContext:
        return self.alpha.ctx


def gen_constraints(alg, ideal: TruncatedIdeal, system: VerbalSystem) -> GenConstraints:
    """The constraints on the generic linear alpha for alpha(sigma t) in T.

    nf(alpha(sigma t)) is combined from the rational tables of alpha on the
    words of sigma t (``SymbolicEndomorphism.apply``); the map, with its
    tables, stays in the result for the candidates of the same job.  This
    is the one place a job computes sigma(t): the falsifier spans sigma(T)
    from ``sigma_generator``.
    """
    t = _single_homogeneous_generator(ideal)
    if ideal.field != system.field:
        raise PreconditionError("ideal and system fields differ")
    st = sigma_apply(alg, system, t)
    alpha = SymbolicEndomorphism(alg, system.field, extra=("rho",))
    applied = alpha.apply(st)
    rho = ParamPoly.variable(alpha.ctx, "rho")
    equations = []
    basis = alg.basis_of_degree(ideal.tail - 1)
    for b in basis:
        eq = applied.coefficient(b) - rho * t.coefficient(b)
        if not eq.is_zero:
            equations.append(eq)
    return GenConstraints(alpha, tuple(equations), basis, st)


# ---------------------------------------------------------------------------
# Case analysis.

_set = object.__setattr__  # writes a field of a frozen record


class Branch(_Record):
    """A node of the case tree over the constraint equations.

    A node holds only the step it adds to its parent's case.  ``step`` is
    the pairs it adds to the chain of substitutions: one or none, or more
    where an elimination leaves another to make; a branch ``name = 0``
    adds the zero image.  The pairs are in elimination order: no image
    mentions its own unknown or one substituted before it, here or above.
    ``assumed`` is the polynomials it adds to those assumed nonzero: on a
    child of a split, the factors before its own; on the split's closing
    contradiction, every factor.  A case's chain and hypotheses are those
    of the nodes from the root to it, in order, and ``as_dict`` prints
    them so at every node.  residuals are the remaining equations, reduced
    by that chain but on an "infeasible" leaf.  A "solved" leaf keeps its
    residuals as reduction rules (equations that hold on the case but do
    not isolate any unknown).  An "infeasible" leaf stops when the last
    pair of its step makes an assumed-nonzero polynomial vanish, before it
    reduces its equations, so its residuals are the ones it inherited,
    not reduced by that last pair.
    """

    __slots__ = (
        "step",
        "assumed",
        "residuals",
        "status",  # "split" | "solved" | "contradiction" | "infeasible" | "stuck"
        "note",
        "children",
    )

    def __init__(self, step, assumed, residuals, status, note, children=()):
        # a sweep pass builds about a thousand nodes, so each field is set
        # directly instead of through _Record.__init__
        _set(self, "step", step)
        _set(self, "assumed", assumed)
        _set(self, "residuals", residuals)
        _set(self, "status", status)
        _set(self, "note", note)
        _set(self, "children", children)

    def leaves(self):
        if not self.children:
            yield self
            return
        for child in self.children:
            yield from child.leaves()

    def as_dict(self, chain=(), hypotheses=()) -> dict:
        # chain and hypotheses are those of the nodes above this one
        chain += self.step
        hypotheses += self.assumed
        return {
            "substitutions": {n: p.encode() for n, p in chain},
            "nonvanishing": [p.encode() for p in hypotheses],
            "residuals": [p.encode() for p in self.residuals],
            "status": self.status,
            "note": self.note,
            "children": [c.as_dict(chain, hypotheses) for c in self.children],
        }


def _is_variable(p: ParamPoly) -> Optional[str]:
    if len(p.terms) != 1:
        return None
    (e, c), = p.terms.items()
    if sum(e) != 1 or not c.is_one:
        return None
    return p.ctx.names[e.index(1)]


def _is_lone(factors) -> bool:
    """Is the equation its own only branch factor, up to a unit?

    The factors are nonconstant and multiply to the equation up to a
    scalar, so the one factor of a list that is not an unknown is the
    equation times a unit.
    """
    return len(factors) == 1 and _is_variable(factors[0]) is None


def _try_eliminate(equations, ctx):
    """A residual of the shape c*v + rest with scalar c: solve for v.

    One pass over an equation's terms counts the terms of each unknown; the
    first equation with an unknown whose only term is c*v is solved for the
    first such unknown, in the order of ``ctx``.
    """
    size = ctx.size
    for eq in equations:
        uses = [0] * size
        lone = [None] * size
        for e, c in eq.terms.items():
            for i, k in enumerate(e):
                if k:
                    uses[i] += 1
            if sum(e) == 1:
                lone[e.index(1)] = c
        for vi, c0 in enumerate(lone):
            if c0 is not None and uses[vi] == 1:
                rest = ParamPoly(ctx, {e: c for e, c in eq.terms.items() if not e[vi]})
                return ctx.names[vi], -rest * c0.inverse(), eq
    return None


def solve_cases(
    equations: Sequence[ParamPoly],
    ctx: ParamContext,
    hints: Sequence = (),
    max_depth: int = 12,
) -> Branch:
    """Split the system into cases by elimination and factor branching.

    Each hint is made monic (leading coefficient 1) once, here, so that an
    equation equal to a hint up to a scalar has the hint as its lone factor.
    A node is one step (``Branch``): each pair it adds is checked against
    the unknowns of the chain before it (``check_next_substitution``).  The
    equations and hypotheses a node inherits are already reduced by that
    chain, so the node applies only the pair it adds: one
    ``ParamPoly.substitute`` pass each, which is the last step of
    ``substitute_in_order`` on the whole chain, so the result is the same.
    A node's distinct residuals are collected in a dict keyed by the
    polynomial, which keeps the first occurrence of each in order, so
    finding them costs one hash per residual.  Each distinct equation is
    factored once per tree (``factor_for_branching``, whose factors are up
    to a unit).  A split makes its factors monic, so that the hypotheses
    and equations of its children do not depend on the scalar in front; a
    lone factor is a rule, not a split, and is made monic only to be
    compared with an assumed-nonzero polynomial of the same term support.
    """

    hints = tuple(
        (parse_parampoly(h, ctx) if isinstance(h, str) else h).monic()
        for h in hints
    )
    factored = {}  # equation -> its branch factors, one entry per tree

    def build(names, nonvan, held, eqs, depth, note, assumed=(), step=()):
        # names are the unknowns of the chain above the last pair of step,
        # nonvan the hypotheses from the root, and held (nonvan) and eqs are
        # reduced by that chain; step and assumed are the node's own
        pair = None
        if step:
            name, image = step[-1]
            check_next_substitution(names, name, image)
            names = names + (name,)
            pair = {name: image}
        reduced_nv = []
        for p, h in zip(nonvan, held):
            r = h.substitute(pair) if pair else h
            if r.is_zero:
                return Branch(
                    step, assumed, tuple(eqs), "infeasible",
                    f"assumed nonzero {p.encode()} vanished", ()
                )
            reduced_nv.append(r)

        work = {}  # the distinct residuals, first occurrences in order
        for eq in eqs:
            r = eq.substitute(pair) if pair else eq
            if r.is_zero:
                continue
            if r.constant_value() is not None:
                return Branch(
                    step, assumed, (r,), "contradiction",
                    f"constant residual {r.encode()}", ()
                )
            work.setdefault(r)
        work = list(work)

        hit = _try_eliminate(work, ctx)
        if hit is not None:
            name, image, src = hit
            return build(
                names, nonvan, reduced_nv, [e for e in work if e is not src],
                depth, note or f"eliminated {name}", assumed, step + ((name, image),),
            )

        if not work:
            return Branch(step, assumed, (), "solved", note or "no residuals", ())

        chosen = None
        known = set(reduced_nv)
        for eq in sorted(work, key=lambda p: len(p.terms)):
            factors = factored.get(eq)
            if factors is None:
                factors = factored[eq] = factor_for_branching(eq, hints)
                if not _is_lone(factors):
                    # only the cofactor, last, may not be monic already
                    factors[-1] = factors[-1].monic()
            if _is_lone(factors):
                # a rule unless assumed nonzero; the monic factor has the
                # terms of f, so it is made only to meet an assumption
                # with the same support, and then kept
                f = factors[0]
                support = f.terms.keys()
                if any(a.terms.keys() == support for a in known):
                    f = factors[0] = f.monic()
                    if f in known:
                        return Branch(
                            step, assumed, (eq,), "contradiction",
                            "every factor is assumed nonzero", ()
                        )
                continue
            active = [f for f in dict.fromkeys(factors) if f not in known]
            if not active:
                return Branch(
                    step, assumed, (eq,), "contradiction",
                    "every factor is assumed nonzero", ()
                )
            chosen = (eq, active)
            break
        if chosen is None:
            # every residual is a single irreducible equation: keep as rules
            return Branch(
                step, assumed, tuple(work), "solved",
                note or "residuals kept as reduction rules", ()
            )

        eq, active = chosen
        if depth >= max_depth:
            return Branch(step, assumed, tuple(work), "stuck", "depth limit", ())

        rest = [e for e in work if e is not eq]
        children = []
        for i, f in enumerate(active):
            added = tuple(active[:i])
            name = _is_variable(f)
            if name is None:  # f = 0 joins the equations
                below, pairs = rest + [f], ()
            else:
                below, pairs = list(rest), ((name, ParamPoly.zero(ctx)),)
            children.append(
                build(
                    names, nonvan + added, reduced_nv + active[:i], below,
                    depth + 1, f"{name or f.encode()} = 0", added, pairs,
                )
            )
        children.append(
            Branch(
                (), tuple(active), (eq,), "contradiction",
                "all factors assumed nonzero", ()
            )
        )
        return Branch(
            step, assumed, tuple(work), "split",
            note or f"split on {eq.encode()}", tuple(children)
        )

    tree = build((), (), [], list(equations), 0, "")
    # build refers to itself, so its closure lives until the next cyclic
    # collection; the memo is freed now instead
    factored.clear()
    return tree


def kernel_contains(
    alg,
    ideal: TruncatedIdeal,
    constraints: GenConstraints,
    tree: Branch,
    el: Element,
) -> bool:
    """Does alpha(el) lie in the ideal for every alpha of every solved case?

    The cases are the solved leaves of the ``solve_cases`` tree.  alpha(el)
    and its residue modulo the ideal depend only on el, so they are
    computed once, and not at all when no leaf is solved.  alpha(el) is
    combined from the rational tables of alpha on el's words, kept in
    ``constraints.alpha``, so a word met by ``gen_constraints`` or an
    earlier candidate is not expanded again.

    Each coordinate of the residue then walks the tree (``_vanishes_below``)
    and is reduced on every solved leaf as ``parampoly_reduce`` would
    reduce it by the leaf's chain and residuals; the first that some leaf
    leaves nonzero decides, and later coordinates are not reduced.
    """
    if all(leaf.status != "solved" for leaf in tree.leaves()):
        return True
    applied = constraints.alpha.apply(el)
    index = alg.basis_index()
    residue = ideal.residue({index[m]: c for m, c in applied.terms.items()})
    return all(_vanishes_below(tree, r) for r in residue.values())


def _vanishes_below(node: Branch, r: ParamPoly) -> bool:
    """Is r zero on every solved leaf below the node?

    r is already reduced by the chain above the node, so the node
    substitutes only its step, one ``ParamPoly.substitute`` pass per pair,
    and the walk goes on depth first; a pair that many leaves share is
    applied once.  A leaf that is not solved holds no case and returns
    before any substitution.  A solved leaf divides what is left by its
    residuals as they stand: ``solve_cases`` checked the order of each
    pair and reduced the residuals by the chain as it built the tree.
    """
    if not node.children and node.status != "solved":
        return True
    for name, image in node.step:
        if r:
            r = r.substitute({name: image})
    if not r:
        return True
    if not node.children:
        return bool(node.residuals) and not r.reduce_by(node.residuals)
    return all(_vanishes_below(child, r) for child in node.children)


# ---------------------------------------------------------------------------
# Certificates.


class Certificate(_Record):
    """The one record of a falsify run.

    ``alg`` is the truncation the run worked in, ``system`` the operation
    change and ``op2`` its ``check_op2`` report; ``details`` holds what the
    falsifier of this ``kind`` found, its witness among them.  ``as_dict``
    writes the header (variety, generators, bound, system and op2) from
    these objects, the same for both kinds, and then the details.
    """

    __slots__ = ("kind", "verdict", "alg", "system", "op2", "details")

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "verdict": self.verdict,
            "variety": self.alg.variety.name,
            "generators": list(self.alg.gens.names),
            "bound": self.alg.bound,
            "system": self.system.encode(),
            "op2": self.op2.as_dict(),
            "details": self.details,
        }


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
    a candidate that lands in T under all of them (a certified candidate)
    but is missing from sigma(T) witnesses that the quotients impose
    different closures.  Each candidate is tested against all solved
    leaves in one ``kernel_contains`` call, which computes alpha(v) and its
    residue once.  The witness is the first certified candidate outside
    sigma(T).  Both tests are linear in v, so when every certified
    candidate lies in sigma(T), so does every element of their span.

    The verdict is "inconclusive" when a case resists the analysis,
    "not_geometrically_equivalent" when there is a witness, and
    "no_falsification" otherwise: no element of the span of the certified
    candidates separates T from sigma(T).
    """
    ideal = ideal_build(alg, system.field, (t,), tail)
    cons = gen_constraints(alg, ideal, system)
    report = _admissible(alg, system)
    # the underlying set of T is k*t plus the tail, so an admissible sigma,
    # invertible and degree-preserving, carries it to <sigma(t)> plus the
    # same tail
    image = ideal_build(alg, system.field, (cons.sigma_generator,), tail)
    tree = solve_cases(cons.equations, cons.ctx, hints, max_depth)

    statuses = [leaf.status for leaf in tree.leaves()]
    solved, stuck = statuses.count("solved"), statuses.count("stuck")

    texts = [v.encode() for v in candidates]
    kernel = {
        text: kernel_contains(alg, ideal, cons, tree, v)
        for text, v in zip(texts, candidates)
    }

    witness = None
    if not stuck:
        witness = next(
            (
                v for text, v in zip(texts, candidates)
                if kernel[text] and not image.contains(v)
            ),
            None,
        )

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
        "case_count": solved,
        "stuck_count": stuck,
        "kernel": kernel,
        "candidates": texts,
        "witness": None if witness is None else witness.encode(),
    }
    return Certificate("equation-ideal", verdict, alg, system, report, details)


def _nonzero_word(alg, field, word: Monomial) -> Element:
    """The word as an element; PreconditionError when its normal form is 0."""
    element = Element.from_monomial(alg.gens, field, word)
    if alg.normal_form(element).is_zero:
        raise PreconditionError("the word is 0 in this truncation")
    return element


def falsify_smallest_closed(alg, system: VerbalSystem, word: Monomial) -> Certificate:
    """Compare the smallest closed subspace spanned by a word's images.

    The span of alpha(word) over all linear alpha is computed exactly from
    the generic alpha; when sigma(word) falls outside it, the transformed
    word generates a strictly different closed set, and the verdict is
    "not_geometrically_equivalent" with sigma(word) as witness.  A word
    whose normal form is 0 (above the bound, or killed by the laws) and a
    change that is not admissible are refused, as for the equation-ideal
    falsifier.
    """
    element = _nonzero_word(alg, system.field, word)
    report = _admissible(alg, system)
    applied = SymbolicEndomorphism(alg, system.field).apply(element)
    index = alg.basis_index()

    vectors = {}
    for m, poly in applied.terms.items():
        j = index[m]
        for e, c in poly.terms.items():
            vectors.setdefault(e, {})[j] = c
    span = RowReducer()
    for vec in vectors.values():
        span.insert(vec)

    sw = sigma_apply(alg, system, element)
    inside = span.contains(coordinates(alg, sw))
    verdict = "no_falsification" if inside else "not_geometrically_equivalent"

    details = {
        "word": word.encode(),
        "sigma_word": sw.encode(),
        "span_rank": span.rank,
        "witness": None if inside else sw.encode(),
    }
    return Certificate("smallest-closed", verdict, alg, system, report, details)
