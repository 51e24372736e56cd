"""Replaced algorithms kept as oracles for the code that replaced them.

Each ``_old_*`` function is a verbatim copy of an earlier implementation:
the pivot-by-pivot residue loops (one per coefficient type), the sigma step
that took two normal forms per product, the admissibility check that
searched every tuple of basis monomials for a failing law, the build that
row-reduced every free-magma monomial of each multidegree (with
``monomials_of_multidegree``, the enumeration it used), the build that
row-reduced them degree by degree with products of basis monomials
(``_old_phi_build``), and the polynomial gcd whose primitive parts kept a
constant factor, the identity check that ran its own loop over tuples of
basis monomials, the reducer that sorted and resolved its substitutions on
every call, the row reducer that kept every rational value a Fraction, and
the evaluation of a law in the new product and the invertibility rank over
Q(t), both replaced by the rational parts of sigma on words, the
substitution that built a polynomial per term, the lone-factor test that
compared with the equation made monic, the field automorphism that reduced
its image by a full gcd, and the kernel test that recomputed alpha(v) and
its residue for every leaf, the two polynomial printers of Scalar and
ParamPoly, the row reducer whose rational flag chose how to normalise a
pivot (and ``_UnitPivotRowReducer``, the one after it, which divided every
row by its pivot entry as it stored it, with Fractions where that left
any), the build's identity instances that grafted each scheme term into a
monomial before taking normal forms of its two children, and the gcd and
cancellation that ran the primitive PRS on every pair of nonconstant
arguments, and the spellings of a product by a constant that ``*``
replaced (with the hash formulas of Scalar and ParamPoly), the case solver
whose nodes substituted their whole chain and factored every equation anew
(with the elimination that listed the terms of each unknown apart), the
monomial printer that recursed on every call, and the element and monomial
readers that scanned characters on their own (with the scalar reader that
went through ``parse_parampoly``), which must accept and reject the same
texts as the readers on one tokenizer and read the same values.  The ``_fr_*``
helpers and ``_FrScalar`` keep the Q(t) layer in which every coefficient
was a Fraction; ``_FrScalar`` prints with the old printer.
The old build and the rank oracle of the admissibility check run on the
old row reducer, and ``_old_phi_build`` on ``_UnitPivotRowReducer``; the
rank oracle takes sigma from the two-normal-form step.  The rational
tables of ``SymbolicEndomorphism`` on words are checked against the image-based ``Endomorphism.apply`` of
``endomorphism_oracle`` on the generic map, which expands every product in
the free magma; that map also stands in for alpha in the old kernel test.
``TruncatedAlgebra.product_form`` is checked against the normal form of
the ``Element`` product of the same normal forms.  ``_old_ideal_build``
is the ideal closure that multiplied ``Element``s through
``TruncatedAlgebra.multiply`` (``_old_multiply``), before it multiplied
normal forms through ``product_form``.  ``_flat_kernel_contains`` is the
kernel test that reduced every leaf of a list by its whole chain, before
``kernel_contains`` walked the case tree.  ``_old_factor_for_branching``
made the cofactor monic before ``factor_for_branching`` kept it up to a
unit, ``_old_one_pass_substitute`` ran its product pass for a zero image
too, and ``_old_reduce_by`` built a polynomial per division step;
``_old_solve_cases`` factors with the first, and keeps the lone-factor
test that relied on it (``_old_is_lone_monic``); it builds ``_OldBranch``,
the node that held its whole chain of substitutions and every hypothesis
from the root, before each ``Branch`` held only its step.  ``_old_check_op2``
(with ``_old_law_value`` and ``_old_singular_at``) formed every law's
value over Q(t) and ranked every multidegree, before ``check_op2``
decided both at the point (a : b).  ``_old_verdict_and_witness`` tried
the pairwise sums of the certified candidates after the candidates
themselves, before the witness became the first certified candidate
outside sigma(T).  ``_old_cancel`` took the gcd of a linear argument it
could not divide, ``_old_scalar_mul`` cancelled each numerator against a
unit denominator, and ``_old_per_name_substitute`` looked every unknown of
the context up in the mapping.
The current code must agree with them exactly.  The one exception is the
build under ``CUSTOM_LAWS[0]`` on one generator up to degree 8: the old
basis there has monomials with a rewritten child, which are not products
of basis monomials, so the pair-space build picks another basis of the
same algebra.
"""

import importlib.util
import itertools
import operator
import random
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from pathlib import Path
from typing import Mapping, Optional, Sequence

import pytest

from case_walk import as_tree, walk
from veralg import cases, closure
from veralg import variety as variety_module
from veralg.cases import OP2_GRID
from veralg.closure import (
    TruncatedIdeal,
    _is_lone,
    _is_variable,
    coordinates,
    gen_constraints,
    ideal_build,
    kernel_contains,
    solve_cases,
)
from veralg.freealg import (
    Element,
    GeneratorSet,
    Monomial,
    SymbolicEndomorphism,
    enumerate_monomials,
    parse_element,
    parse_monomial,
)
from veralg.scalars import (
    CyclicSubstitution,
    FieldAutomorphism,
    FieldSpec,
    ParamContext,
    ParamPoly,
    Scalar,
    ZeroInversion,
    _NAME_RE,
    _Record,
    _cancel,
    _div,
    _exact,
    _format_poly,
    _grlex,
    _join_last,
    _monic_den,
    _p_add,
    _p_div,
    _p_divexact,
    _p_gcd,
    _p_is_const,
    _p_lead,
    _p_monic,
    _p_mul,
    _p_neg,
    _proportional,
    _rational,
    _signed_coeff,
    _signed_int,
    _split_last,
    _uni_prem,
    check_elimination_order,
    check_next_substitution,
    factor_for_branching,
    parampoly_reduce,
    parse_parampoly,
    parse_scalar,
    substitute_in_order,
)
from veralg.variety import (
    _ONE,
    RATIONALS,
    IdentityScheme,
    RowReducer,
    VarietyPresentation,
    _compositions,
    _instance,
    _multidegrees,
    _tree,
    build_truncated,
    builtin_variety,
    builtin_variety_names,
    polarize,
    slot_symmetries,
)
from veralg.verbal import (
    Op2Report,
    VerbalSystem,
    _clean,
    _combine,
    _sigma_parts,
    check_op2,
    default_op2_bound,
    word_transform,
)

from endomorphism_oracle import Endomorphism, evaluate, product, truncate
from test_closure import SLOW_JOBS
from test_variety import check_identity, rewrite_rows

F = FieldSpec(("t1", "t2"))
G = GeneratorSet.default(2)
CTX = ParamContext(F, ("u", "v"))


class _OldRowReducer:
    """Incremental reduced row echelon form over an exact coefficient type.

    Rows are sparse dicts {column: value}.  Each pivot sits on its row's
    largest column and is kept fully back-eliminated, so the non-pivot
    (earliest independent) columns are exactly the surviving basis and every
    pivot row reads as: pivot monomial = combination of basis monomials.
    """

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots = {}  # pivot column -> row dict, row[pivot] == 1

    def reduce(self, row: dict) -> dict:
        """The row modulo the span: every pivot column eliminated.

        Row values may be any exact type the pivot values multiply into:
        Fractions, Scalars, or ParamPolys with unknowns in them.
        """
        r = dict(row)
        out = {}
        while r:
            c = max(r)
            p = self.pivots.get(c)
            if p is None:
                out[c] = r.pop(c)
                continue
            coef = r.pop(c)
            for k, v in p.items():
                if k == c:
                    continue
                s = r.get(k, 0) - coef * v
                if not s:
                    r.pop(k, None)
                else:
                    r[k] = s
        return out

    def insert(self, row: dict) -> bool:
        """Reduce and add the row; False when it was already in the span."""
        r = self.reduce(row)
        if not r:
            return False
        c = max(r)
        inv = 1 / r[c]
        new = {k: v * inv for k, v in r.items()}
        for pr in self.pivots.values():
            coef = pr.get(c)
            if coef is None:
                continue
            del pr[c]
            for k, v in new.items():
                if k == c:
                    continue
                s = pr.get(k, 0) - coef * v
                if not s:
                    pr.pop(k, None)
                else:
                    pr[k] = s
        self.pivots[c] = new
        return True

    def contains(self, row: dict) -> bool:
        return not self.reduce(row)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def equals(self, other: "_OldRowReducer") -> bool:
        return self.pivots == other.pivots


def _old_residue(ideal, coords):
    out = dict(coords)
    for p, row in ideal.reducer.pivots.items():
        q = out.pop(p, None)
        if q is None:
            continue
        for k, v in row.items():
            if k == p:
                continue
            s = out.get(k, Scalar.zero(ideal.field)) - q * v
            if s.is_zero:
                out.pop(k, None)
            else:
                out[k] = s
    return out


def _old_residue_param(ideal, coords):
    out = dict(coords)
    for p, row in ideal.reducer.pivots.items():
        q = out.pop(p, None)
        if q is None or q.is_zero:
            continue
        for k, v in row.items():
            if k == p:
                continue
            s = out.get(k, ParamPoly.zero(q.ctx)) - q * v
            if s.is_zero:
                out.pop(k, None)
            else:
                out[k] = s
    return {k: v for k, v in out.items() if not v.is_zero}


def _old_word_transform(alg, system, m, memo):
    hit = memo.get(m)
    if hit is not None:
        return hit
    if m.degree > alg.bound:
        out = Element.zero(alg.gens, system.field)
    elif m.is_leaf:
        out = Element.from_monomial(alg.gens, system.field, m)
    else:
        left = _old_word_transform(alg, system, m.left, memo)
        right = _old_word_transform(alg, system, m.right, memo)
        lr = alg.normal_form(truncate(left * right, alg.bound))
        rl = alg.normal_form(truncate(right * left, alg.bound))
        out = lr * system.a + rl * system.b
    memo[m] = out
    return out


def _derived_eval(alg, system, m: Monomial, images: Sequence[Element]) -> Element:
    """The tree of m evaluated in the new product at the given images."""
    if m.is_leaf:
        return images[m.index]
    left = _derived_eval(alg, system, m.left, images)
    right = _derived_eval(alg, system, m.right, images)
    return alg.normal_form(truncate(product(system, left, right), alg.bound))


def _old_identity_failures(variety, system, gens, bound):
    alg = build_truncated(variety, gens, bound)
    failures = []
    for scheme in variety.multilinear():
        if scheme.arity > bound:
            continue
        found = None
        for total in range(scheme.arity, bound + 1):
            if found:
                break
            for degs in _compositions(scheme.arity, total):
                pools = [alg.basis_of_degree(d) for d in degs]
                if not all(pools):
                    continue
                for combo in itertools.product(*pools):
                    images = [
                        Element.from_monomial(gens, system.field, m) for m in combo
                    ]
                    value = Element.zero(gens, system.field)
                    for m, c in scheme.element.terms.items():
                        part = _derived_eval(alg, system, m, images)
                        value = value + part * c.as_fraction()
                    if not value.is_zero:
                        found = (
                            scheme.encode(),
                            tuple(m.encode() for m in combo),
                        )
                        break
                if found:
                    break
        if found:
            failures.append(found)
    return tuple(failures)


def _rand_scalar(rng):
    num = {(rng.randrange(2), rng.randrange(2)): Fraction(rng.randrange(-3, 4) or 1)}
    den = {(rng.randrange(2), 0): Fraction(1), (0, 0): Fraction(rng.randrange(1, 3))}
    return Scalar(F, num, den)


def _rand_param(rng):
    out = ParamPoly.zero(CTX)
    for _ in range(rng.randrange(1, 4)):
        e = (rng.randrange(3), rng.randrange(2))
        out = out + ParamPoly(CTX, {e: _rand_scalar(rng)})
    return out


IDEALS = (
    ("alllinear", 3, "t1 * (x1 x2) + (x2 x1)", 3),
    ("commutative", 3, "(x1 x2)", 4),
    ("lie", 5, "t1 * (x1 (x1 ((x1 x2) x2))) + ((x1 (x1 x2)) (x1 x2))", 6),
)


@pytest.mark.parametrize("variety,bound,text,tail", IDEALS)
def test_residue_matches_old_loops(variety, bound, text, tail):
    rng = random.Random(f"{variety}/{bound}")
    alg = build_truncated(builtin_variety(variety), G, bound)
    ideal = ideal_build(alg, F, (parse_element(text, G, F),), tail)
    assert ideal.reducer.pivots
    columns = range(len(alg.all_basis()))
    for _ in range(8):
        picked = [j for j in columns if rng.random() < 0.5]
        scalars = {j: _rand_scalar(rng) for j in picked}
        assert ideal.residue(scalars) == _old_residue(ideal, scalars)
        params = {j: _rand_param(rng) for j in picked}
        params = {j: p for j, p in params.items() if not p.is_zero}
        assert ideal.residue(params) == _old_residue_param(ideal, params)


# laws under which a basis monomial can have a rewritten child, so that
# c - phi(c) reduces to a row whose pivot is a later product column
CUSTOM_LAWS = (
    "((y1 y2) (y3 y4)) - (y1 (y2 (y3 y4)))",
    "(y1 ((y2 y3) y4)) - ((y1 y2) (y3 y4))",
    "(y1 (y2 y3)) - ((y1 y2) y3) + (y2 (y1 y3))",
)


def _custom_variety(law):
    return VarietyPresentation(law, (IdentityScheme.from_string(law),))


def _variety(name):
    """A built-in variety by name, or the variety of one custom law."""
    return _custom_variety(name) if "(" in name else builtin_variety(name)


SIGMA_ALGEBRAS = (("lie", 5), ("alternative", 4), ("alllinear", 4)) + tuple(
    (law, 5) for law in CUSTOM_LAWS
)
SIGMA_SYSTEMS = (("t1", "(t1 + 1)/t2"), ("(t1 + 1)/t2", "t1 - t2"))


@pytest.mark.parametrize("variety,bound", SIGMA_ALGEBRAS)
@pytest.mark.parametrize("a,b", SIGMA_SYSTEMS)
def test_word_transform_matches_two_normal_forms(variety, bound, a, b):
    alg = build_truncated(_variety(variety), G, bound)
    system = VerbalSystem.parse(F, "swap", a, b)
    memo = {}
    for m in alg.all_basis():
        assert word_transform(alg, system, m) == _old_word_transform(
            alg, system, m, memo
        ), m.encode()


@pytest.mark.parametrize("variety,bound", (("lie", 4), ("jordan", 4), ("alternative", 3)))
def test_symbolic_normal_form_commutes_with_evaluation(variety, bound):
    rng = random.Random(f"nf/{variety}")
    alg = build_truncated(builtin_variety(variety), G, bound)
    alpha = Endomorphism.generic_linear(G, F, extra=("rho",))
    sources = [
        "t1 * (x1 (x1 x2)) + ((x2 x1) x1)",
        "((x1 x2) (x1 x2)) - t2 * (x2 (x1 (x1 x1)))",
        "(x2 x2) + (t1 + 1)/t2 * ((x2 x1) x2)",
    ]
    for text in sources:
        el = alpha.apply(parse_element(text, G, F), bound)
        el = el + el * Scalar.transcendental(F, "t2")
        for _ in range(4):
            values = {n: _rand_scalar(rng) for n in alpha.domain.names}
            assert evaluate(alg.normal_form(el), values) == alg.normal_form(
                evaluate(el, values)
            )


def _old_singular(alg, system):
    """The multidegrees where sigma is singular, ranked by the old reducer."""
    singular = []
    memo = {}
    for d in range(1, alg.bound + 1):
        for md in alg.multidegrees(d):
            basis = alg.basis_of_multidegree(md)
            if not basis:
                continue
            index = {m: i for i, m in enumerate(basis)}
            red = _OldRowReducer()
            for m in basis:
                img = _old_word_transform(alg, system, m, memo)
                red.insert({
                    index[b]: c if c.as_fraction() is None else c.as_fraction()
                    for b, c in img.terms.items()
                })
            if red.rank < len(basis):
                singular.append(md)
    return tuple(singular)


def _assert_identity_check_matches_old(variety, system, gens, bound=None):
    report = check_op2(variety, system, gens, bound)
    old = _old_identity_failures(variety, system, gens, report.bound)
    assert report.identity_ok == (not old)
    assert report.identity_failures == old
    alg = build_truncated(variety, gens, report.bound)
    assert report.singular_multidegrees == _old_singular(alg, system)


# the old search spends about 5 s on the whole PowerAssociative row
OP2_CELLS = tuple(
    (name, a, b)
    for name in builtin_variety_names()
    for a, b in OP2_GRID
    if name != "PowerAssociative" or (a, b) in ((1, 0), (1, 1))
)


@pytest.mark.parametrize("variety,a,b", OP2_CELLS)
def test_identity_check_matches_tuple_search(variety, a, b):
    system = VerbalSystem.parse(F, "id", str(a), str(b))
    _assert_identity_check_matches_old(builtin_variety(variety), system, G)


# three generators; bound 5 where the truncation is cheap, the default else
SEEDED_OP2 = (
    ("commutative", 5),
    ("anticommutative", 5),
    ("lie", 5),
    ("jordan", None),
    ("alternative", None),
)


def _rand_term(rng):
    # one term c * t1^i * t2^j: sigma's powers of it stay single terms
    c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randrange(1, 3))
    return Scalar(F, {(rng.randrange(2), rng.randrange(2)): c}, {(0, 0): Fraction(1)})


@pytest.mark.parametrize("variety,bound", SEEDED_OP2)
def test_identity_check_matches_tuple_search_seeded(variety, bound):
    rng = random.Random(f"op2/{variety}")
    swap = FieldAutomorphism.parse("swap", F)
    for b in (Scalar.zero(F), _rand_term(rng)):
        system = VerbalSystem(swap, _rand_term(rng), b)
        _assert_identity_check_matches_old(
            builtin_variety(variety), system, GeneratorSet.default(3), bound
        )


# the grid, a singular pair, and two pairs with a/b not rational, which
# check_op2 no longer ranks; bounds where the old rank over Q(t1, t2) stays
# under a second (AllLinear at bound 4 takes it about 4 s)
RANK_SYSTEMS = OP2_GRID + ((2, -2), ("t1", "t2"), ("(t1 + 1)/t2", "t1 - t2"))
RANK_BOUNDS = {
    "AllLinear": 3,
    "Commutative": 4,
    "Anticommutative": 5,
    "Lie": 5,
    "Jordan": 4,
    "Alternative": 4,
    "PowerAssociative": 3,
}


@pytest.mark.parametrize("variety", builtin_variety_names())
@pytest.mark.parametrize("a,b", RANK_SYSTEMS)
def test_singular_multidegrees_match_old_rank(variety, a, b):
    system = VerbalSystem.parse(F, "swap", str(a), str(b))
    bound = RANK_BOUNDS[variety]
    report = check_op2(builtin_variety(variety), system, G, bound)
    alg = build_truncated(builtin_variety(variety), G, bound)
    assert report.singular_multidegrees == _old_singular(alg, system)


def _old_law_value(variety, system, scheme) -> Element:
    """The law at the free generators of F_V(arity) in the new product, reduced.

    The parts of the law, the sums of its coefficients times the parts of
    its terms, are memoised with the parts of the free algebra; every term
    of a multilinear law of arity k has degree k.
    """
    k = scheme.arity
    free = build_truncated(variety, GeneratorSet.default(k), k, multilinear=True)
    parts = free._sigma_memo.get(scheme)
    if parts is None:
        ys = tuple(free.gens.generator(i) for i in range(k))
        acc = [{} for _ in range(k)]
        for m, c in scheme.substitute(ys, free.gens).items():
            for total, part in zip(acc, _sigma_parts(free, m)):
                for b, v in part.items():
                    total[b] = total.get(b, 0) + c * v
        parts = free._sigma_memo[scheme] = tuple(_clean(t) for t in acc)
    return _combine(free.gens, system, parts)


def _old_singular_at(alg, mdeg, ratio: Fraction) -> bool:
    """Is sum over j of ratio^(n-1-j) M_j singular on the multidegree?"""
    basis = alg.basis_of_multidegree(mdeg)
    n = sum(mdeg)
    index = {m: i for i, m in enumerate(basis)}
    weights = [ratio ** (n - 1 - j) for j in range(n)]
    red = RowReducer()
    for m in basis:
        row = {}
        for w, part in zip(weights, _sigma_parts(alg, m)):
            if w:
                for b, v in part.items():
                    i = index[b]
                    row[i] = row.get(i, 0) + w * v
        red.insert(_clean(row))
    return red.rank < len(basis)


def _old_check_op2(
    variety: VarietyPresentation,
    system: VerbalSystem,
    gens: Optional[GeneratorSet] = None,
    bound: Optional[int] = None,
) -> Op2Report:
    """Is the new product an operation of the variety, with sigma invertible?

    The two-sided word a(x1 x2) + b(x2 x1) is only a genuine two-parameter
    family when x1 x2 and x2 x1 are independent in the algebra; when that
    component is one-dimensional the second term folds into the first, and
    only the representative with b = 0 is admitted (form check).  Both this
    and the invertibility of sigma on each multihomogeneous component are
    verified on the truncated relatively-free algebra on `gens`.

    The laws are decided at the free generators instead.  The new product is
    a verbal operation, so it commutes with homomorphisms: a multilinear law
    of arity k (at most `bound`) holds for it in every algebra of the
    variety exactly when it vanishes at y1..yk in the multilinear part of
    F_V(k).  For a law that fails, the witness in `identity_failures` is for
    display only: the first tuple of basis monomials of the truncation whose
    substitution into that value has a nonzero normal form (the new product
    commutes with substitution, so the law fails there), or the slot names
    y1..yk when there is none.

    Invertibility is decided from the parts of sigma on words.  On a
    multidegree of degree n with N basis monomials, the matrix of sigma is
    sum over j of a^(n-1-j) b^j M_j, where M_j holds part j of sigma on each
    basis monomial, and M_0 is the identity.  So when b = 0 it is a^(n-1)
    times the identity, with a != 0, and otherwise its determinant is
    b^(N(n-1)) p(a/b) for p(x) = det(sum x^(n-1-j) M_j), a monic polynomial
    over Q.  A nonconstant rational function is transcendental over Q, so
    p(a/b) != 0 unless a/b is rational.  Only then is a matrix ranked: the
    rational matrix sum (a/b)^(n-1-j) M_j, on each multidegree of degree at
    least 2 (sigma fixes the generators).
    """
    if gens is None:
        gens = GeneratorSet.default(2)
    if bound is None:
        bound = default_op2_bound(variety)
    alg = build_truncated(variety, gens, bound)

    form_ok = True
    if gens.size >= 2 and bound >= 2:
        md = tuple([1, 1] + [0] * (gens.size - 2))
        if len(alg.basis_of_multidegree(md)) == 1 and not system.b.is_zero:
            form_ok = False

    failures = []
    for scheme in variety.multilinear():
        if scheme.arity > bound:
            continue
        value = _old_law_value(variety, system, scheme)
        if not value.is_zero:
            combo = alg.failing_tuple(value)
            if combo is None:
                witness = scheme.ygens.names
            else:
                witness = tuple(m.encode() for m in combo)
            failures.append((scheme.encode(), witness))

    singular = []
    ratio = None if system.b.is_zero else (system.a / system.b).as_fraction()
    if ratio is not None:
        for d in range(2, bound + 1):
            for md in alg.multidegrees(d):
                if _old_singular_at(alg, md, ratio):
                    singular.append(md)

    return Op2Report(
        variety=variety.name,
        phi=system.phi.encode(),
        a=system.a.encode(),
        b=system.b.encode(),
        bound=bound,
        form_ok=form_ok,
        identity_ok=not failures,
        invertible=not singular,
        identity_failures=tuple(failures),
        singular_multidegrees=tuple(singular),
    )


# the grid, b = 0 and a = 0 with a symbolic partner, a rational a/b between
# two non-rational values, a singular one, a/b = t1/t2 and a non-rational
# pair of rational functions
POINT_SYSTEMS = OP2_GRID + (
    ("t1", "0"),
    ("0", "t2"),
    ("2*t1", "t1"),
    ("t1", "-t1"),
    ("t1", "t2"),
    ("(t1 + 1)/t2", "t1 - t2"),
)


@pytest.mark.parametrize("variety", builtin_variety_names() + CUSTOM_LAWS)
@pytest.mark.parametrize("k", (1, 2, 3))
def test_check_op2_at_the_point_matches_old(variety, k):
    gens = GeneratorSet.default(k)
    for phi in ("id", "swap"):
        for a, b in POINT_SYSTEMS:
            system = VerbalSystem.parse(F, phi, str(a), str(b))
            new = check_op2(_variety(variety), system, gens).as_dict()
            old = _old_check_op2(_variety(variety), system, gens).as_dict()
            assert new == old, (phi, a, b)


@lru_cache(maxsize=None)
def monomials_of_multidegree(gens: GeneratorSet, mdeg: tuple) -> tuple:
    """All monomials of the given multidegree, in canonical order.

    Each is a product (u v) with u of a proper nonzero sub-multidegree l and
    v of mdeg - l, so no monomial of another multidegree is ever created.
    """
    degree = sum(mdeg)
    if degree == 1:
        return (gens.generator(mdeg.index(1)),)
    out = []
    for lmd in itertools.product(*(range(e + 1) for e in mdeg)):
        if 0 < sum(lmd) < degree:
            rmd = tuple(map(operator.sub, mdeg, lmd))
            rights = monomials_of_multidegree(gens, rmd)
            lefts = monomials_of_multidegree(gens, lmd)
            out.extend(gens.pair(u, v) for u in lefts for v in rights)
    out.sort(key=lambda m: m.sort_key)
    return tuple(out)


def _old_build(variety, gens, bound, multilinear=False):
    """The build before degree-by-degree products: (components, rewrite)."""
    schemes = variety.multilinear()
    rows = {}  # multidegree -> list of index rows
    mono_lists = {}
    index = {}
    mdeg_of = {}  # built monomial -> its multidegree
    pools = {}  # degree -> the built monomials, in canonical order
    for d in range(1, bound + 1):
        pool = []
        for md in _multidegrees(gens.size, d):
            if multilinear and max(md) > 1:
                continue
            ms = monomials_of_multidegree(gens, md)
            mono_lists[md] = ms
            index[md] = {m: i for i, m in enumerate(ms)}
            rows[md] = []
            mdeg_of.update(dict.fromkeys(ms, md))
            pool.extend(ms)
        pools[d] = sorted(pool, key=lambda m: m.sort_key)

    for s in schemes:
        if s.arity > bound:
            continue
        for total in range(s.arity, bound + 1):
            for degs in _compositions(s.arity, total):
                for combo in itertools.product(*(pools[d] for d in degs)):
                    md = tuple(map(sum, zip(*(mdeg_of[m] for m in combo))))
                    idx = index.get(md)
                    if idx is None:
                        continue
                    inst = s.substitute(combo, gens)
                    if inst:
                        rows[md].append(
                            {idx[m]: Fraction(f) for m, f in inst.items()}
                        )

    reducers = {}
    for md in mono_lists:
        d = sum(md)
        red = _OldRowReducer()
        reducers[md] = red
        for row in rows[md]:
            red.insert(row)
        if d == bound or not red.pivots:
            continue
        monos = mono_lists[md]
        pivot_elements = [
            tuple((monos[k], v) for k, v in prow.items())
            for prow in red.pivots.values()
        ]
        for pel in pivot_elements:
            for k in range(1, bound - d + 1):
                for u in pools[k]:
                    pmd = tuple(map(operator.add, md, mdeg_of[u]))
                    idx = index.get(pmd)
                    if idx is None:
                        continue
                    left = {}
                    right = {}
                    for m, v in pel:
                        left[idx[gens.pair(u, m)]] = v
                        right[idx[gens.pair(m, u)]] = v
                    rows[pmd].extend((left, right))

    components = {}
    rewrite = {}
    for md, monos in mono_lists.items():
        red = reducers[md]
        basis = tuple(
            monos[i] for i in range(len(monos)) if i not in red.pivots
        )
        components[md] = (monos, basis)
        for c, prow in red.pivots.items():
            rewrite[monos[c]] = tuple(
                (monos[k], -v) for k, v in sorted(prow.items()) if k != c
            )
    return components, rewrite


def _old_phi_build(variety, gens, bound, multilinear=False):
    """The build before the pair space: (components, rewrite).

    It row-reduced every monomial of each multidegree.  ``components`` maps
    a multidegree to (all its monomials, basis), and ``rewrite`` holds the
    row of every monomial outside the basis.

    Every multidegree up to the bound is built, or with ``multilinear=True``
    only those whose entries are all at most 1.  Degrees are built in
    increasing order.  In degree d, a monomial c = (l r) has
    phi(c) = nf(l) nf(r), expanded over the pair columns (b b') of basis
    monomials b, b' already built; phi fixes every pair column.  The rows of
    a multidegree are

    - phi of every identity instance at a tuple of basis fillers whose
      multidegrees add up to it (a tuple is skipped before it is
      substituted when that multidegree is not built), and
    - c - phi(c) for every other monomial c.

    Their span is the full build's ideal component.  The rows c - phi(c)
    span the kernel of phi, which consists of the products with the ideal
    in lower degrees.  Modulo that kernel an instance at any fillers is a
    combination of instances at basis fillers, since the schemes are
    multilinear.  A reduced row echelon form is unique for its row space and
    column order, so the basis and every rewrite row are the ones the full
    space of monomials would give.

    Identity instances are computed on the numbers of normal forms, and no
    monomial is built for them.  A table ``prod`` maps the numbers of nf(l)
    and nf(r) to the number of nf((l r)); it is filled from the monomials of
    each degree below the bound as they are numbered.  It is well defined up
    to the form: c - phi(c) lies in the ideal, so nf((l r)) depends only on
    nf(l) and nf(r).  Two numbers can name one form (a basis monomial, and a
    monomial that rewrites to it alone), but phi reads only the forms, so
    either number gives the same row.  At a tuple of fillers, a slot of a
    scheme term maps to its filler's number, an inner node to ``prod`` of
    its factors' numbers, and the top node to the pair of numbers that phi
    takes; coefficients are summed per pair.  A law of arity 1 acts in
    degree 1 only, where its instances are substituted as monomials.

    The monomials c are taken in canonical order, and no row holds c before
    its own.  So when c - phi(c), reduced, has no column later than c, it is
    already the reduced pivot row of c and is stored without elimination.
    """
    if bound < 1:
        raise ValueError("the degree bound must be at least 1")

    schemes = variety.multilinear()
    components = {}
    rewrite = {}
    generators = tuple(gens.generator(i) for i in range(gens.size))
    # degree -> its basis monomials in canonical order; in degree 1 the
    # generators stand in until their components are built
    fillers = {1: generators}
    mdeg_of = {g: g.multidegree for g in generators}
    # Normal forms below the bound are numbered: a basis monomial has its own
    # number, and monomials that rewrite to the same combination share one.
    form_of = {}  # monomial below the bound -> the number of its normal form
    forms = []  # number -> ((number of a basis monomial, coefficient), ...)
    basic = set()  # the numbers of basis monomials
    numbered = {}  # normal form of a rewritten monomial -> its number
    prod = {}  # (number of nf(l), number of nf(r)) -> number of nf((l r))
    # each scheme's terms as (slot trees of the two factors, coefficient)
    trees = {s: tuple((_tree(m), f) for m, f in s._terms) for s in schemes}
    for d in range(1, bound + 1):
        mss = {
            md: monomials_of_multidegree(gens, md)
            for md in _multidegrees(gens.size, d)
            if not multilinear or max(md) <= 1
        }
        # (number of nf(l), number of nf(r)) for each monomial (l r)
        splits = {}
        pair_col = {}  # pair of basis numbers -> column of their product
        if d > 1:
            for md, ms in mss.items():
                keys = [(form_of[m.left], form_of[m.right]) for m in ms]
                splits[md] = keys
                for c, (i, j) in enumerate(keys):
                    if i in basic and j in basic:
                        pair_col[i, j] = c

        def phi(terms):
            """phi of the sum of f (l r) over ((nf(l), nf(r)) numbers, f)."""
            acc = {}
            for (i, j), f in terms:
                for bi, x in forms[i]:
                    fx = x if f is _ONE else f * x
                    for bj, y in forms[j]:
                        v = fx if y is _ONE else fx * y
                        k = pair_col[bi, bj]
                        s = acc.get(k)
                        acc[k] = v if s is None else s + v
            return {k: v for k, v in acc.items() if v}

        reducers = {md: _UnitPivotRowReducer() for md in mss}
        for s in schemes:
            if s.arity > d or (s.arity == 1 and d > 1):
                # a law of arity 1 kills degree 1, and with it every product
                continue
            for degs in _compositions(s.arity, d):
                for combo in itertools.product(*(fillers[k] for k in degs)):
                    md = tuple(map(sum, zip(*(mdeg_of[m] for m in combo))))
                    red = reducers.get(md)
                    if red is None:
                        continue
                    if d == 1:
                        ms = mss[md]
                        inst = s.substitute(combo, gens)
                        red.insert({ms.index(m): f for m, f in inst.items()})
                    else:
                        inst = _instance(trees[s], [form_of[m] for m in combo], prod)
                        red.insert(phi(inst.items()))

        degree_basis = []
        for md, ms in mss.items():
            red = reducers.pop(md)  # freed once its rewrite rows are read
            # number pair -> -reduce(phi(c)), valid until the next insert,
            # with the rewrite row it gives a directly placed pivot
            reduced = {}
            for c, key in enumerate(splits.get(md, ())):
                if key[0] in basic and key[1] in basic:
                    continue
                hit = reduced.get(key)
                if hit is None:
                    r = red.reduce(phi(((key, _ONE),)))
                    hit = reduced[key] = (
                        {k: -v for k, v in r.items()},
                        tuple((ms[k], v) for k, v in sorted(r.items())),
                    )
                row, rw = hit
                if not row or max(row) < c:
                    # no pivot row holds c yet: this is what insert would
                    # store, and no later insert touches it
                    red.pivots[c] = {**row, c: _ONE}
                    rewrite[ms[c]] = rw
                else:
                    red.insert({**row, c: _ONE})
                    reduced.clear()
            pivots = red.pivots
            basis = tuple(ms[i] for i in range(len(ms)) if i not in pivots)
            components[md] = (ms, basis)
            degree_basis.extend(basis)
            for c, prow in pivots.items():
                if ms[c] not in rewrite:
                    rewrite[ms[c]] = tuple(
                        (ms[k], -v) for k, v in sorted(prow.items()) if k != c
                    )
            if d < bound:
                for b in basis:
                    form_of[b] = len(forms)
                    basic.add(len(forms))
                    forms.append(((len(forms), _ONE),))
                    mdeg_of[b] = md
                for c in pivots:
                    form = tuple((form_of[b], f) for b, f in rewrite[ms[c]])
                    number = numbered.get(form)
                    if number is None:
                        number = numbered[form] = len(forms)
                        forms.append(form)
                    form_of[ms[c]] = number
                for key, m in zip(splits.get(md, ()), ms):
                    prod[key] = form_of[m]
        degree_basis.sort(key=lambda m: m.sort_key)
        fillers[d] = tuple(degree_basis)

    return components, rewrite


def _rand_rational(rng):
    if rng.randrange(2):
        return rng.randrange(-4, 5)
    return Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))


def test_row_reducer_matches_old_on_seeded_rows():
    # int and Fraction values; the old reducer gets them as Fractions
    rng = random.Random("row-reducer")
    for _ in range(200):
        cols = rng.randrange(2, 9)
        new, old = RowReducer(), _OldRowReducer()
        for _ in range(rng.randrange(1, 10)):
            row = {c: _rand_rational(rng) for c in range(cols) if rng.randrange(3)}
            row = {c: v for c, v in row.items() if v}
            as_fractions = {c: Fraction(v) for c, v in row.items()}
            assert new.insert(row) == old.insert(as_fractions)
        assert new.pivots == old.pivots
        probe = {c: _rand_rational(rng) for c in range(cols)}
        assert new.reduce(probe) == old.reduce(
            {c: Fraction(v) for c, v in probe.items()}
        )
        for prow in new.pivots.values():
            for v in prow.values():
                assert type(v) is int or (
                    type(v) is Fraction and v.denominator != 1
                )


class _RationalFlagRowReducer:
    """The row reducer whose rational flag chose how to normalise a pivot."""

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots = {}  # pivot column -> row dict, row[pivot] == 1

    def reduce(self, row: dict) -> dict:
        r = dict(row)
        out = {}
        while r:
            c = max(r)
            p = self.pivots.get(c)
            if p is None:
                v = r.pop(c)
                if type(v) is Fraction and v.denominator == 1:
                    v = v.numerator
                out[c] = v
                continue
            coef = r.pop(c)
            for k, v in p.items():
                if k == c:
                    continue
                s = r.get(k, 0) - coef * v
                if not s:
                    r.pop(k, None)
                else:
                    r[k] = s
        return out

    def insert(self, row: dict) -> bool:
        r = self.reduce(row)
        if not r:
            return False
        c = max(r)
        x = r[c]
        rational = type(x) is int or type(x) is Fraction
        if not rational:
            inv = 1 / x
            new = {k: v * inv for k, v in r.items()}
        elif x == 1:
            new = r
        else:
            inv = Fraction(1, x)
            new = {k: _exact(v * inv) for k, v in r.items()}
        for pr in self.pivots.values():
            coef = pr.get(c)
            if coef is None:
                continue
            del pr[c]
            for k, v in new.items():
                if k == c:
                    continue
                s = pr.get(k, 0) - coef * v
                if not s:
                    pr.pop(k, None)
                elif rational and type(s) is Fraction and s.denominator == 1:
                    pr[k] = s.numerator
                else:
                    pr[k] = s
        self.pivots[c] = new
        return True


class _UnitPivotRowReducer:
    """The row reducer that divided every row by its pivot entry as it
    stored it: one pivot rule (``_div``, then ``_exact``) for ints,
    Fractions and Scalars, and Fractions inside its rows wherever a pivot
    was not 1.  Replaced by the fraction-free rows of ``RowReducer``.
    """

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots = {}  # pivot column -> row dict, row[pivot] == 1

    def reduce(self, row: dict) -> dict:
        r = dict(row)
        out = {}
        while r:
            c = max(r)
            p = self.pivots.get(c)
            if p is None:
                out[c] = _exact(r.pop(c))
                continue
            coef = r.pop(c)
            for k, v in p.items():
                if k == c:
                    continue
                s = r.get(k, 0) - coef * v
                if not s:
                    r.pop(k, None)
                else:
                    r[k] = s
        return out

    def insert(self, row: dict) -> bool:
        r = self.reduce(row)
        if not r:
            return False
        c = max(r)
        x = r[c]
        if x == 1:
            new = r
        else:
            inv = _div(1, x)
            new = {k: _exact(v * inv) for k, v in r.items()}
        for pr in self.pivots.values():
            coef = pr.get(c)
            if coef is None:
                continue
            del pr[c]
            for k, v in new.items():
                if k == c:
                    continue
                s = pr.get(k, 0) - coef * v
                if not s:
                    pr.pop(k, None)
                elif type(s) is Fraction and s.denominator == 1:
                    pr[k] = s.numerator
                else:
                    pr[k] = s
        self.pivots[c] = new
        return True

    def contains(self, row: dict) -> bool:
        return not self.reduce(row)

    @property
    def rank(self) -> int:
        return len(self.pivots)

def _assert_exact_value(v):
    """An int when integral and a Fraction otherwise; a Scalar of such."""
    if isinstance(v, Scalar):
        assert all(type(c) in (int, Fraction) for c in (*v.num.values(), *v.den.values()))
    else:
        assert type(v) is int or (type(v) is Fraction and v.denominator != 1), v


@pytest.mark.parametrize("kind", ("int", "Fraction", "Scalar"))
def test_row_reducer_matches_rational_flag_reducer(kind):
    rng = random.Random(f"one-rule-reducer/{kind}")
    draw = {
        "int": lambda: rng.randrange(-4, 5),
        # integral Fractions too: they are stored as ints
        "Fraction": lambda: Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)),
        "Scalar": lambda: _rand_scalar(rng) if rng.randrange(3) else rng.randrange(-2, 3),
    }[kind]
    # Q(t) entries swell under elimination: fewer and smaller systems
    size = 5 if kind == "Scalar" else 8
    pivots_not_one = 0
    for _ in range(40 if kind == "Scalar" else 120):
        cols = rng.randrange(2, size)
        new, old = RowReducer(), _RationalFlagRowReducer()
        for _ in range(rng.randrange(1, size)):
            row = {c: draw() for c in range(cols) if rng.randrange(3)}
            row = {c: v for c, v in row.items() if v}
            reduced = new.reduce(row)
            pivots_not_one += bool(reduced) and reduced[max(reduced)] != 1
            assert new.insert(row) == old.insert(row)
            assert new.pivots == old.pivots
        probe = {c: draw() for c in range(cols)}
        got = new.reduce(probe)
        assert got == old.reduce(probe)
        for v in got.values():
            _assert_exact_value(v)
        for prow in new.pivots.values():
            for v in prow.values():
                _assert_exact_value(v)
    assert pivots_not_one



def _typed(row: dict) -> dict:
    return {k: (type(v), v) for k, v in row.items()}


@pytest.mark.parametrize("kind", ("int", "Fraction", "mixed"))
def test_row_reducer_matches_unit_pivot_reducer(kind):
    # fraction-free rows give the same inserts, pivots and residues, value
    # types included; a mixed reducer takes rows of ints and rows with
    # Scalars among ints, and an int row meets a Scalar row's pivot
    rng = random.Random(f"unit-pivot-reducer/{kind}")

    def draw_row(cols):
        if kind == "int":
            draw = lambda: rng.randrange(-6, 7)
        elif kind == "Fraction":
            draw = lambda: Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
        elif rng.randrange(2):
            draw = lambda: rng.randrange(-4, 5)
        else:
            draw = lambda: _rand_scalar(rng) if rng.randrange(3) else rng.randrange(-2, 3)
        row = {c: draw() for c in range(cols) if rng.randrange(3)}
        return {c: v for c, v in row.items() if v}

    size = 5 if kind == "mixed" else 8
    denominators = 0
    for _ in range(40 if kind == "mixed" else 150):
        cols = rng.randrange(2, size)
        new, old = RowReducer(), _UnitPivotRowReducer()
        for _ in range(rng.randrange(1, size)):
            row = draw_row(cols)
            assert new.insert(row) == old.insert(row)
            assert {c: _typed(r) for c, r in new.pivots.items()} == {
                c: _typed(r) for c, r in old.pivots.items()
            }
            denominators += any(
                type(r[c]) is int and r[c] != 1 for c, r in new._rows.items()
            )
        probe = draw_row(cols)
        assert _typed(new.reduce(probe)) == _typed(old.reduce(probe))
        assert new.contains(probe) == old.contains(probe)
        assert new.rank == old.rank
    # rows over a denominator other than 1 were stored and eliminated
    assert denominators

def _assert_build_matches_old(variety, k, bound, multilinear=False):
    """The build has the old basis, and every old rewrite row.

    Its columns are the old monomials that are products of two old basis
    monomials (in degree 1, the generator), and the rows of the others are
    read through normal_form.
    """
    gens = GeneratorSet.default(k)
    alg = build_truncated(variety, gens, bound, multilinear=multilinear)
    components, rewrite = _old_build(variety, gens, bound, multilinear)
    basis = {m for _, b in components.values() for m in b}
    assert alg.components == {
        md: (
            tuple(
                m for m in monos
                if m.is_leaf or (m.left in basis and m.right in basis)
            ),
            b,
        )
        for md, (monos, b) in components.items()
    }
    assert rewrite_rows(alg) == rewrite
    return alg


def _assert_build_equivalent_to_old(variety, k, bound):
    """A build whose basis differs from the old one: the same algebra.

    The dimensions agree, the new basis is closed under children, and
    every old rewrite row holds in the new algebra.
    """
    gens = GeneratorSet.default(k)
    alg = build_truncated(variety, gens, bound)
    components, rewrite = _old_build(variety, gens, bound)
    old_dims = {d: 0 for d in range(1, bound + 1)}
    for md, (_, b) in components.items():
        old_dims[sum(md)] += len(b)
    assert alg.dims() == old_dims
    basis = set(alg.all_basis())
    for m in basis:
        assert m.is_leaf or (m.left in basis and m.right in basis), m.encode()

    def element(terms):
        return Element(
            gens, RATIONALS, {b: Scalar.from_fraction(RATIONALS, f) for b, f in terms}
        )

    for m, row in rewrite.items():
        nf = alg.normal_form(element(((m, 1),)))
        assert nf == alg.normal_form(element(row)), m.encode()
    return alg


@pytest.mark.parametrize("name", builtin_variety_names())
@pytest.mark.parametrize("k,bound", ((1, 6), (2, 5), (3, 4)))
def test_build_matches_old(name, k, bound):
    _assert_build_matches_old(builtin_variety(name), k, bound)


@pytest.mark.parametrize("name", builtin_variety_names())
@pytest.mark.parametrize("k", (2, 3, 4))
def test_multilinear_build_matches_old(name, k):
    _assert_build_matches_old(builtin_variety(name), k, k, multilinear=True)


# these varieties are not closed under the opposite product, so a = 0 is
# singular in them; under the third law a/b = -2 and -1/2 are singular on
# different multidegrees, which tells a/b from b/a
@pytest.mark.parametrize("law", CUSTOM_LAWS)
@pytest.mark.parametrize("a,b", ((0, 1), (-2, 1), (-1, 2), (3, 1), ("t1", "t2")))
def test_custom_law_singular_multidegrees_match_old_rank(law, a, b):
    system = VerbalSystem.parse(F, "id", str(a), str(b))
    variety = _custom_variety(law)
    report = check_op2(variety, system, G, 4)
    alg = build_truncated(variety, G, 4)
    assert report.singular_multidegrees == _old_singular(alg, system)


@pytest.mark.parametrize("law", CUSTOM_LAWS)
@pytest.mark.parametrize("k,bound", ((1, 8), (2, 6)))
def test_custom_law_build_matches_old(law, k, bound):
    if (law, k, bound) == (CUSTOM_LAWS[0], 1, 8):
        # the old basis has monomials with a rewritten child (next test),
        # which are not products of basis monomials
        _assert_build_equivalent_to_old(_custom_variety(law), k, bound)
    else:
        _assert_build_matches_old(_custom_variety(law), k, bound)


def test_basis_monomial_with_rewritten_child():
    # the old builds kept basis monomials with a rewritten child; the
    # columns of the pair-space build are products of basis monomials
    variety = _custom_variety(CUSTOM_LAWS[0])
    gens = GeneratorSet.default(1)
    components, rewrite = _old_phi_build(variety, gens, 8)
    assert (components, rewrite) == _old_build(variety, gens, 8)
    assert any(
        m.left in rewrite or m.right in rewrite
        for _, basis in components.values()
        for m in basis
        if not m.is_leaf
    )
    alg = build_truncated(variety, gens, 8)
    basis = set(alg.all_basis())
    assert all(
        m.left in basis and m.right in basis for m in basis if not m.is_leaf
    )


@pytest.mark.parametrize("multilinear", (False, True))
def test_arity_one_law_build_matches_old(multilinear):
    # the law polarises into (y1 y2) and y1; the part of arity 1 kills
    # degree 1, and with it every product
    alg = _assert_build_matches_old(_custom_variety("(y1 y2) - y1"), 2, 4, multilinear)
    assert not alg.all_basis()


def _old_instance_rows(schemes, d, fillers, mdeg_of, built, gens):
    """The graft-based instance step of the build in degree d.

    Per built multidegree, the instance at every tuple of basis fillers, in
    the order the build enumerates them, as (scheme, fillers, instance) with
    the instance {monomial: coefficient}; the build then took phi of
    ((form_of[m.left], form_of[m.right]), f) over its items.
    """
    rows = {md: [] for md in built}
    for s in schemes:
        if s.arity > d or (s.arity == 1 and d > 1):
            # a law of arity 1 kills degree 1, and with it every product
            continue
        for degs in _compositions(s.arity, d):
            for combo in itertools.product(*(fillers[k] for k in degs)):
                md = tuple(map(sum, zip(*(mdeg_of[m] for m in combo))))
                if md in rows:
                    rows[md].append((s, combo, s.substitute(combo, gens)))
    return rows


def _brute_signed_symmetries(scheme):
    """(p, s) for every slot permutation p with
    scheme(y_p[0], y_p[1], ...) = s scheme, s = 1 or -1."""
    slots = [scheme.ygens.generator(i) for i in range(scheme.arity)]
    own = scheme.substitute(slots, scheme.ygens)
    neg = {m: -c for m, c in own.items()}
    out = []
    for p in itertools.permutations(range(scheme.arity)):
        moved = scheme.substitute([slots[i] for i in p], scheme.ygens)
        if moved in (own, neg):
            out.append((p, 1 if moved == own else -1))
    return out


def _brute_symmetries(scheme):
    """Every slot permutation p with scheme(y_p[0], y_p[1], ...) = +-scheme."""
    return [p for p, _ in _brute_signed_symmetries(scheme)]


def _pair_phi(pairs, nf):
    """phi of the sum of f (l r): nf(l) nf(r) over pairs of basis monomials."""
    acc = {}
    for (left, right), f in pairs:
        for b, x in nf(left):
            for b2, y in nf(right):
                acc[b, b2] = acc.get((b, b2), 0) + f * x * y
    return {k: v for k, v in acc.items() if v}


def _assert_instance_rows_match_old(monkeypatch, variety, k, bound, multilinear=False):
    """The build computes one instance per orbit of its scheme's slot
    symmetries, and phi of it equals phi of the grafted instance.

    Per multidegree, the build's number-based instances are paired with the
    grafted ones at the same fillers, which come in the build's order; a
    skipped tuple of fillers is not the least of its orbit (by the build's
    basis numbers), the least one is computed, and the grafted row of the
    skipped one is plus or minus the grafted row of the least.  An orbit
    whose least tuple a symmetry of sign -1 fixes is not computed at all,
    and its grafted rows are zero.  Returns the algebra, the build's
    normal-form numbers (number -> form) and the count of nonzero grafted
    rows.
    """
    gens = GeneratorSet.default(k)
    calls = []  # (terms, numbers of the fillers, instance on form numbers)
    forms = []  # number -> its form on basis numbers
    real = variety_module._instance

    def recording(terms, leaves, prod):
        out = real(terms, leaves, prod)
        calls.append((terms, leaves, out))
        forms[:] = prod.forms
        return out

    monkeypatch.setattr(variety_module, "_BUILD_MEMO", {})
    monkeypatch.setattr(variety_module, "_instance", recording)
    alg = build_truncated(variety, gens, bound, multilinear=multilinear)
    monkeypatch.undo()

    basis = set(alg.all_basis())
    rows = rewrite_rows(alg)

    def nf(m):
        return ((m, 1),) if m in basis else rows[m]

    # a basis monomial's form is its own number alone; the build numbers
    # them degree by degree, multidegree by multidegree, in basis order
    numbers = [n for n, f in enumerate(forms) if f == ((n, 1),)]
    numbered = [
        b
        for d in range(1, bound)
        for md in alg.multidegrees(d)
        for b in alg.basis_of_multidegree(md)
    ]
    assert len(numbers) == len(numbered) or not calls
    monomial = dict(zip(numbers, numbered))
    number = {m: n for n, m in monomial.items()}
    form = {  # number -> its form
        n: tuple((monomial[b], c) for b, c in f) for n, f in enumerate(forms)
    }
    schemes = variety.multilinear()
    scheme_of = {tuple((_tree(m), f) for m, f in s._terms): s for s in schemes}
    new = {}  # (scheme, fillers) -> phi row, in the order computed
    for terms, leaves, inst in calls:
        key = (scheme_of[terms], tuple(monomial[n] for n in leaves))
        assert key not in new, key
        new[key] = _pair_phi(inst.items(), form.__getitem__)

    symmetries = {s: _brute_signed_symmetries(s) for s in schemes}
    fillers = {d: alg.basis_of_degree(d) for d in range(1, bound)}
    mdeg_of = {m: m.multidegree for m in basis}
    nonzero = 0
    computed = {}  # multidegree -> the keys of new in it, in grafted order
    for d in range(2, bound + 1):
        built = [md for md in alg.components if sum(md) == d]
        for md, insts in _old_instance_rows(
            schemes, d, fillers, mdeg_of, built, gens
        ).items():
            old = {
                (s, combo): _pair_phi(
                    (((m.left, m.right), f) for m, f in inst.items()), nf
                )
                for s, combo, inst in insts
            }
            nonzero += sum(1 for r in old.values() if r)
            for (s, combo), row in old.items():
                orbit = {tuple(combo[i] for i in p) for p, _ in symmetries[s]}
                least = min(orbit, key=lambda t: [number[m] for m in t])
                if any(
                    sign < 0 and tuple(least[i] for i in p) == least
                    for p, sign in symmetries[s]
                ):
                    assert (s, combo) not in new and not row, (md, s, combo)
                    continue
                assert (s, least) in new, (md, s, least)
                if combo == least:
                    computed.setdefault(md, []).append((s, combo))
                    assert new[s, combo] == row, (md, s, combo)
                else:
                    assert (s, combo) not in new, (md, s, combo)
                    rep = old[s, least]
                    assert row in (rep, {c: -v for c, v in rep.items()}), (md, s, combo)
    order = {}  # multidegree -> the keys of new in it, in computed order
    for s, combo in new:
        md = tuple(map(sum, zip(*(mdeg_of[m] for m in combo))))
        order.setdefault(md, []).append((s, combo))
    assert order == computed
    return alg, form, nonzero


@pytest.mark.parametrize("name", builtin_variety_names())
@pytest.mark.parametrize("k,bound", ((2, 5), (3, 4)))
def test_instance_rows_match_grafted(monkeypatch, name, k, bound):
    *_, nonzero = _assert_instance_rows_match_old(
        monkeypatch, builtin_variety(name), k, bound
    )
    assert nonzero or name == "AllLinear"


@pytest.mark.parametrize("name", builtin_variety_names())
@pytest.mark.parametrize("k", (3, 4))
def test_multilinear_instance_rows_match_grafted(monkeypatch, name, k):
    *_, nonzero = _assert_instance_rows_match_old(
        monkeypatch, builtin_variety(name), k, k, multilinear=True
    )
    assert nonzero or name == "AllLinear"


@pytest.mark.parametrize("law", CUSTOM_LAWS)
@pytest.mark.parametrize("k,bound", ((1, 8), (2, 6)))
def test_custom_law_instance_rows_match_grafted(monkeypatch, law, k, bound):
    *_, nonzero = _assert_instance_rows_match_old(
        monkeypatch, _custom_variety(law), k, bound
    )
    assert nonzero


def test_instance_rows_with_two_numbers_for_one_form(monkeypatch):
    # a basis monomial with a rewritten child: a monomial that rewrites to
    # it alone gets a second number for the same form, and prod may give
    # either number
    _, form, _ = _assert_instance_rows_match_old(
        monkeypatch, _custom_variety(CUSTOM_LAWS[0]), 1, 8
    )
    names = {}
    for n, f in form.items():
        names.setdefault(frozenset(f), set()).add(n)
    assert any(len(ns) > 1 for ns in names.values())


@pytest.mark.parametrize("multilinear", (False, True))
def test_arity_one_law_instance_rows_match_grafted(monkeypatch, multilinear):
    alg, *_ = _assert_instance_rows_match_old(
        monkeypatch, _custom_variety("(y1 y2) - y1"), 2, 4, multilinear
    )
    assert not alg.all_basis()


# every multilinear scheme of a built-in variety, then of each custom law
SCHEMES = tuple(
    s for name in builtin_variety_names() for s in builtin_variety(name).multilinear()
) + tuple(s for law in CUSTOM_LAWS for s in _custom_variety(law).multilinear())


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.encode())
def test_slot_symmetries_are_a_group_that_fixes_the_scheme(scheme):
    group = slot_symmetries(scheme)
    assert group[0] == tuple(range(scheme.arity))
    assert list(group) == sorted(set(group)) == _brute_symmetries(scheme)
    _, _, signs, *_ = variety_module._slot_plan(scheme)
    assert list(zip(group, signs)) == _brute_signed_symmetries(scheme)
    assert {tuple(p[i] for i in q) for p in group for q in group} == set(group)
    # at random fillers of the free algebra, each permutation of the fillers
    # gives the instance times one sign
    gens = GeneratorSet.default(2)
    pool = build_truncated(builtin_variety("alllinear"), gens, 3).all_basis()
    rng = random.Random(f"slot-symmetries/{scheme.encode()}")
    for p in group:
        signs = set()
        for _ in range(30):
            fillers = [rng.choice(pool) for _ in range(scheme.arity)]
            inst = scheme.substitute(fillers, gens)
            moved = scheme.substitute([fillers[i] for i in p], gens)
            if moved == inst:
                signs.add(1 if inst else 0)
            else:
                assert moved == {m: -c for m, c in inst.items()}, (p, fillers)
                signs.add(-1)
        assert len(signs - {0}) == 1, (p, signs)


def test_builtin_slot_symmetries():
    # polarisation makes a law symmetric in the slots of each variable; the
    # Jacobi law is only cyclic
    found = {s.encode(): len(slot_symmetries(s)) for s in SCHEMES}
    assert found["(y1 y2) - (y2 y1)"] == found["(y1 y2) + (y2 y1)"] == 2
    assert found["((y1 y2) y3) + ((y2 y3) y1) + ((y3 y1) y2)"] == 3
    orders = [
        len(slot_symmetries(s)) for s in builtin_variety("powerassociative").multilinear()
    ]
    assert orders == [6, 24]
    assert [len(slot_symmetries(s)) for s in builtin_variety("jordan").multilinear()] == [2, 6]
    assert all(len(slot_symmetries(s)) == 1 for s in SCHEMES[-3:])


BASIS_SPECS = (  # the builds of the basis benchmark
    ("lie", 2, 7),
    ("alternative", 2, 6),
    ("jordan", 2, 6),
    ("powerassociative", 2, 5),
    ("lie", 3, 5),
    ("alternative", 3, 5),
    ("alllinear", 2, 6),
)


@pytest.mark.parametrize(
    "name,k,bound", BASIS_SPECS + (("jordan", 2, 7), ("powerassociative", 2, 6))
)
def test_build_matches_unit_pivot_reducer(monkeypatch, name, k, bound):
    # the rewrite tables of fraction-free rows and of rows divided by their
    # pivots are the same, value types included
    def build(reducer):
        monkeypatch.setattr(variety_module, "_BUILD_MEMO", {})
        monkeypatch.setattr(variety_module, "RowReducer", reducer)
        alg = build_truncated(builtin_variety(name), GeneratorSet.default(k), bound)
        monkeypatch.undo()
        return alg.all_basis(), {
            m: tuple((b, type(v), v) for b, v in row) for m, row in alg.rewrite.items()
        }

    new = build(RowReducer)
    assert new == build(_UnitPivotRowReducer)
    types = {t for row in new[1].values() for _, t, _ in row}
    # only Jordan's halves leave a value that is not an integer
    assert types == ({int, Fraction} if name == "jordan" else {int} if new[1] else set())


@pytest.mark.parametrize("name,k,bound", BASIS_SPECS)
def test_each_instance_is_computed_once(monkeypatch, name, k, bound):
    # no built-in law has arity 1, so every row is inserted in a degree of
    # at least 2, and each is one computed instance
    assert all(s.arity > 1 for s in builtin_variety(name).multilinear())
    instances = []
    inserts = []
    real_instance = variety_module._instance
    real_insert = RowReducer.insert

    def instance(terms, leaves, prod):
        out = real_instance(terms, leaves, prod)
        instances.append((terms, leaves, out))
        return out

    def insert(self, row):
        inserts.append(row)
        return real_insert(self, row)

    monkeypatch.setattr(variety_module, "_BUILD_MEMO", {})
    monkeypatch.setattr(variety_module, "_instance", instance)
    monkeypatch.setattr(RowReducer, "insert", insert)
    build_truncated(builtin_variety(name), GeneratorSet.default(k), bound)
    monkeypatch.undo()
    assert len(instances) == len(inserts)
    assert len({(terms, leaves) for terms, leaves, _ in instances}) == len(instances)
    # a law that a symmetry of sign -1 maps to its negative vanishes at the
    # fillers that symmetry fixes (two slots that a swap negates, filled
    # alike): no such tuple is computed
    odd = {}  # a scheme's terms -> its symmetries of sign -1
    for s in builtin_variety(name).multilinear():
        terms, group, signs, *_ = variety_module._slot_plan(s)
        odd[terms] = [p for p, sign in zip(group, signs) if sign < 0]
    for terms, leaves, _ in instances:
        assert all(tuple(leaves[i] for i in p) != leaves for p in odd[terms]), leaves
    # no instance repeats another, nor, of one law, its negative
    rows = [frozenset(out.items()) for _, _, out in instances]
    assert len(set(rows)) == len(rows)
    nonzero = [(terms, out) for terms, _, out in instances if any(out.values())]
    signed = {
        (terms, frozenset((key, sign * v) for key, v in out.items()))
        for terms, out in nonzero
        for sign in (1, -1)
    }
    assert len(signed) == 2 * len(nonzero)


def _old_content(coeffs):
    g = {}
    for q in coeffs:
        g = _old_p_gcd(g, q)
    return g


def _old_uni_pp(coeffs):
    c = _old_content(coeffs.values())
    if _p_is_const(c):
        return coeffs
    return {d: _p_divexact(q, c) for d, q in coeffs.items()}


def _old_p_gcd(p, q):
    if not p:
        return _p_monic(q)
    if not q:
        return _p_monic(p)
    if _p_is_const(p) or _p_is_const(q):
        m = len(next(iter(p)))
        return {(0,) * m: Fraction(1)}
    fs, gs = _split_last(p), _split_last(q)
    c = _old_p_gcd(_old_content(fs.values()), _old_content(gs.values()))
    f, g = _old_uni_pp(fs), _old_uni_pp(gs)
    if max(f) < max(g):
        f, g = g, f
    while g:
        r = _uni_prem(f, g)
        if r:
            r = _old_uni_pp(r)
        f, g = g, r
    f = _old_uni_pp(f)
    return _p_monic(_join_last({d: _p_mul(q_, c) for d, q_ in f.items()}))


def _rand_poly(rng, nvars):
    out = {}
    for _ in range(rng.randrange(1, 4)):
        e = tuple(rng.randrange(3) for _ in range(nvars))
        c = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


@pytest.mark.parametrize("nvars", (1, 2, 3))
def test_gcd_matches_old(nvars):
    # small inputs with a common factor, on which the old gcd finishes
    rng = random.Random(f"gcd/{nvars}")
    for _ in range(30):
        p, q, r = (_rand_poly(rng, nvars) for _ in range(3))
        for a, b in ((p, q), (_p_mul(p, r), _p_mul(q, r))):
            assert _p_gcd(a, b) == _old_p_gcd(a, b)


def _old_mul(x, y):
    """The product of two non-rational Scalars, reduced by one full gcd."""
    return Scalar(x.field, _p_mul(x.num, y.num), _p_mul(x.den, y.den))


def _old_inverse(x):
    return Scalar(x.field, dict(x.den), dict(x.num))


def _rand_nonzero_poly(rng, nvars):
    return _rand_poly(rng, nvars) or {(0,) * nvars: Fraction(1, 2)}


@pytest.mark.parametrize("nvars", (1, 2))
def test_scalar_product_matches_full_reduction(nvars):
    # r and q are shared across the two factors, so both cross pairs cancel
    rng = random.Random(f"mul/{nvars}")
    field = FieldSpec(tuple(f"t{i + 1}" for i in range(nvars)))
    for _ in range(30):
        p, q, r, s, u, v = (_rand_nonzero_poly(rng, nvars) for _ in range(6))
        x = Scalar(field, _p_mul(p, r), _p_mul(q, s))
        y = Scalar(field, _p_mul(q, u), _p_mul(r, v))
        for a, b in ((x, y), (y, x), (x, x.inverse()), (x, x)):
            if a.as_fraction() is None and b.as_fraction() is None:
                assert a * b == _old_mul(a, b)
        assert x.inverse() == _old_inverse(x)


def _old_check_identity(alg, scheme):
    basis = alg.all_basis()
    for s in polarize(scheme):
        slots = [
            [m for m in basis if m.degree <= alg.bound - s.arity + 1]
        ] * s.arity
        for combo in itertools.product(*slots):
            if sum(m.degree for m in combo) > alg.bound:
                continue
            inst = s.substitute(combo, alg.gens)
            el = Element(
                alg.gens,
                RATIONALS,
                {
                    m: Scalar.from_fraction(RATIONALS, f)
                    for m, f in inst.items()
                },
            )
            if not alg.normal_form(el).is_zero:
                return False
    return True


@pytest.mark.parametrize("name", builtin_variety_names())
def test_check_identity_matches_old(name):
    alg = build_truncated(builtin_variety(name), G, 4)
    schemes = {s for v in builtin_variety_names() for s in builtin_variety(v).schemes}
    schemes.update(IdentityScheme.from_string(law) for law in CUSTOM_LAWS)
    verdicts = {}
    for scheme in sorted(schemes, key=IdentityScheme.encode):
        verdicts[scheme] = check_identity(alg, scheme)
        assert verdicts[scheme] == _old_check_identity(alg, scheme), scheme
    assert all(verdicts[s] for s in alg.variety.schemes)
    assert not all(verdicts.values())


def _old_substitution_order(subs):
    """Names in dependency-respecting order; cycles are an error."""
    deps = {n: set(p.variables()) & set(subs) for n, p in subs.items()}
    order, state = [], {}

    def visit(n):
        if state.get(n) == 2:
            return
        if state.get(n) == 1:
            raise CyclicSubstitution(f"substitution cycle through {n!r}")
        state[n] = 1
        for m in deps[n]:
            visit(m)
        state[n] = 2
        order.append(n)

    for n in subs:
        visit(n)
    return order  # every name after the names its image mentions


def _old_parampoly_reduce(p, substitutions=None, vanishing=()):
    """Reduce p by acyclic substitutions, then modulo a vanishing set.

    The result contains no substituted unknown and no term divisible by the
    leading monomial of any (substituted) vanishing polynomial; applying the
    same reduction again is the identity.
    """
    subs = dict(substitutions or {})
    if subs:
        resolved = {}
        for n in _old_substitution_order(subs):
            img = subs[n]
            resolved[n] = img.substitute(resolved) if resolved else img
        p = p.substitute(resolved)
        vanishing = [v.substitute(resolved) for v in vanishing]
    divisors = [v for v in vanishing if not v.is_zero]
    if divisors:
        p = p.reduce_by(divisors)
    return p


@pytest.mark.parametrize("name", ("aut_1_3_4", "aut_2_5", "aut_6"))
def test_reduce_matches_old_on_case_trees(name):
    job = cases.load_job(name)
    alg, field, gens, system = cases.job_context(job)
    t = parse_element(job["generator"], gens, field)
    ideal = ideal_build(alg, field, (t,), int(job["tail"]))
    cons = gen_constraints(alg, ideal, system)
    hints = [parse_parampoly(h, cons.ctx) for h in job.get("hints", ())]
    tree = solve_cases(cons.equations, cons.ctx, hints)
    candidates = [parse_element(c, gens, field) for c in job["candidates"]]
    alpha = _generic_oracle(gens, field)
    residues = [
        ideal.residue(coordinates(alg, alpha.apply(v, alg.bound)))
        for v in candidates
    ]
    compared = 0
    for leaf, chain, _ in walk(tree):
        if leaf.children:
            continue
        subs = dict(chain)
        for q in cons.equations:
            assert parampoly_reduce(q, subs) == _old_parampoly_reduce(q, subs)
        if leaf.status != "solved":
            continue
        rules = list(leaf.residuals)
        for residue in residues:
            for q in residue.values():
                want = _old_parampoly_reduce(q, subs, rules)
                assert parampoly_reduce(q, subs, rules) == want
                compared += 1
    assert compared


def _rand_chain_poly(rng, ctx, names):
    out = ParamPoly.zero(ctx)
    for _ in range(rng.randrange(1, 4)):
        e = tuple(rng.randrange(2) if n in names else 0 for n in ctx.names)
        out = out + ParamPoly(ctx, {e: _rand_scalar(rng)})
    return out


def test_reduce_matches_old_on_seeded_chains():
    # the k-th image mentions none of the first k names, as in solve_cases
    ctx = ParamContext(F, ("rho", "a11", "a12", "a21", "a22"))
    det = parse_parampoly("a11*a22 - a12*a21", ctx)
    rng = random.Random("reduce-chains")
    for _ in range(60):
        order = rng.sample(ctx.names, rng.randrange(1, 4))
        subs = {
            n: _rand_chain_poly(rng, ctx, set(ctx.names) - set(order[: i + 1]))
            for i, n in enumerate(order)
        }
        q = _rand_chain_poly(rng, ctx, set(ctx.names))
        want = _old_parampoly_reduce(q, subs, [det])
        assert parampoly_reduce(q, subs, [det]) == want


def _old_substitute(self, mapping):
    """Replace unknowns by polynomials (simultaneously)."""
    if not mapping or not any(n in mapping for n in self.variables()):
        return self
    out = ParamPoly.zero(self.ctx)
    for e, c in self.terms.items():
        term = ParamPoly.constant(self.ctx, c)
        for i, k in enumerate(e):
            if not k:
                continue
            name = self.ctx.names[i]
            base = mapping.get(name)
            if base is None:
                base = ParamPoly.variable(self.ctx, name)
            term = term * base**k
        out = out + term
    return out


def _rand_field_scalar(rng, field):
    if not field.size:
        return Scalar.from_fraction(
            field, Fraction(rng.randrange(-3, 4) or 1, rng.randrange(1, 4))
        )
    return _rand_scalar(rng)


def _rand_poly_in(rng, ctx, names, terms):
    out = ParamPoly.zero(ctx)
    for _ in range(terms):
        e = tuple(rng.randrange(3) if n in names else 0 for n in ctx.names)
        out = out + ParamPoly(ctx, {e: _rand_field_scalar(rng, ctx.field)})
    return out


@pytest.mark.parametrize("field", (RATIONALS, F), ids=("Q", "Qt"))
@pytest.mark.parametrize("count", (1, 2, 3, 4))
def test_substitute_matches_old(count, field):
    ctx = ParamContext(field, ("u", "v", "w", "z")[:count])
    rng = random.Random(f"substitute/{count}/{field.size}")
    seen = set()
    for _ in range(60):
        present = set(rng.sample(ctx.names, rng.randrange(1, count + 1)))
        p = _rand_poly_in(rng, ctx, present, rng.randrange(1, 5))
        mapping = {}
        for name in rng.sample(ctx.names, rng.randrange(1, count + 1)):
            kind = rng.choice(("zero", "constant", "polynomial"))
            if kind == "zero":
                image = ParamPoly.zero(ctx)
            elif kind == "constant":
                image = ParamPoly.constant(ctx, _rand_field_scalar(rng, field))
            else:
                image = _rand_poly_in(
                    rng, ctx, set(ctx.names), rng.randrange(1, 3)
                )
                if name in image.variables():
                    seen.add("own name")
            mapping[name] = image
            seen.add(kind if name in p.variables() else "absent")
        if len(mapping) > 1:
            seen.add("several")
        got, want = p.substitute(mapping), _old_substitute(p, mapping)
        assert got == want
        assert got.encode() == want.encode()
    # every kind of image, and names absent from the polynomial, occurred
    assert {"zero", "constant", "polynomial", "absent"} <= seen
    if count > 1:
        assert {"own name", "several"} <= seen


def _old_trivial(eq, active):
    """The lone-factor test of solve_cases against the equation made monic."""
    _, lc = eq.leading()
    return (
        len(active) == 1
        and _is_variable(active[0]) is None
        and active[0] == eq * lc.inverse()
    )


def _case_tree(job):
    alg, field, gens, system = cases.job_context(job)
    t = parse_element(job["generator"], gens, field)
    ideal = ideal_build(alg, field, (t,), int(job["tail"]))
    cons = gen_constraints(alg, ideal, system)
    hints = [parse_parampoly(h, cons.ctx) for h in job.get("hints", ())]
    return solve_cases(cons.equations, cons.ctx, hints), hints


def _nodes(branch):
    yield branch
    for child in branch.children:
        yield from _nodes(child)


def test_lone_monic_factor_matches_old_trivial_test():
    trees = {}
    for name in ("aut_1_3_4", "aut_2_5", "aut_6") + tuple(sorted(SLOW_JOBS)):
        job = SLOW_JOBS[name][0] if name in SLOW_JOBS else cases.load_job(name)
        trees[name] = _case_tree(job)
    # a repeated hint factor, and a lone hint whose leading coefficient is -1
    ctx = ParamContext(F, ("a11", "a12", "a21", "a22"))
    det = parse_parampoly("a11*a22 - a12*a21", ctx)
    for name, eq, hint in (("det^2", det * det, det), ("-det", -det, -det)):
        trees[name] = solve_cases([eq], ctx, [hint], max_depth=3), [hint]
    outcomes = []
    for name, (tree, hints) in trees.items():
        monic_hints = [h.monic() for h in hints]
        # every residual of a split node, and of a solved leaf that keeps
        # its residuals as rules
        for node, chain, hypotheses in walk(tree):
            if node.status not in ("split", "solved"):
                continue
            subs = dict(chain)
            nv_set = [parampoly_reduce(p, subs) for p in hypotheses]
            for eq in node.residuals:
                # the factors the old test saw, all monic, with the hints
                # made monic as solve_cases makes them
                factors = _old_factor_for_branching(eq, monic_hints)
                uniq = []
                for f in factors:
                    if all(f != g for g in uniq):
                        uniq.append(f)
                active = [f for f in uniq if all(f != n for n in nv_set)]
                if not active:
                    continue
                new = _is_lone(factor_for_branching(eq, monic_hints))
                assert new == _old_trivial(eq, active), (name, eq.encode())
                outcomes.append(new)
    assert True in outcomes and False in outcomes


def _old_apply(phi, s):
    """The permuted scalar, reduced by a full gcd."""
    if phi.is_identity:
        return s
    return Scalar(phi.field, phi._permute(s.num), phi._permute(s.den))


@pytest.mark.parametrize("nvars", (2, 3))
def test_field_automorphism_matches_full_reduction(nvars):
    rng = random.Random(f"apply/{nvars}")
    field = FieldSpec(tuple(f"t{i + 1}" for i in range(nvars)))
    perms = [FieldAutomorphism(field, p) for p in itertools.permutations(range(nvars))]
    rescaled = 0
    for _ in range(30):
        x = Scalar(field, _rand_poly(rng, nvars), _rand_nonzero_poly(rng, nvars))
        for phi in perms:
            got = phi.apply(x)
            assert got == _old_apply(phi, x)
            rescaled += got.den != phi._permute(x.den)
    assert rescaled  # some permutations moved the leading monomial of den


# The Q(t) layer as it was when every coefficient was a Fraction: each
# division was a bare ``/`` on Fractions, and monic scaling multiplied by
# 1/c.  The new layer keeps integral values as ints and must give equal
# parts, hashes and text.


def _p_scale(p, c):
    if not c:
        return {}
    return {e: c * v for e, v in p.items()}


def _fr_divexact(p, d):
    if not p:
        return {}
    de, dc = _p_lead(d)
    q = {}
    r = dict(p)
    while r:
        re_, rc = _p_lead(r)
        e = tuple(a - b for a, b in zip(re_, de))
        if any(x < 0 for x in e):
            return None
        c = rc / dc
        q[e] = c
        r = _p_add(r, _p_neg(_p_mul({e: c}, d)))
    return q


def _fr_monic(p):
    if not p:
        return p
    _, c = _p_lead(p)
    return p if c == 1 else _p_scale(p, 1 / c)


def _fr_content(coeffs):
    g = {}
    for q in coeffs:
        g = _fr_gcd(g, q)
    return g


def _fr_uni_pp(coeffs):
    c = _fr_content(coeffs.values())
    if not _p_is_const(c):
        coeffs = {d: _fr_divexact(q, c) for d, q in coeffs.items()}
    _, lc = _p_lead(coeffs[max(coeffs)])
    return coeffs if lc == 1 else {d: _p_scale(q, 1 / lc) for d, q in coeffs.items()}


def _fr_gcd(p, q):
    if not p:
        return _fr_monic(q)
    if not q:
        return _fr_monic(p)
    if _p_is_const(p) or _p_is_const(q):
        m = len(next(iter(p)))
        return {(0,) * m: Fraction(1)}
    fs, gs = _split_last(p), _split_last(q)
    c = _fr_gcd(_fr_content(fs.values()), _fr_content(gs.values()))
    f, g = _fr_uni_pp(fs), _fr_uni_pp(gs)
    if max(f) < max(g):
        f, g = g, f
    while g:
        r = _uni_prem(f, g)
        if r:
            r = _fr_uni_pp(r)
        f, g = g, r
    f = _fr_uni_pp(f)
    return _fr_monic(_join_last({d: _p_mul(q_, c) for d, q_ in f.items()}))


def _fr_cancel(p, q):
    g = _fr_gcd(p, q)
    if _p_is_const(g):
        return p, q
    return _fr_divexact(p, g), _fr_divexact(q, g)


def _fr_monic_den(num, den):
    _, lc = _p_lead(den)
    if lc == 1:
        return num, den
    return _p_scale(num, 1 / lc), _p_scale(den, 1 / lc)


def _old_format_poly(p, names):
    parts = []
    for e in sorted(p, key=_grlex, reverse=True):
        c = p[e]
        mono = "*".join(
            n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k
        )
        mag = abs(c)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{' + ' if c > 0 else ' - '}{body}")
    return "".join(parts)


def _old_scalar_encode(self):
    if not self.num:
        return "0"
    num, den = self._int_normalized()
    ns = _old_format_poly(num, self.field.names)
    if _p_is_const(den) and next(iter(den.values())) == 1:
        return ns
    ds = _old_format_poly(den, self.field.names)
    if len(num) > 1:
        ns = f"({ns})"
    if not re.fullmatch(r"[A-Za-z_0-9]+(\^\d+)?", ds):
        ds = f"({ds})"
    return f"{ns}/{ds}"


def _old_signed_coeff(c: Scalar):
    """Split a scalar into (is_negative, printable absolute value)."""
    _, lc = _p_lead(c.num)
    if lc < 0:
        return True, _old_scalar_encode(-c)
    return False, _old_scalar_encode(c)


def _old_parampoly_encode(self) -> str:
    if not self.terms:
        return "0"
    parts = []
    for e in sorted(self.terms, key=_grlex, reverse=True):
        c = self.terms[e]
        mono = "*".join(
            n if k == 1 else f"{n}^{k}"
            for n, k in zip(self.ctx.names, e)
            if k
        )
        neg, cs = _old_signed_coeff(c)
        if mono and cs == "1":
            body = mono
        elif mono:
            if not re.fullmatch(r"[A-Za-z_0-9]+(\^\d+)?", cs):
                cs = f"({cs})"
            body = f"{cs}*{mono}"
        else:
            body = cs
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"{' - ' if neg else ' + '}{body}")
    return "".join(parts)


class _FrScalar:
    """The old Scalar: num/den in lowest terms, every coefficient a Fraction."""

    def __init__(self, field, num, den=None, canonical=False):
        m = field.size
        if den is None:
            den = {(0,) * m: Fraction(1)}
        if not canonical:
            if not num:
                num, den = {}, {(0,) * m: Fraction(1)}
            else:
                num, den = _fr_monic_den(*_fr_cancel(num, den))
        self.field, self.num, self.den = field, num, den

    @staticmethod
    def from_fraction(field, value):
        c = Fraction(value)
        return _FrScalar(field, {(0,) * field.size: c} if c else {}, canonical=True)

    @staticmethod
    def transcendental(field, name):
        i = field.index(name)
        e = tuple(1 if j == i else 0 for j in range(field.size))
        return _FrScalar(field, {e: Fraction(1)}, canonical=True)

    def as_fraction(self):
        if not self.num:
            return Fraction(0)
        if _p_is_const(self.num) and _p_is_const(self.den):
            return next(iter(self.num.values())) / next(iter(self.den.values()))
        return None

    def scale_fraction(self, value):
        c = Fraction(value)
        if not c or not self.num:
            return _FrScalar(self.field, {}, canonical=True)
        return _FrScalar(self.field, _p_scale(self.num, c), self.den, canonical=True)

    def __add__(self, o):
        if self.den == o.den:
            return _FrScalar(self.field, _p_add(self.num, o.num), dict(self.den))
        num = _p_add(_p_mul(self.num, o.den), _p_mul(o.num, self.den))
        return _FrScalar(self.field, num, _p_mul(self.den, o.den))

    def __mul__(self, o):
        f = o.as_fraction()
        if f is not None:
            return self.scale_fraction(f)
        f = self.as_fraction()
        if f is not None:
            return o.scale_fraction(f)
        n1, d2 = _fr_cancel(self.num, o.den)
        n2, d1 = _fr_cancel(o.num, self.den)
        num, den = _fr_monic_den(_p_mul(n1, n2), _p_mul(d1, d2))
        return _FrScalar(self.field, num, den, canonical=True)

    def inverse(self):
        num, den = _fr_monic_den(dict(self.den), dict(self.num))
        return _FrScalar(self.field, num, den, canonical=True)

    def apply(self, phi):
        if phi.is_identity:
            return self
        num, den = _fr_monic_den(phi._permute(self.num), phi._permute(self.den))
        return _FrScalar(self.field, num, den, canonical=True)

    def encode(self):
        if not self.num:
            return "0"
        coeffs = list(self.num.values()) + list(self.den.values())
        mult = lcm(*(c.denominator for c in coeffs))
        div = gcd(*((c * mult).numerator for c in coeffs))
        f = Fraction(mult, div)
        num, den = _p_scale(self.num, f), _p_scale(self.den, f)
        ns = _old_format_poly(num, self.field.names)
        if _p_is_const(den) and next(iter(den.values())) == 1:
            return ns
        ds = _old_format_poly(den, self.field.names)
        if len(num) > 1:
            ns = f"({ns})"
        if not re.fullmatch(r"[A-Za-z_0-9]+(\^\d+)?", ds):
            ds = f"({ds})"
        return f"{ns}/{ds}"


def _exact_type(c):
    """An int when integral, else a Fraction: never a float."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def _assert_same_scalar(new, old):
    assert all(type(c) is Fraction for c in (*old.num.values(), *old.den.values()))
    assert all(type(c) is not float for c in (*new.num.values(), *new.den.values()))
    assert new.num == old.num and new.den == old.den
    assert hash(new) == hash(Scalar(old.field, old.num, old.den, _canonical=True))
    assert new.encode() == old.encode()


def _fr_poly(rng, nvars, terms, top=2):
    out = {}
    for _ in range(terms):
        e = tuple(rng.randrange(top + 1) for _ in range(nvars))
        out[e] = Fraction(rng.randrange(-4, 5) or 1, rng.choice((1, 1, 2, 3)))
    return out


@pytest.mark.parametrize("nvars", (1, 2, 3))
def test_int_coefficient_scalars_match_all_fraction(nvars):
    field = FieldSpec(tuple(f"t{i + 1}" for i in range(nvars)))
    rng = random.Random(f"int-scalars/{nvars}")
    perms = [FieldAutomorphism(field, p) for p in itertools.permutations(range(nvars))]
    atoms = []
    for name in field.names:
        atoms.append(
            (Scalar.transcendental(field, name), _FrScalar.transcendental(field, name))
        )
    for value in (1, -2, Fraction(1, 2), Fraction(-3, 4), Fraction(6, 3)):
        atoms.append(
            (Scalar.from_fraction(field, value), _FrScalar.from_fraction(field, value))
        )
    for _ in range(6):
        p = _fr_poly(rng, nvars, rng.randrange(1, 3), top=1)
        q = _fr_poly(rng, nvars, rng.randrange(1, 3), top=1)
        num, den = ({e: _exact(c) for e, c in r.items()} for r in (p, q))
        atoms.append((Scalar(field, num, den), _FrScalar(field, p, q)))
    for new, old in atoms:
        _assert_same_scalar(new, old)
    ints_seen = 0
    for _ in range(40):
        (x, xo), (y, yo), (z, zo) = (rng.choice(atoms) for _ in range(3))
        s, so = x + y, xo + yo
        m, mo = x * y, xo * yo
        results = [(s, so), (m, mo), (s * z, so * zo), (m + z, mo + zo)]
        if s:
            results.append((s.inverse(), so.inverse()))
        if m:
            results.append((m.inverse() * z, mo.inverse() * zo))
        for phi in perms:
            results.append((phi.apply(m + z), (mo + zo).apply(phi)))
        for new, old in results:
            _assert_same_scalar(new, old)
            ints_seen += sum(type(c) is int for c in new.num.values())
    assert ints_seen


@pytest.mark.parametrize("nvars", (1, 2, 3))
def test_int_coefficient_gcd_matches_all_fraction(nvars):
    rng = random.Random(f"int-gcd/{nvars}")
    for _ in range(30):
        p, q, r = (_fr_poly(rng, nvars, rng.randrange(1, 4)) for _ in range(3))
        for a, b in ((p, q), (_p_mul(p, r), _p_mul(q, r))):
            want = _fr_gcd(a, b)
            ia = {e: _exact(c) for e, c in a.items()}
            ib = {e: _exact(c) for e, c in b.items()}
            for got in (_p_gcd(a, b), _p_gcd(ia, ib)):
                assert got == want
                assert all(type(c) in (int, Fraction) for c in got.values())


def test_constructors_and_exact_division_give_ints_when_integral():
    field = FieldSpec(("t1", "t2"))
    rng = random.Random("exact-division")
    values = [rng.randrange(-12, 13) for _ in range(40)]
    values += [Fraction(rng.randrange(-12, 13), rng.randrange(1, 5)) for _ in range(40)]
    t1 = Scalar.transcendental(field, "t1")
    for a in values:
        for b in rng.sample(values, 8):
            if b:
                q = _div(a, b)
                assert _exact_type(q) and q == Fraction(a) / Fraction(b)
        x = Scalar.from_fraction(field, a)
        assert all(_exact_type(c) for c in (*x.num.values(), *x.den.values()))
        assert x.as_fraction() == a and _exact_type(x.as_fraction())
        y = (t1 + Scalar.from_fraction(field, Fraction(1, 3))) * a
        assert all(_exact_type(c) for c in (*y.num.values(), *y.den.values()))
    assert all(type(c) is int for c in t1.num.values())
    assert [type(c) for c in Scalar.zero(field).den.values()] == [int]
    assert _p_gcd({(1, 0): 2}, {(0, 1): Fraction(1, 2)}) == {(0, 0): 1}
    assert type(_p_gcd({(1, 0): 2}, {(0, 1): 3})[(0, 0)]) is int


def _printer_scalars(rng, field):
    """Seeded scalars: constants, zero, rational and negative leading terms."""
    out = [Scalar.zero(field)]
    out += [Scalar.from_fraction(field, v) for v in (1, -1, 2, Fraction(-1, 2), Fraction(3, 4))]
    for name in field.names:
        t = Scalar.transcendental(field, name)
        out += [t, -t, t * t, t.inverse(), (t + 1).inverse() * -3]
    for _ in range(20):
        num = _fr_poly(rng, field.size, rng.randrange(1, 4))
        den = _fr_poly(rng, field.size, rng.randrange(1, 3), top=1)
        out.append(Scalar(field, {e: _exact(c) for e, c in num.items()}, den))
    return out


@pytest.mark.parametrize("nvars", (1, 2, 3))
def test_one_printer_matches_old_printers(nvars):
    field = FieldSpec(tuple(f"t{i + 1}" for i in range(nvars)))
    rng = random.Random(f"one-printer/{nvars}")
    scalars = _printer_scalars(rng, field)
    texts = []
    for x in scalars:
        assert x.encode() == _old_scalar_encode(x)
        texts.append(x.encode())
        if x:
            num, den = x._int_normalized()
            for p in (num, den):
                assert _format_poly(p, field.names, _signed_int) == _old_format_poly(
                    p, field.names
                )
    ctx = ParamContext(field, ("u", "v"))
    polys = [ParamPoly.zero(ctx)]
    for _ in range(40):
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            e = (rng.randrange(3), rng.randrange(2))
            terms[e] = rng.choice(scalars)
        polys.append(ParamPoly(ctx, terms))
    for p in polys:
        assert p.encode() == _old_parampoly_encode(p)
        texts.append(p.encode())
    # the cases the printer distinguishes all occur
    assert "0" in texts
    assert any(t.startswith("-") for t in texts)
    assert any(re.search(r"\)\*[uv]", t) for t in texts)  # a wrapped coefficient
    assert any(re.search(r"\d/\d", t) for t in texts)  # a rational coefficient
    assert any((0, 0) in p.terms and len(p.terms) > 1 for p in polys)  # a constant term


def _oracle_jobs():
    jobs = {name: cases.load_job(name) for name in ("aut_1_3_4", "aut_2_5", "aut_6")}
    jobs.update((name, SLOW_JOBS[name][0]) for name in sorted(SLOW_JOBS))
    return jobs


@pytest.mark.parametrize("name", sorted(_oracle_jobs()))
def test_certificate_scalars_are_never_floats(name, monkeypatch):
    # every Scalar built while a certificate is computed is recorded
    job = _oracle_jobs()[name]
    init = Scalar.__init__
    met = []

    def recording(self, field, num, den=None, _canonical=False):
        init(self, field, num, den, _canonical)
        met.append(self)

    monkeypatch.setattr(Scalar, "__init__", recording)
    cases.falsify_job(job)
    monkeypatch.undo()
    assert met
    ints = 0
    for s in met:
        for c in (*s.num.values(), *s.den.values()):
            assert type(c) in (int, Fraction), (name, s)
            ints += type(c) is int
    assert ints


@lru_cache(maxsize=1)
def _sweep_jobs_module():
    """perfbench/sweep_jobs.py, the seeded job generator of the benchmark."""
    spec = importlib.util.spec_from_file_location(
        "sweep_jobs", Path(__file__).resolve().parents[1] / "perfbench" / "sweep_jobs.py"
    )
    sweep_jobs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep_jobs)
    return sweep_jobs


@lru_cache(maxsize=1)
def _generic_oracle(gens, field):
    """The image-based generic map over the constraints' unknowns.

    One instance serves every call of a job, so its images are expanded once.
    """
    return Endomorphism.generic_linear(gens, field, extra=("rho",))


def _old_kernel_contains(alg, ideal, constraints, chain, residuals, el):
    """Does alpha(el) lie in the ideal for every alpha satisfying the case?"""
    alpha = _generic_oracle(alg.gens, ideal.field)
    residue = ideal.residue(coordinates(alg, alpha.apply(el, alg.bound)))
    subs = dict(chain)
    rules = list(residuals)
    return all(
        parampoly_reduce(q, subs, rules).is_zero for q in residue.values()
    )


@pytest.mark.parametrize("name", sorted(_oracle_jobs()))
def test_kernel_once_per_candidate_matches_per_leaf(name, monkeypatch):
    job = _oracle_jobs()[name]
    new = cases.falsify_job(job).as_dict()

    def per_leaf(alg, ideal, cons, tree, v):
        # the old loop: one call, with its own alpha(v) and residue, per leaf
        return all(
            _old_kernel_contains(alg, ideal, cons, chain, leaf.residuals, v)
            for leaf, chain, _ in walk(tree)
            if leaf.status == "solved"
        )

    monkeypatch.setattr(closure, "kernel_contains", per_leaf)
    old = cases.falsify_job(job).as_dict()
    assert new["details"]["kernel"] == old["details"]["kernel"]
    assert new["verdict"] == old["verdict"]
    assert new == old


# kernel_contains before the chain walk: each leaf checked its whole chain
# and substituted it into every coordinate, one pass per pair.


def _flat_kernel_contains(
    alg,
    ideal: TruncatedIdeal,
    constraints,
    leaves: Sequence[tuple],
    el: Element,
) -> bool:
    """Does alpha(el) lie in the ideal for every alpha of every given case?

    A case is a solved leaf's (chain, residuals).  alpha(el) and its
    residue modulo the ideal depend only on el, so they are computed once,
    and not at all when there are no leaves.  alpha(el) is combined from
    the rational tables of alpha on el's words, kept in
    ``constraints.alpha``, so a word met by ``gen_constraints`` or an
    earlier candidate is not expanded again.  Each leaf then reduces every coordinate of the residue as
    ``parampoly_reduce`` does, by its substitutions and then modulo its
    rules; the leaf's elimination order is checked once and its rules are
    substituted once, not once per coordinate.  The first leaf that leaves
    a nonzero coordinate decides, and later leaves are not tried.
    """
    if not leaves:
        return True
    applied = constraints.alpha.apply(el)
    index = alg.basis_index()
    residue = ideal.residue({index[m]: c for m, c in applied.terms.items()})
    coords = list(residue.values())
    for chain, residuals in leaves:
        subs = dict(chain)
        check_elimination_order(subs)
        rules = [v for v in (substitute_in_order(v, subs) for v in residuals) if v]
        for q in coords:
            r = substitute_in_order(q, subs)
            if r and rules:
                r = r.reduce_by(rules)
            if r:
                return False
    return True


def _walk_jobs():
    """The pinned equation-ideal examples, SLOW_JOBS, and seeded draws."""
    jobs = _oracle_jobs()
    sweep_jobs = _sweep_jobs_module()
    rng = random.Random("kernel-walk")
    top = sweep_jobs.load_top_basis()
    for variety in sweep_jobs.VARIETIES:
        for gens, bound in ((2, 2), (2, 3), (3, 2)):
            jobs[f"{variety}_{gens}_{bound}_seeded"] = sweep_jobs.draw_job(
                rng, variety, gens, bound, top
            )
    return jobs


def _walk_tree(job):
    """The job's truncation, ideal, constraints, case tree and candidates."""
    alg, field, gens, system = cases.job_context(job)
    t = parse_element(job["generator"], gens, field)
    ideal = ideal_build(alg, field, (t,), int(job["tail"]))
    cons = gen_constraints(alg, ideal, system)
    tree = solve_cases(cons.equations, cons.ctx, job.get("hints", ()))
    candidates = [parse_element(c, gens, field) for c in job["candidates"]]
    return alg, ideal, cons, tree, candidates


@pytest.mark.parametrize("name", sorted(_walk_jobs()))
def test_kernel_walk_matches_flat(name):
    # the walk on the whole tree, on every subtree and on each solved leaf
    # alone, each with its chain from the root as its step, against the
    # flat test over that subtree's solved leaves
    alg, ideal, cons, tree, candidates = _walk_tree(_walk_jobs()[name])
    for v in candidates:
        for case in walk(tree):
            node = as_tree(*case)
            solved = [
                (c, l.residuals) for l, c, _ in walk(node) if l.status == "solved"
            ]
            want = _flat_kernel_contains(alg, ideal, cons, solved, v)
            assert kernel_contains(alg, ideal, cons, node, v) == want, (name, v)
    assert any(l.status == "solved" for l in tree.leaves()) and candidates


@pytest.mark.parametrize("name", sorted(_walk_jobs()))
def test_solved_residuals_are_reduced_by_their_chain(name):
    # kernel_contains divides by a solved leaf's residuals as they stand,
    # so its chain must leave each one fixed
    _, _, _, tree, _ = _walk_tree(_walk_jobs()[name])
    for leaf, chain, _ in walk(tree):
        if leaf.status == "solved":
            subs = dict(chain)
            for r in leaf.residuals:
                assert substitute_in_order(r, subs) == r, (name, leaf.note, r)


# The witness search before the first certified candidate outside sigma(T)
# decided: the certified candidates, then their pairwise sums.


def _old_verdict_and_witness(alg, system, t, tail, candidates, hints=()):
    """The verdict and the witness text of the equation-ideal falsifier."""
    ideal = ideal_build(alg, system.field, (t,), tail)
    cons = gen_constraints(alg, ideal, system)
    image = ideal_build(alg, system.field, (cons.sigma_generator,), tail)
    tree = solve_cases(cons.equations, cons.ctx, hints)

    leaves = list(tree.leaves())
    stuck = [l for l in leaves if l.status == "stuck"]

    kernel = {
        v.encode(): kernel_contains(alg, ideal, cons, tree, v)
        for v in candidates
    }

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
    return verdict, None if witness is None else witness.encode()


def _changed_job(name, **changes):
    job = cases.load_job(name)
    job.update(changes)
    return job


# jobs with two or more certified candidates: (job, are all of them in
# sigma(T)?)
WITNESS_JOBS = {
    # an inner dilation carries T onto itself
    "dilation": (
        _changed_job(
            "aut_1_3_4", system={"phi": "id", "a": "2", "b": "0"},
            generator="(x1 x2)", candidates=["(x1 x2)", "2 * (x1 x2)"],
        ),
        True,
    ),
    # the identity change, with an uncertified candidate between t and t1*t
    "identity": (
        _changed_job(
            "aut_1_3_4", system={"phi": "id", "a": "1", "b": "0"},
            candidates=[
                "t1 * (x1 x2) + (x2 x1)", "(x1 x2)",
                "(t1^2) * (x1 x2) + t1 * (x2 x1)",
            ],
        ),
        True,
    ),
    "aut_1_3_4_sigma_t_twice": (
        _changed_job(
            "aut_1_3_4",
            candidates=["t2 * (x1 x2) + (x2 x1)", "(2*t2) * (x1 x2) + 2 * (x2 x1)"],
        ),
        True,
    ),
    "aut_1_3_4_sigma_t_first": (
        _changed_job(
            "aut_1_3_4", candidates=["t2 * (x1 x2) + (x2 x1)", "(x2 x1)", "(x1 x2)"],
        ),
        False,
    ),
    "aut_2_5_sigma_t_first": (
        _changed_job(
            "aut_2_5",
            candidates=[
                "t2 * (x1 (x1 x2)) + (x2 (x1 x1))", "(x1 (x2 x2))", "(x2 (x1 x1))",
            ],
        ),
        False,
    ),
}


def _old_falsify_job(job):
    alg, field, gens, system = cases.job_context(job)
    t = parse_element(job["generator"], gens, field)
    candidates = [parse_element(s, gens, field) for s in job["candidates"]]
    return _old_verdict_and_witness(
        alg, system, t, int(job["tail"]), candidates, tuple(job.get("hints", ()))
    )


@pytest.mark.parametrize("name", sorted(_walk_jobs()) + sorted(WITNESS_JOBS))
def test_witness_matches_old_search_with_sums(name):
    job = WITNESS_JOBS[name][0] if name in WITNESS_JOBS else _walk_jobs()[name]
    cert = cases.falsify_job(job)
    assert (cert.verdict, cert.details["witness"]) == _old_falsify_job(job)
    if name in WITNESS_JOBS:
        certified = [v for v, ok in cert.details["kernel"].items() if ok]
        assert len(certified) >= 2
        all_inside = WITNESS_JOBS[name][1]
        assert (cert.verdict == "no_falsification") == all_inside


# The gcd and cancellation before the exact shortcuts: every pair of
# nonconstant arguments ran the primitive PRS (``_prs_content`` and
# ``_prs_uni_pp`` are the helpers it recursed through).


def _prs_content(coeffs):
    g = {}
    for q in coeffs:
        g = _prs_gcd(g, q)
    return g


def _prs_uni_pp(coeffs):
    """The primitive part, scaled so that its leading coefficient is 1."""
    c = _prs_content(coeffs.values())
    if not _p_is_const(c):
        coeffs = {d: _p_divexact(q, c) for d, q in coeffs.items()}
    # unscaled, the constant left by each pseudo-remainder compounds
    _, lc = _p_lead(coeffs[max(coeffs)])
    return coeffs if lc == 1 else {d: _p_div(q, lc) for d, q in coeffs.items()}


def _prs_gcd(p, q):
    """A gcd in Q[x_1..x_m], monic in graded-lex order (primitive PRS)."""
    if not p:
        return _p_monic(q)
    if not q:
        return _p_monic(p)
    if _p_is_const(p) or _p_is_const(q):
        m = len(next(iter(p)))
        return {(0,) * m: 1}
    fs, gs = _split_last(p), _split_last(q)
    c = _prs_gcd(_prs_content(fs.values()), _prs_content(gs.values()))
    f, g = _prs_uni_pp(fs), _prs_uni_pp(gs)
    if max(f) < max(g):
        f, g = g, f
    while g:
        r = _uni_prem(f, g)
        if r:
            r = _prs_uni_pp(r)
        f, g = g, r
    f = _prs_uni_pp(f)
    return _p_monic(_join_last({d: _p_mul(q_, c) for d, q_ in f.items()}))


def _prs_cancel(p, q):
    """p and q divided by their gcd."""
    g = _prs_gcd(p, q)
    if _p_is_const(g):
        return p, q
    return _p_divexact(p, g), _p_divexact(q, g)


def _terms(rng, nvars, count, top=2):
    """A polynomial of exactly count terms with exact nonzero values."""
    if nvars == 1:
        top = max(top, count - 1)
    out = {}
    while len(out) < count:
        e = tuple(rng.randrange(top + 1) for _ in range(nvars))
        out[e] = _exact(Fraction(rng.choice((-3, -2, -1, 1, 2, 5)), rng.choice((1, 1, 2, 3))))
    return out


RATIOS = (-1, -3, 2, Fraction(-2, 3), Fraction(5, 2))


def _shortcut_pairs(rng, nvars):
    """(path, p, q) pairs built to take each path of ``_p_gcd`` and ``_cancel``."""
    pairs = []
    for r in RATIOS:
        q = _terms(rng, nvars, rng.randrange(2, 5))
        pairs.append(("proportional", {e: _exact(r * c) for e, c in q.items()}, q))
    for count in range(2, 5):
        # r*q but for one coefficient, at each position in turn
        q = _terms(rng, nvars, count)
        r = rng.choice(RATIOS)
        for e in q:
            p = {f: _exact(r * c) for f, c in q.items()}
            k = rng.choice((1, Fraction(1, 2)))
            p[e] = _exact((r + k if r + k else r + 2 * k) * q[e])
            pairs.append(("near proportional", p, q))
    for _ in range(4):
        m = _terms(rng, nvars, 1)
        q = _terms(rng, nvars, rng.randrange(2, 5))
        pairs.append(("monomial, polynomial", m, q))
        pairs.append(("monomial, polynomial", q, m))
        pairs.append(("monomial, monomial", m, _terms(rng, nvars, 1)))
    for _ in range(6):
        d = _terms(rng, nvars, rng.randrange(2, 4), top=1)
        s = _terms(rng, nvars, rng.randrange(1, 3), top=1)
        if _p_is_const(s):
            s[(1,) * nvars] = 2
        pairs.append(("q | p", _p_mul(s, d), d))
        pairs.append(("p | q", d, _p_mul(s, d)))
    # a linear polynomial of two terms or more against a longer one it does
    # not divide: it is irreducible, so the gcd is 1
    linear = [(0,) * nvars] + [
        tuple(int(i == j) for j in range(nvars)) for i in range(nvars)
    ]
    for _ in range(6):
        d = {
            e: rng.choice((-3, -2, -1, 1, 2, 5))
            for e in rng.sample(linear, rng.randrange(2, nvars + 2))
        }
        p = _terms(rng, nvars, len(d) + rng.randrange(1, 3))
        if _p_divexact(p, d) is None:
            pairs.append(("linear, coprime", p, d))
            pairs.append(("linear, coprime", d, p))
    for _ in range(6):
        p, q, f = (_terms(rng, nvars, rng.randrange(2, 4), top=1) for _ in range(3))
        pairs.append(("other", p, q))
        pairs.append(("other", _p_mul(p, f), _p_mul(q, f)))
    return pairs


def _path(label, p, q):
    """The path a pair takes, told apart by the oracle alone."""
    if label in (
        "proportional", "monomial, polynomial", "monomial, monomial", "linear, coprime"
    ):
        return label
    if label in ("q | p", "p | q"):
        # a product can cancel down to as few terms as its factor
        if _p_divexact(p, q) is not None and len(p) >= len(q):
            return "q | p"
        if _p_divexact(q, p) is not None and len(q) >= len(p):
            return "p | q"
        return "other"
    return "coprime" if _p_is_const(_prs_gcd(p, q)) else "common factor"


@pytest.mark.parametrize("nvars", (1, 2, 3))
def test_gcd_shortcuts_match_prs(nvars, monkeypatch):
    rng = random.Random(f"gcd-shortcuts/{nvars}")
    prs_runs = []
    monkeypatch.setattr(
        "veralg.scalars._split_last", lambda p: prs_runs.append(1) or _split_last(p)
    )
    seen = set()
    for label, p, q in _shortcut_pairs(rng, nvars):
        path = _path(label, p, q)
        seen.add(path)
        del prs_runs[:]
        got = _p_gcd(p, q)
        assert got == _prs_gcd(p, q), (label, p, q)
        assert all(type(c) in (int, Fraction) for c in got.values())
        if path in ("proportional", "monomial, polynomial", "monomial, monomial"):
            assert not prs_runs, (label, p, q)
            # the PRS itself may leave an integral Fraction; no shortcut does
            assert all(_exact_type(c) for c in got.values()), (label, p, q)
        del prs_runs[:]
        parts = _cancel(p, q)
        assert parts == _prs_cancel(p, q), (label, p, q)
        assert all(_exact_type(c) for part in parts for c in part.values())
        if path in ("proportional", "q | p", "p | q", "linear, coprime"):
            assert not prs_runs, (label, p, q)
    assert seen == {
        "proportional", "monomial, polynomial", "monomial, monomial",
        "q | p", "p | q", "linear, coprime", "coprime", "common factor",
    }


# nf(alpha(v)) from the rational tables of the generic map on words
# (``SymbolicEndomorphism.apply``), against the generic map applied
# symbolically (the oracle's ``Endomorphism.apply``, with Q(t) products of
# ParamPolys) and then reduced.

ALPHA_SHAPES = ((1, 2), (1, 5), (2, 2), (2, 3), (2, 5), (3, 2), (3, 4))
ALPHA_LAWS = (
    CUSTOM_LAWS[0],
    # the part of arity 1 rewrites every generator to zero
    "(y1 y2) - y1",
)


def _rand_word(rng, gens, degree):
    if degree == 1:
        return gens.generator(rng.randrange(gens.size))
    k = rng.randrange(1, degree)
    return gens.pair(_rand_word(rng, gens, k), _rand_word(rng, gens, degree - k))


def _rand_element(rng, gens, bound):
    """A few free-magma words up to one degree above the bound, with Q(t) scalars."""
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        m = _rand_word(rng, gens, rng.randrange(1, bound + 2))
        terms[m] = _rand_scalar(rng)
    return Element(gens, F, terms)


def _assert_generic_apply_matches_symbolic(alg, label):
    gens, bound = alg.gens, alg.bound
    rng = random.Random(f"alpha/{label}")
    top = _rand_word(rng, gens, bound + 1)
    elements = [
        Element.zero(gens, F),
        Element.from_monomial(gens, F, top, _rand_scalar(rng)),
        *(_rand_element(rng, gens, bound) for _ in range(4)),
    ]
    elements.append(elements[-1] + elements[-2])
    for extra in ((), ("rho",)):
        alpha = Endomorphism.generic_linear(gens, F, extra=extra)
        generic = SymbolicEndomorphism(alg, F, extra=extra)
        assert generic.ctx == alpha.domain
        for el in elements:
            want = alg.normal_form(alpha.apply(el, bound))
            got = generic.apply(el)
            assert got == want, (label, extra, el.encode())
            assert got.encode() == want.encode()
        assert not generic.apply(elements[1]).terms
        assert generic._tables[top] == {}
        for table in generic._tables.values():
            for poly in table.values():
                assert poly and all(_exact_type(c) for c in poly.values())


@pytest.mark.parametrize("k,bound", ALPHA_SHAPES)
@pytest.mark.parametrize("name", builtin_variety_names())
def test_generic_apply_matches_symbolic_apply(name, k, bound):
    alg = build_truncated(builtin_variety(name), GeneratorSet.default(k), bound)
    _assert_generic_apply_matches_symbolic(alg, f"{name}/{k}/{bound}")


@pytest.mark.parametrize("law", ALPHA_LAWS)
def test_generic_apply_matches_symbolic_apply_custom_laws(law):
    alg = build_truncated(_custom_variety(law), G, 4)
    _assert_generic_apply_matches_symbolic(alg, law)


# TruncatedAlgebra.product_form, against the normal form of the Element
# product of the same normal forms over Q

PRODUCT_FORM_SHAPES = ((1, 6), (2, 5), (3, 4))
# every built-in variety, the custom laws, and the law that rewrites every
# generator to zero
PRODUCT_FORM_VARIETIES = builtin_variety_names() + CUSTOM_LAWS + ALPHA_LAWS[1:]


def _rand_form(rng, alg, degree):
    """A seeded normal form in one degree: up to three basis monomials."""
    basis = alg.basis_of_degree(degree)
    if not basis:
        return {}
    return {
        rng.choice(basis): _exact(_rand_rational(rng) or 1)
        for _ in range(rng.randrange(1, 4))
    }


def _as_element(alg, form):
    return Element(
        alg.gens,
        RATIONALS,
        {b: Scalar.from_fraction(RATIONALS, c) for b, c in form.items()},
    )


def _assert_product_form_matches_element_product(alg, label):
    rng = random.Random(f"product_form/{label}")
    bound = alg.bound
    for _ in range(12):
        factors = []
        for _ in range(rng.randrange(1, 4)):
            dl = rng.randrange(1, bound)
            dr = rng.randrange(1, bound - dl + 1)
            factors.append((_rand_form(rng, alg, dl), _rand_form(rng, alg, dr)))
        want = Element.zero(alg.gens, RATIONALS)
        for p, q in factors:
            want = want + _as_element(alg, p) * _as_element(alg, q)
        got = alg.product_form(factors)
        assert _as_element(alg, got) == alg.normal_form(want), label
        assert all(_exact_type(c) for c in got.values()), label
        # a pair and its negation cancel
        p, q = factors[0]
        negated = {b: -c for b, c in q.items()}
        assert alg.product_form(factors + [(p, negated)]) == alg.product_form(
            factors[1:]
        ), label


@pytest.mark.parametrize("k,bound", PRODUCT_FORM_SHAPES)
@pytest.mark.parametrize("name", PRODUCT_FORM_VARIETIES)
def test_product_form_matches_element_product(name, k, bound):
    alg = build_truncated(_variety(name), GeneratorSet.default(k), bound)
    _assert_product_form_matches_element_product(alg, f"{name}/{k}/{bound}")


# The products by a constant that ``*`` replaced: the raw ``_p_scale`` (kept
# above with the Fraction layer, which still uses it), Scalar.scale_fraction,
# ParamPoly.scale and scale_fraction, and Element.scale, each a function of
# its old ``self``; a call of a removed method goes to its copy here.  Before
# that, ``*`` multiplied a ParamPoly by a constant polynomial.  The hashes
# are the formulas that Scalar and ParamPoly computed before _Exact did.


def _old_scalar_scale_fraction(self, value) -> Scalar:
    """Fast multiply by a rational: no gcd pass is needed."""
    c = _rational(value)
    if not c or not self.num:
        return Scalar.zero(self.field)
    if c == 1:
        return self
    num = {e: _exact(v * c) for e, v in self.num.items()}
    return Scalar(self.field, num, self.den, _canonical=True)


def _old_parampoly_scale(self, value: Scalar) -> ParamPoly:
    return ParamPoly(self.ctx, _p_scale(self.terms, value))


def _old_parampoly_scale_fraction(self, value) -> ParamPoly:
    f = _rational(value)
    if not f:
        return ParamPoly.zero(self.ctx)
    return ParamPoly(
        self.ctx, {e: _old_scalar_scale_fraction(c, f) for e, c in self.terms.items()}
    )


def _old_parampoly_mul_constant(self, value: Scalar) -> ParamPoly:
    constant = ParamPoly.constant(self.ctx, value)
    return ParamPoly(self.ctx, _p_mul(self.terms, constant.terms))


def _old_element_scale(self, value) -> Element:
    """self times an int, Fraction or Scalar value."""
    if not value:
        return Element.zero(self.gens, self.domain)
    return Element(
        self.gens, self.domain, {m: c * value for m, c in self.terms.items()}
    )


def _old_scalar_hash(self):
    return hash((self.field, frozenset(self.num.items()), frozenset(self.den.items())))


def _old_parampoly_hash(self):
    return hash((self.ctx, frozenset(self.terms.items())))


def _assert_identical(new, old):
    """Equal Scalars, stored alike: the same parts, value types and text."""
    for p, q in ((new.num, old.num), (new.den, old.den)):
        assert p == q and {e: type(c) for e, c in p.items()} == {
            e: type(c) for e, c in q.items()
        }
    assert new.encode() == old.encode()


# zero, one and negatives, as ints and as Fractions
RATIONAL_CONSTANTS = [
    0, 1, -1, 3, Fraction(0), Fraction(1), Fraction(-2, 3), Fraction(6, 3)
]


def _constant_seeds(rng, field):
    """Seeded scalars, the rational constants among them, and those constants."""
    scalars = _printer_scalars(rng, field)
    scalars += [Scalar.from_fraction(field, v) for v in RATIONAL_CONSTANTS]
    return scalars, RATIONAL_CONSTANTS


def _seeded_polys(rng, ctx, scalars):
    polys = [ParamPoly.zero(ctx), ParamPoly.constant(ctx, Scalar.one(ctx.field))]
    for _ in range(12):
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            terms[(rng.randrange(3), rng.randrange(2))] = rng.choice(scalars)
        polys.append(ParamPoly(ctx, terms))
    return polys


def test_scalar_product_by_constant_matches_scale_fraction():
    rng = random.Random("constant-product/scalar")
    scalars, rationals = _constant_seeds(rng, F)
    for x in scalars:
        for c in rationals:
            want = _old_scalar_scale_fraction(x, c)
            _assert_identical(x * c, want)
            _assert_identical(c * x, want)
        for c in scalars:
            # the constant is a Scalar: the full product, in both orders
            f = c.as_fraction()
            if f is not None:
                _assert_identical(x * c, _old_scalar_scale_fraction(x, f))
            full = Scalar(F, _p_mul(x.num, c.num), _p_mul(x.den, c.den))
            assert x * c == c * x == full


def test_parampoly_product_by_constant_matches_scale():
    rng = random.Random("constant-product/parampoly")
    scalars, rationals = _constant_seeds(rng, F)
    for p in _seeded_polys(rng, CTX, scalars):
        for c in rationals + scalars:
            value = c if isinstance(c, Scalar) else Scalar.from_fraction(F, c)
            want = _old_parampoly_scale(p, value)
            assert p * c == c * p == want == _old_parampoly_mul_constant(p, value)
            if not isinstance(c, Scalar):
                assert want == _old_parampoly_scale_fraction(p, c)
            got = p * c
            for e, coeff in want.terms.items():
                _assert_identical(got.terms[e], coeff)


def test_element_product_by_constant_matches_scale():
    rng = random.Random("constant-product/element")
    scalars, rationals = _constant_seeds(rng, F)
    polys = _seeded_polys(rng, CTX, scalars)
    monos = [m for d in (1, 2, 3) for m in enumerate_monomials(G, d)]
    for _ in range(8):
        picked = rng.sample(monos, 3)
        elements = (
            Element(G, F, {m: rng.choice(scalars) for m in picked}),
            Element(G, CTX, {m: rng.choice(polys) for m in picked}),
        )
        for el in elements:
            for c in rationals + scalars:
                want = _old_element_scale(el, c)
                assert el * c == c * el == want
                if el.domain == CTX:
                    value = c if isinstance(c, Scalar) else Scalar.from_fraction(F, c)
                    terms = el.terms.items()
                    assert want == Element(G, CTX, {
                        m: _old_parampoly_mul_constant(p, value) for m, p in terms
                    })


def test_hash_is_the_old_formula():
    rng = random.Random("exact-hash")
    scalars = _printer_scalars(rng, F)
    for x in scalars:
        assert hash(x) == _old_scalar_hash(x)
        assert hash(x) == _old_scalar_hash(x)  # the cached value
    for p in _seeded_polys(rng, CTX, scalars):
        assert hash(p) == _old_parampoly_hash(p)
        assert hash(p) == _old_parampoly_hash(p)


def test_scalar_encode_caches_its_text():
    rng = random.Random("exact-text")
    for x in _printer_scalars(rng, F):
        first = x.encode()
        assert x._text is first and x.encode() is first
        assert first == _old_scalar_encode(x)


# The case solver in which every node substituted its whole chain into each
# inherited equation and hypothesis and factored each equation anew, and
# whose elimination built one list of terms per (equation, unknown); its
# nodes held their whole chain and every hypothesis from the root.

_set = object.__setattr__  # writes a field of a frozen record


class _OldBranch(_Record):
    """A node of the case tree over the constraint equations.

    substitutions and nonvanishing are cumulative along the path from the
    root.  substitutions are in elimination order: no image mentions its own
    unknown or an earlier one, which is the order ``substitute_in_order``
    applies them in, one ``ParamPoly.substitute`` pass each; a branch
    ``name = 0`` has the zero image.  residuals are the remaining
    equations, reduced by the whole chain but on an "infeasible" leaf; a
    node that adds a pair reduced them, as inherited from its parent, by
    that pair alone, which gives what ``substitute_in_order`` of the whole
    chain gives.  A "solved" leaf keeps its residuals as reduction rules
    (equations that hold on the case but do not isolate any unknown).  An
    "infeasible" leaf stops when the last pair of its chain makes an
    assumed-nonzero polynomial vanish, before it reduces its equations, so
    its residuals are the ones it inherited, not reduced by that last pair.
    Children share their parent's substitutions and hypotheses, and a
    polynomial keeps its text once encoded, so ``as_dict`` computes the
    text of each shared polynomial once.
    """

    __slots__ = (
        "substitutions",
        "nonvanishing",
        "residuals",
        "status",  # "split" | "solved" | "contradiction" | "infeasible" | "stuck"
        "note",
        "children",
    )

    def __init__(
        self, substitutions, nonvanishing, residuals, status, note, children=()
    ):
        # a sweep pass builds about a thousand nodes, so each field is set
        # directly instead of through _Record.__init__
        _set(self, "substitutions", substitutions)
        _set(self, "nonvanishing", nonvanishing)
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

    def as_dict(self) -> dict:
        return {
            "substitutions": {n: p.encode() for n, p in self.substitutions},
            "nonvanishing": [p.encode() for p in self.nonvanishing],
            "residuals": [p.encode() for p in self.residuals],
            "status": self.status,
            "note": self.note,
            "children": [c.as_dict() for c in self.children],
        }


def _old_try_eliminate(equations, ctx):
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
            return name, -rest * c0.inverse(), eq
    return None


def _old_solve_cases(
    equations: Sequence[ParamPoly],
    ctx: ParamContext,
    hints: Sequence = (),
    max_depth: int = 12,
) -> _OldBranch:
    """Split the system into cases by elimination and factor branching.

    Each hint is made monic (leading coefficient 1) once, here, so that an
    equation equal to a hint up to a scalar is its own lone monic factor.
    A node adds at most one substitution to its parent's chain, and only
    that pair's image is checked against the elimination order
    (``check_next_substitution``).
    """

    hints = tuple(
        (parse_parampoly(h, ctx) if isinstance(h, str) else h).monic()
        for h in hints
    )

    def extend(subs, name, image):
        # a node adds one pair to its parent's chain, which is in order
        check_next_substitution([n for n, _ in subs], name, image)
        return subs + ((name, image),)

    def build(subs, nonvan, eqs, depth, note):
        subs_map = dict(subs)
        reduced_nv = []
        for p in nonvan:
            r = substitute_in_order(p, subs_map)
            if r.is_zero:
                return _OldBranch(
                    subs, nonvan, tuple(eqs), "infeasible",
                    f"assumed nonzero {p.encode()} vanished", ()
                )
            reduced_nv.append(r)

        work = []
        for eq in eqs:
            r = substitute_in_order(eq, subs_map)
            if r.is_zero:
                continue
            if r.constant_value() is not None:
                return _OldBranch(
                    subs, nonvan, (r,), "contradiction",
                    f"constant residual {r.encode()}", ()
                )
            if all(r != w for w in work):
                work.append(r)

        hit = _old_try_eliminate(work, ctx)
        if hit is not None:
            name, image, src = hit
            return build(
                extend(subs, name, image),
                nonvan,
                [e for e in work if e is not src],
                depth,
                note or f"eliminated {name}",
            )

        if not work:
            return _OldBranch(subs, nonvan, (), "solved", note or "no residuals", ())

        nv_set = list(reduced_nv)
        chosen = None
        for eq in sorted(work, key=lambda p: len(p.terms)):
            factors = _old_factor_for_branching(eq, hints)
            uniq = []
            for f in factors:
                if all(f != g for g in uniq):
                    uniq.append(f)
            active = [f for f in uniq if all(f != n for n in nv_set)]
            if not active:
                return _OldBranch(
                    subs, nonvan, (eq,), "contradiction",
                    "every factor is assumed nonzero", ()
                )
            if not _old_is_lone_monic(factors):
                chosen = (eq, active)
                break
        if chosen is None:
            # every residual is a single irreducible equation: keep as rules
            return _OldBranch(
                subs, nonvan, tuple(work), "solved",
                note or "residuals kept as reduction rules", ()
            )

        eq, active = chosen
        if depth >= max_depth:
            return _OldBranch(subs, nonvan, tuple(work), "stuck", "depth limit", ())

        rest = [e for e in work if e is not eq]
        children = []
        for i, f in enumerate(active):
            hyp = nonvan + tuple(active[:i])
            name = _is_variable(f)
            if name is not None:
                children.append(
                    build(
                        extend(subs, name, ParamPoly.zero(ctx)),
                        hyp, list(rest), depth + 1, f"{name} = 0",
                    )
                )
            else:
                children.append(
                    build(subs, hyp, rest + [f], depth + 1, f"{f.encode()} = 0")
                )
        children.append(
            _OldBranch(
                subs, nonvan + tuple(active), (eq,), "contradiction",
                "all factors assumed nonzero", ()
            )
        )
        return _OldBranch(
            subs, nonvan, tuple(work), "split",
            note or f"split on {eq.encode()}", tuple(children)
        )

    return build((), (), list(equations), 0, "")


def _assert_same_tree(new, old):
    # the certificates' trees, then node by node the chain and hypotheses
    # walked from the root against the old node's own
    assert new.as_dict() == old.as_dict()
    walked, nodes = list(walk(new)), list(_nodes(old))
    assert len(walked) == len(nodes)
    for (node, chain, hypotheses), was in zip(walked, nodes):
        assert (chain, hypotheses) == (was.substitutions, was.nonvanishing)
        assert (node.residuals, node.status, node.note) == (
            was.residuals, was.status, was.note
        )
        assert len(node.children) == len(was.children)


def _statuses(tree):
    return {node.status for node in _nodes(tree)}


@pytest.mark.parametrize("name", sorted(_oracle_jobs()))
def test_incremental_case_tree_matches_old(name):
    job = _oracle_jobs()[name]
    alg, field, gens, system = cases.job_context(job)
    t = parse_element(job["generator"], gens, field)
    cons = gen_constraints(alg, ideal_build(alg, field, (t,), int(job["tail"])), system)
    hints = [parse_parampoly(h, cons.ctx) for h in job.get("hints", ())]
    for depth in (12, 0):
        new = solve_cases(cons.equations, cons.ctx, hints, depth)
        _assert_same_tree(new, _old_solve_cases(cons.equations, cons.ctx, hints, depth))
    if name == "commutative_3_3":
        # job 86 keeps one leaf stuck at the depth limit
        stuck = [l for l in solve_cases(cons.equations, cons.ctx, hints).leaves()
                 if l.status == "stuck"]
        assert [l.note for l in stuck] == ["depth limit"]


def _rand_factor(rng, ctx):
    """A seeded factor: an unknown, the hint, or a short sum over the unknowns."""
    kind = rng.randrange(4)
    if kind == 0:
        return ParamPoly.variable(ctx, rng.choice(ctx.names))
    if kind == 1:
        return parse_parampoly("a11*a22 - a12*a21", ctx)
    out = ParamPoly.constant(ctx, _rand_scalar(rng)) if kind == 2 else ParamPoly.zero(ctx)
    for _ in range(rng.randrange(1, 3)):
        e = tuple(rng.randrange(2) for _ in ctx.names)
        out = out + ParamPoly(ctx, {e: _rand_scalar(rng)})
    return out


def test_incremental_case_tree_matches_old_on_seeded_systems():
    ctx = ParamContext(F, ("rho", "a11", "a12", "a21", "a22"))
    hint = parse_parampoly("a11*a22 - a12*a21", ctx)
    rng = random.Random("incremental-case-tree")
    seen = set()
    for _ in range(40):
        equations = []
        for _ in range(rng.randrange(1, 4)):
            eq = _rand_factor(rng, ctx)
            for _ in range(rng.randrange(2)):
                eq = eq * _rand_factor(rng, ctx)
            if eq:
                equations.append(eq)
        hints = rng.choice(((), (hint,), (hint * 2, "a11 + a22")))
        for depth in (rng.randrange(1, 5), 0):
            new = solve_cases(equations, ctx, hints, depth)
            _assert_same_tree(new, _old_solve_cases(equations, ctx, hints, depth))
            seen |= _statuses(new)
    # every kind of node occurred
    assert seen == {"split", "solved", "contradiction", "infeasible", "stuck"}


def test_try_eliminate_matches_old():
    ctx = ParamContext(F, ("rho", "a11", "a12", "a21", "a22"))
    rng = random.Random("try-eliminate")
    hits = 0
    for _ in range(200):
        work = [_rand_factor(rng, ctx) for _ in range(rng.randrange(1, 4))]
        work = [p for p in work if p]
        new, old = closure._try_eliminate(work, ctx), _old_try_eliminate(work, ctx)
        assert (new is None) == (old is None)
        if new is not None:
            assert new[0] == old[0] and new[1] == old[1] and new[2] is old[2]
            hits += 1
    assert 0 < hits < 200


def _old_monomial_encode(m):
    if m.is_leaf:
        return m.gens.names[m.index]
    return f"({_old_monomial_encode(m.left)} {_old_monomial_encode(m.right)})"


def test_monomial_text_matches_recursive_encoder():
    alg = build_truncated(builtin_variety("alllinear"), G, 6)
    three = GeneratorSet.default(3)
    monos = list(alg.all_basis()) + [
        m for d in (1, 2, 3, 4) for m in enumerate_monomials(three, d)
    ]
    for m in monos:
        want = _old_monomial_encode(m)
        first = m.encode()
        assert first == want
        assert m._text is first and m.encode() is first
    basis = alg.all_basis()
    assert len({m.encode() for m in basis}) == len(basis) > 3000


def test_negative_coefficient_text_matches_old_and_is_kept(monkeypatch):
    rng = random.Random("negated-text")
    scalars = [x for x in _printer_scalars(rng, F) if x and _p_lead(x.num)[1] < 0]
    for x in scalars:
        assert _signed_coeff(x) == _old_signed_coeff(x)
    formatted = []
    fmt = Scalar._format

    def recording(self):
        formatted.append(self)
        return fmt(self)

    monkeypatch.setattr(Scalar, "_format", recording)
    # a second print of the same coefficient formats nothing
    for x in scalars:
        assert _signed_coeff(x) == _old_signed_coeff(x)
    assert formatted == []
    polys = [ParamPoly(CTX, {(1, 0): x, (0, 1): -x}) for x in scalars]
    assert [p.encode() for p in polys] == [_old_parampoly_encode(p) for p in polys]
    assert len(scalars) > 5


# The element and monomial readers that scanned characters on their own,
# and the scalar reader that went through parse_parampoly.


def _old_parse_scalar(text: str, field: FieldSpec) -> Scalar:
    p = parse_parampoly(text, ParamContext(field, ()))
    return p.constant_value()


def _old_split_top_terms(text: str):
    """Split on top-level + and -, keeping signs; unary operators stay put."""
    terms = []
    depth = 0
    start = 0
    sign = 1
    prev = ""
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and prev not in ("", "*", "/", "^", "(", "+", "-"):
            terms.append((sign, text[start:i]))
            sign = 1 if ch == "+" else -1
            start = i + 1
        if not ch.isspace():
            prev = ch
    terms.append((sign, text[start:]))
    # a leading '-' on the first chunk
    first_sign, first = terms[0]
    stripped = first.lstrip()
    if stripped.startswith("-"):
        terms[0] = (-first_sign, stripped[1:])
    elif stripped.startswith("+"):
        terms[0] = (first_sign, stripped[1:])
    return terms


def _old_parse_monomial(text: str, gens: GeneratorSet) -> Monomial:
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            toks.append(ch)
            i += 1
        else:
            m = _NAME_RE.match(text, i)
            if not m:
                raise ValueError(f"bad character {ch!r} in monomial")
            toks.append(m.group())
            i = m.end()

    def rec(pos):
        if pos >= len(toks):
            raise ValueError(f"truncated monomial in {text!r}")
        tok = toks[pos]
        if tok == "(":
            left, pos = rec(pos + 1)
            right, pos = rec(pos)
            if pos >= len(toks) or toks[pos] != ")":
                raise ValueError(f"expected ')' in monomial {text!r}")
            return gens.pair(left, right), pos + 1
        if tok == ")":
            raise ValueError(f"unexpected ')' in monomial {text!r}")
        return gens.gen(tok), pos + 1

    mono, pos = rec(0)
    if pos != len(toks):
        raise ValueError(f"trailing input in monomial {text!r}")
    return mono


def _old_parse_element(text: str, gens: GeneratorSet, field: FieldSpec) -> Element:
    text = text.strip()
    if text == "0":
        return Element.zero(gens, field)
    total = Element.zero(gens, field)
    for sign, chunk in _old_split_top_terms(text):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"empty term in element {text!r}")
        depth = 0
        split_at = None
        for i, ch in enumerate(chunk):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "*" and depth == 0:
                split_at = i
        if split_at is None:
            coeff = Scalar.one(field)
            mono_text = chunk
        else:
            coeff = _old_parse_scalar(chunk[:split_at], field)
            mono_text = chunk[split_at + 1 :]
        m = _old_parse_monomial(mono_text, gens)
        total = total + Element.from_monomial(gens, field, m, coeff * sign)
    return total


# The fragments of the seeded texts: generator names (x3 is unknown), field
# names, integers, the operators, spaces and one bad character.
READER_FRAGMENTS = (
    ("x1", "x2", "x3", "t1", "t2", "0", "1", "2", "12")
    + tuple("+-*/^()")
    + (" ", "  ", "$")
)


def _read(reader, *args):
    """('ok', value) or ('error', None); the two error classes both exit 2."""
    try:
        return "ok", reader(*args)
    except (ValueError, ZeroInversion):
        return "error", None


def _assert_same_reading(text, gens, field):
    for new, old, args in (
        (parse_element, _old_parse_element, (gens, field)),
        (parse_monomial, _old_parse_monomial, (gens,)),
        (parse_scalar, _old_parse_scalar, (field,)),
    ):
        got, want = _read(new, text, *args), _read(old, text, *args)
        assert got == want, (new.__name__, text, got, want)
        if got[0] == "ok" and new is not parse_monomial:
            assert got[1].encode() == want[1].encode(), (new.__name__, text)
    return _read(parse_element, text, gens, field)[0] == "ok"


def _fragment_text(rng):
    return "".join(rng.choice(READER_FRAGMENTS) for _ in range(rng.randrange(1, 13)))


def _coefficient_text(rng):
    """A product of small factors from the fragments, some signed or bracketed."""
    factors = []
    for _ in range(rng.randrange(1, 4)):
        f = rng.choice(("t1", "t2", "1", "2", "12", "(t1 + 2)", "(t2 - t1)", "-t1", "+2"))
        if rng.random() < 0.2:
            f += rng.choice(("^2", "^-1", "^0"))
        factors.append(f)
    return rng.choice(("*", " * ", "/", " / ")).join(factors)


def _monomial_text(rng, degree):
    if degree == 1:
        return rng.choice(("x1", "x2") * 4 + ("x3",))
    k = rng.randrange(1, degree)
    return f"({_monomial_text(rng, k)} {_monomial_text(rng, degree - k)})"


def _near_element_text(rng):
    """An element-like text, with one fragment inserted, deleted or replaced
    in a third of them."""
    parts = []
    for j in range(rng.randrange(1, 4)):
        if j or rng.random() < 0.3:
            parts.append(rng.choice((" + ", " - ", "+", "-", " - -", "- ")))
        if rng.random() < 0.6:
            parts.append(_coefficient_text(rng) + rng.choice((" * ", "*")))
        parts.append(_monomial_text(rng, rng.randrange(1, 5)))
    text = "".join(parts)
    if rng.random() < 1 / 3:
        i = rng.randrange(len(text) + 1)
        cut = i + rng.choice((0, 1))
        text = text[:i] + rng.choice(READER_FRAGMENTS + ("",)) + text[cut:]
    return text


def _pinned_texts():
    """(text, gens, field, (reader, *its arguments)) of every text of the
    pinned jobs, the slow jobs and the sweep corpus, with the reader that
    reads it."""
    sweep_jobs = _sweep_jobs_module()
    jobs = [cases.load_job(name) for name in cases.EXAMPLES]
    jobs += [job for job, _, _ in SLOW_JOBS.values()]
    jobs += sweep_jobs.corpus(sweep_jobs.CORPUS_SEED, sweep_jobs.load_top_basis())
    for job in jobs:
        gens = GeneratorSet.default(job["gens"])
        field = FieldSpec(tuple(job["field"]))
        for text in [job.get("generator"), *job.get("candidates", ())]:
            if text is not None:
                yield text, gens, field, (parse_element, gens, field)
        if "word" in job:
            yield job["word"], gens, field, (parse_monomial, gens)
        for text in (job["system"]["a"], job["system"]["b"]):
            yield text, gens, field, (parse_scalar, field)


def test_readers_match_old_on_pinned_texts():
    pinned = list(_pinned_texts())
    for text, gens, field, (reader, *args) in pinned:
        _assert_same_reading(text, gens, field)
        assert _read(reader, text, *args)[0] == "ok", text
    assert len(pinned) > 600, len(pinned)


def test_readers_match_old_on_seeded_texts():
    rng = random.Random("one-reader")
    accepted = 0
    for k in range(12_000):
        text = _fragment_text(rng) if k % 2 else _near_element_text(rng)
        accepted += _assert_same_reading(text, G, F)
    assert 1_000 < accepted < 11_000, accepted


# The ideal closure that multiplied Elements: ``_old_multiply`` was
# TruncatedAlgebra.multiply, the normal form of the truncated free product,
# with ``truncate`` for the Element.truncate it called, and
# ``_old_ideal_build`` calls it where it called ``alg.multiply``.  Every
# repro and sweep job has one generator of degree tail - 1 = bound, which
# no product keeps within the bound, so the ideals here have several
# generators, in more than one degree below the tail, and tail <= bound + 1.


def _old_multiply(alg, u: Element, v: Element) -> Element:
    return alg.normal_form(truncate(u * v, alg.bound))


def _old_ideal_build(alg, field, generators: Sequence[Element], tail: int) -> TruncatedIdeal:
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
            for prod in (_old_multiply(alg, el, u), _old_multiply(alg, u, el)):
                if not prod.is_zero:
                    pending.append(prod)

    return TruncatedIdeal(alg, field, tail, tuple(normalized), reducer)


def _rand_generator(rng, alg, degrees):
    """Up to three basis monomials of the given degrees, Q(t) coefficients."""
    pool = [m for d in degrees for m in alg.basis_of_degree(d)]
    return Element(
        alg.gens, F, {rng.choice(pool): _rand_scalar(rng) for _ in range(rng.randrange(1, 4))}
    )


@pytest.mark.parametrize("bound", (3, 4))
@pytest.mark.parametrize("name", builtin_variety_names())
def test_ideal_closure_matches_old(name, bound):
    rng = random.Random(f"ideal_closure/{name}/{bound}")
    alg = build_truncated(builtin_variety(name), G, bound)
    basis = alg.all_basis()
    multiplied = 0
    # tail = bound + 1 as well: there a product that lands on the bound
    # counts, as it is not in the tail
    for tail in list(range(2, bound + 2)) * 2:
        # one to three generators below the tail, some in two degrees
        gens = [
            _rand_generator(rng, alg, rng.sample(range(1, tail), min(2, tail - 1)))
            for _ in range(rng.randrange(1, 4))
        ]
        new = ideal_build(alg, F, gens, tail)
        old = _old_ideal_build(alg, F, gens, tail)
        assert new.reducer.pivots == old.reducer.pivots, (name, tail)
        assert new.rank == old.rank
        listed = _old_ideal_build(alg, F, (), tail).reducer
        for g in gens:
            listed.insert(coordinates(alg, g))
        multiplied += new.rank > listed.rank
        rows = list(new.reducer.pivots.values())
        for _ in range(6):
            # a combination of span rows, nudged off the span half the time
            coords = {}
            for row in rng.sample(rows, min(2, len(rows))):
                c = _rand_scalar(rng)
                for k, v in row.items():
                    coords[k] = coords.get(k, 0) + c * v
            if rng.random() < 0.5:
                k = rng.randrange(len(basis))
                coords[k] = coords.get(k, 0) + _rand_scalar(rng)
            el = Element(G, F, {basis[k]: v for k, v in coords.items()})
            assert new.contains(el) == old.contains(el)
    # the products of generators with monomials grew the span somewhere
    assert multiplied, name


# The exact kernels before they skipped work that the input decides: the
# factoring that made the cofactor monic (with the lone-factor test of the
# old solver, which relied on it), the substitution that ran the product
# pass for a zero image too, and the division that built a polynomial per
# step.


def _old_factor_for_branching(
    p: ParamPoly, hints: Sequence[ParamPoly] = ()
) -> list:
    """Split p into branch-ready factors, dropping the unit in front.

    Returned in order: one factor per unknown dividing every term (with
    multiplicity), then each hint as often as it exactly divides, then the
    remaining cofactor normalised to leading coefficient 1 (omitted when it
    is a nonzero scalar).
    """
    if p.is_zero:
        return []
    ctx = p.ctx
    out = []
    mins = [min(e[i] for e in p.terms) for i in range(ctx.size)]
    if any(mins):
        p = ParamPoly(
            ctx,
            {
                tuple(a - b for a, b in zip(e, mins)): c
                for e, c in p.terms.items()
            },
        )
        for name, k in zip(ctx.names, mins):
            if k:
                out.extend([ParamPoly.variable(ctx, name)] * k)
    for h in hints:
        if h.constant_value() is not None:
            continue
        while True:
            q = p.divide_exact(h)
            if q is None:
                break
            out.append(h)
            p = q
    if p.constant_value() is None:
        out.append(p.monic())
    return out


def _old_is_lone_monic(factors) -> bool:
    """Is the equation its own only branch factor, made monic?

    The factors are nonconstant and multiply to the equation up to a
    scalar, so a factor equals the equation made monic exactly when it is
    the only factor and its leading coefficient is 1.
    """
    return (
        len(factors) == 1
        and _is_variable(factors[0]) is None
        and factors[0].leading()[1].is_one
    )


def _old_one_pass_substitute(self, mapping: Mapping[str, "ParamPoly"]) -> "ParamPoly":
    """Replace unknowns by polynomials (simultaneously).

    One pass over the terms: each term's exponents of the mapped
    unknowns are split off and replaced by the product of the images'
    powers, each power computed once per call, and the result is added
    into a single accumulator.  A zero image has empty powers, so it
    drops every term that mentions its unknown.
    """
    mapped = []
    for i, name in enumerate(self.ctx.names):
        image = mapping.get(name)
        if image is None or not any(e[i] for e in self.terms):
            continue
        if image.ctx != self.ctx:
            raise ValueError("parameter context mismatch")
        mapped.append((i, image.terms))
    if not mapped:
        return self
    powers = {}
    out = {}
    for e, c in self.terms.items():
        rest = list(e)
        for i, _ in mapped:
            rest[i] = 0
        term = {tuple(rest): c}
        for i, image in mapped:
            k = e[i]
            if not k:
                continue
            power = powers.get((i, k))
            if power is None:
                power = image
                for _ in range(k - 1):
                    power = _p_mul(power, image)
                powers[(i, k)] = power
            term = _p_mul(term, power)
        for te, tc in term.items():
            s = out.get(te)
            s = tc if s is None else s + tc
            if s:
                out[te] = s
            else:
                out.pop(te, None)
    return ParamPoly(self.ctx, out)


def _old_reduce_by(self, divisors: Sequence["ParamPoly"]) -> "ParamPoly":
    """Multivariate division remainder modulo the divisors."""
    lead = [(d, d.leading()) for d in divisors if not d.is_zero]
    rem = ParamPoly.zero(self.ctx)
    p = self
    while not p.is_zero:
        e, c = p.leading()
        for d, (de, dc) in lead:
            q = tuple(a - b for a, b in zip(e, de))
            if all(x >= 0 for x in q):
                p = p - ParamPoly(self.ctx, {q: c / dc}) * d
                break
        else:
            t = ParamPoly(self.ctx, {e: c})
            rem = rem + t
            p = p - t
    return rem


def _value_types(p: ParamPoly) -> dict:
    """The type, int or Fraction, of every rational value in p's coefficients."""
    return {
        (e, part, k): type(v)
        for e, c in p.terms.items()
        for part, values in (("num", c.num), ("den", c.den))
        for k, v in values.items()
    }


def _assert_same_poly(new, old):
    assert new == old
    assert new.encode() == old.encode()
    assert _value_types(new) == _value_types(old)


def test_kernels_match_old_on_the_polynomials_jobs_meet():
    # every equation, residual, residue coordinate and rule of the pinned
    # examples, SLOW_JOBS and seeded draws: each pair of a chain is
    # substituted as the tree walk substitutes it, a solved leaf divides by
    # its rules, and every residual is factored
    seen = set()
    for name, job in _walk_jobs().items():
        alg, ideal, cons, tree, candidates = _walk_tree(job)
        hints = [parse_parampoly(h, cons.ctx).monic() for h in job.get("hints", ())]
        index = alg.basis_index()
        coords = []
        for v in candidates:
            applied = cons.alpha.apply(v)
            residue = ideal.residue({index[m]: c for m, c in applied.terms.items()})
            coords += [q for q in residue.values() if q]
        for node in _nodes(tree):
            for eq in node.residuals:
                new = factor_for_branching(eq, hints)
                old = _old_factor_for_branching(eq, hints)
                if new and new[-1] != old[-1]:
                    seen.add("cofactor kept its scalar")
                if new:
                    new[-1] = new[-1].monic()
                assert new == old, (name, eq.encode())
                seen.add("lone" if _is_lone(new) else "several")

        def substitute_steps(node, polys):
            for pair in node.step:
                mapping = dict([pair])
                out = []
                for q in polys:
                    new, old = q.substitute(mapping), _old_one_pass_substitute(q, mapping)
                    _assert_same_poly(new, old)
                    if new != q:
                        seen.add("zero image" if not pair[1] else "image")
                    out.append(new)
                polys = out
            if node.status == "solved" and node.residuals:
                rules = list(node.residuals)
                for q in polys + rules:
                    new, old = q.reduce_by(rules), _old_reduce_by(q, rules)
                    _assert_same_poly(new, old)
                    seen.add("divided to 0" if not new else "remainder")
            for child in node.children:
                substitute_steps(child, polys)

        substitute_steps(tree, list(cons.equations) + coords)
    assert seen == {
        "cofactor kept its scalar", "lone", "several", "zero image", "image",
        "divided to 0", "remainder",
    }


# The cancellation that took the gcd of a linear argument it could not
# divide, the product that cancelled each numerator against a unit
# denominator, and the substitution that looked every unknown of the
# context up in the mapping.


def _old_cancel(p, q):
    """p and q divided by their gcd g, which is monic.

    Two cases skip the gcd.  When p = r*q for a rational r, g is q made
    monic and the parts are the constants lc(p) = r*lc(q) and lc(q).  When
    the shorter argument (by terms; by leading monomial on a tie) has two
    terms or more and divides the longer one exactly, g is the shorter one
    made monic: its part is its lc, and the other part is the quotient
    times that lc.  Otherwise the gcd is taken (``_p_gcd``) and both are
    divided by it.
    """
    zero = (0,) * len(next(iter(p)))
    if _proportional(p, q):
        return {zero: _exact(_p_lead(p)[1])}, {zero: _exact(_p_lead(q)[1])}
    # a divisor's leading monomial divides the dividend's, so of two
    # arguments with as many terms only the one with the larger lead can
    # be the dividend
    swap = len(p) < len(q) or (
        len(p) == len(q) and _grlex(_p_lead(p)[0]) < _grlex(_p_lead(q)[0])
    )
    big, small = (q, p) if swap else (p, q)
    if len(small) > 1:
        s = _p_divexact(big, small)
        if s is not None:
            _, lc = _p_lead(small)
            big = {e: _exact(c * lc) for e, c in s.items()}
            small = {zero: _exact(lc)}
            return (small, big) if swap else (big, small)
    g = _p_gcd(p, q)
    if _p_is_const(g):
        return p, q
    return _p_divexact(p, g), _p_divexact(q, g)


def _old_scalar_mul(self, other):
    """Scalar.__mul__ on _old_cancel, without the field's product memo."""
    if type(other) is int or type(other) is Fraction:
        return self._scaled(other)
    o = self._coerce(other)
    if o is None:
        return NotImplemented
    f = o.as_fraction()
    if f is not None:
        return self._scaled(f)
    f = self.as_fraction()
    if f is not None:
        return o._scaled(f)
    # each factor is in lowest terms, so only a numerator and the
    # other factor's denominator can share a factor
    n1, d2 = _old_cancel(self.num, o.den)
    n2, d1 = _old_cancel(o.num, self.den)
    num, den = _monic_den(_p_mul(n1, n2), _p_mul(d1, d2))
    return Scalar(self.field, num, den, _canonical=True)


def _old_per_name_substitute(self, mapping: Mapping[str, "ParamPoly"]) -> "ParamPoly":
    """Replace unknowns by polynomials (simultaneously).

    An unknown with a zero image drops the terms that mention it; when
    every image is zero that filter is the whole pass, with no power or
    product.  Otherwise one pass over the remaining terms splits off
    each term's exponents of the mapped unknowns and replaces them by
    the product of the images' powers, each power computed once per
    call, and adds the result into a single accumulator.
    """
    mapped = []
    zero = []
    for i, name in enumerate(self.ctx.names):
        image = mapping.get(name)
        if image is None or not any(e[i] for e in self.terms):
            continue
        if image.ctx != self.ctx:
            raise ValueError("parameter context mismatch")
        if image.terms:
            mapped.append((i, image.terms))
        else:
            zero.append(i)
    if not mapped and not zero:
        return self
    terms = self.terms
    if zero:
        terms = {
            e: c for e, c in terms.items() if not any(e[i] for i in zero)
        }
        if not mapped:
            return ParamPoly(self.ctx, terms, _canonical=True)
    powers = {}
    out = {}
    for e, c in terms.items():
        rest = list(e)
        for i, _ in mapped:
            rest[i] = 0
        term = {tuple(rest): c}
        for i, image in mapped:
            k = e[i]
            if not k:
                continue
            power = powers.get((i, k))
            if power is None:
                power = image
                for _ in range(k - 1):
                    power = _p_mul(power, image)
                powers[(i, k)] = power
            term = _p_mul(term, power)
        for te, tc in term.items():
            s = out.get(te)
            s = tc if s is None else s + tc
            if s:
                out[te] = s
            else:
                out.pop(te, None)
    return ParamPoly(self.ctx, out, _canonical=True)


def _assert_same_parts(new, old):
    """Two (p, q) results of a cancellation: the same parts, values and text."""
    field = FieldSpec.default(len(next(iter(old[0]))))
    _assert_identical(
        Scalar(field, *new, _canonical=True), Scalar(field, *old, _canonical=True)
    )


def _is_linear(p):
    """Two terms or more, of total degree 1: irreducible."""
    return len(p) > 1 and max(map(sum, p)) == 1


def _is_unit(p):
    return len(p) == 1 and not any(next(iter(p)))


def test_kernel_shortcuts_match_old_on_the_arguments_jobs_meet(monkeypatch):
    # every call of _cancel, Scalar.__mul__ and ParamPoly.substitute that
    # repro --all and SLOW_JOBS make, with its result
    cancels, products, substitutions = [], [], []
    cancel, mul, substitute = _cancel, Scalar.__mul__, ParamPoly.substitute

    def recording_cancel(p, q):
        out = cancel(p, q)
        cancels.append((dict(p), dict(q), out))
        return out

    def recording_mul(self, other):
        out = mul(self, other)
        products.append((self, other, out))
        return out

    def recording_substitute(self, mapping):
        out = substitute(self, mapping)
        substitutions.append((self, dict(mapping), out))
        return out

    monkeypatch.setattr("veralg.scalars._cancel", recording_cancel)
    monkeypatch.setattr(Scalar, "__mul__", recording_mul)
    monkeypatch.setattr(Scalar, "__rmul__", recording_mul)
    monkeypatch.setattr(ParamPoly, "substitute", recording_substitute)
    cases.run_all()
    for job, _, _ in SLOW_JOBS.values():
        cases.falsify_job(job)
    monkeypatch.undo()
    seen = set()
    for p, q, new in cancels:
        _assert_same_parts(new, _old_cancel(p, q))
        if _is_linear(min(p, q, key=len)):
            seen.add("linear")
    for x, y, new in products:
        old = _old_scalar_mul(x, y)
        if old is NotImplemented:
            assert new is NotImplemented
            continue
        _assert_identical(new, old)
        if isinstance(y, Scalar) and y.as_fraction() is None is x.as_fraction():
            for num, den in ((x.num, y.den), (y.num, x.den)):
                if _is_unit(den):
                    seen.add("constant over a unit" if _is_unit(num) else "unit")
    for p, mapping, new in substitutions:
        _assert_same_poly(new, _old_per_name_substitute(p, mapping))
        seen.add("substituted" if new is not p else "absent")
    assert seen == {"linear", "unit", "constant over a unit", "substituted", "absent"}


def test_kernel_shortcuts_match_old_on_hand_made_cases():
    one, t1, t2 = (0, 0), (1, 0), (0, 1)
    linear = {t1: 1, t2: 2}  # t1 + 2*t2
    other = {(2, 0): 1, t2: 3, one: 1}  # t1^2 + 3*t2 + 1
    pairs = (
        # a linear divisor that divides the other argument
        (_p_mul(linear, other), linear),
        (linear, _p_mul(linear, other)),
        # a linear argument that does not
        (other, linear),
        (linear, other),
        # t1 divides t1*t2 + t1: one term takes the gcd path
        ({t1: 1}, {(1, 1): 1, t1: 1}),
        ({(1, 1): 1, t1: 1}, {t1: 1}),
    )
    for p, q in pairs:
        _assert_same_parts(_cancel(p, q), _old_cancel(p, q))
    assert _cancel({t1: 1}, {(1, 1): 1, t1: 1}) == ({one: 1}, {t2: 1, one: 1})
    # a constant numerator stored as an integral Fraction, over t1 + 1,
    # times a factor over the unit denominator: _cancel makes the 2 an int
    field = FieldSpec(("t1", "t2"))
    x = Scalar(field, {one: Fraction(2)}, {t1: 1, one: 1}, _canonical=True)
    y = Scalar.transcendental(field, "t2")
    for a, b in ((x, y), (y, x)):
        _assert_identical(a * b, _old_scalar_mul(a, b))
        assert type((a * b).num[t2]) is int
    # mappings of two unknowns at once, given out of the context's order,
    # with a zero image and a name the context does not have
    ctx = ParamContext(field, ("u", "v", "w"))
    p = parse_parampoly("u^2*v + t1*u*w + v^2 - w + 3", ctx)
    image_u = parse_parampoly("t1*w - 1", ctx)
    image_v = parse_parampoly("w + t2", ctx)
    for mapping in (
        {"v": image_v, "u": image_u},
        {"u": image_u, "v": image_v},
        {"v": ParamPoly.zero(ctx), "u": image_u, "z": image_v},
    ):
        new = p.substitute(mapping)
        _assert_same_poly(new, _old_per_name_substitute(p, mapping))
        assert not {"u", "v"} & set(new.variables())
