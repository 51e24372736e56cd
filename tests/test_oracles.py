"""Replaced algorithms kept as oracles for the code that replaced them.

Each ``_old_*`` function is a verbatim copy of an earlier implementation:
the pivot-by-pivot residue loops (one per coefficient type) and the sigma
step that took two normal forms per product.  The current code must agree
with them exactly.
"""

import random
from fractions import Fraction

import pytest

from veralg.closure import ideal_build
from veralg.freealg import Element, Endomorphism, GeneratorSet, parse_element
from veralg.scalars import FieldSpec, ParamContext, ParamPoly, Scalar
from veralg.variety import build_truncated, builtin_variety
from veralg.verbal import VerbalSystem, word_transform

F = FieldSpec(("t1", "t2"))
G = GeneratorSet.default(2)
CTX = ParamContext(F, ("u", "v"))


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
            s = out.get(k, ParamPoly.zero(q.ctx)) - q.scale(v)
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
        lr = alg.normal_form((left * right).truncate(alg.bound))
        rl = alg.normal_form((right * left).truncate(alg.bound))
        out = lr.scale(system.a) + rl.scale(system.b)
    memo[m] = out
    return out


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


SIGMA_ALGEBRAS = (("lie", 5), ("alternative", 4), ("alllinear", 4))
SIGMA_SYSTEMS = (("t1", "(t1 + 1)/t2"), ("(t1 + 1)/t2", "t1 - t2"))


@pytest.mark.parametrize("variety,bound", SIGMA_ALGEBRAS)
@pytest.mark.parametrize("a,b", SIGMA_SYSTEMS)
def test_word_transform_matches_two_normal_forms(variety, bound, a, b):
    alg = build_truncated(builtin_variety(variety), G, bound)
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
        el = el + el.scale(Scalar.transcendental(F, "t2"))
        for _ in range(4):
            values = {n: _rand_scalar(rng) for n in alpha.domain.names}
            assert alg.normal_form(el).evaluate(values) == alg.normal_form(
                el.evaluate(values)
            )
