import random
from fractions import Fraction
from math import comb

import pytest

from veralg.freealg import (
    ContextMismatch,
    Element,
    Endomorphism,
    GeneratorSet,
    enumerate_monomials,
    monomials_of_multidegree,
    parse_element,
    parse_monomial,
)
from veralg.scalars import FieldSpec, ParamPoly, Scalar

F = FieldSpec.default(2)
G = GeneratorSet.default(2)


def catalan(k):
    return comb(2 * k, k) // (k + 1)


class TestMonomials:
    def test_counts_match_tree_oracle(self):
        for n in (1, 2, 3):
            gens = GeneratorSet.default(n)
            for d in range(1, 7):
                assert len(enumerate_monomials(gens, d)) == catalan(d - 1) * n**d

    def test_order_is_strict(self):
        for d in range(1, 6):
            ms = enumerate_monomials(G, d)
            keys = [m.sort_key for m in ms]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)

    def test_degree_three_order(self):
        got = [m.encode() for m in enumerate_monomials(G, 3)[:5]]
        assert got == [
            "(x1 (x1 x1))",
            "(x1 (x1 x2))",
            "(x1 (x2 x1))",
            "(x1 (x2 x2))",
            "(x2 (x1 x1))",
        ]
        assert enumerate_monomials(G, 3)[8].encode() == "((x1 x1) x1)"

    def test_shallower_trees_come_first(self):
        balanced = parse_monomial("((x1 x2) (x1 (x1 x2)))", G)
        comb_tree = parse_monomial("(x1 (x1 (x2 (x1 x2))))", G)
        assert balanced.depth == 3 and comb_tree.depth == 4
        assert balanced.sort_key < comb_tree.sort_key

    def test_interning(self):
        a = G.gen("x1") * G.gen("x2")
        b = G.pair(G.generator(0), G.generator(1))
        assert a is b

    def test_multidegree(self):
        m = parse_monomial("((x1 x2) x1)", G)
        assert m.multidegree == (2, 1)
        assert m.word == (0, 1, 0)
        assert m.degree == 3

    def test_monomials_of_multidegree(self):
        ms = monomials_of_multidegree(G, (2, 1))
        assert len(ms) == catalan(2) * 3  # 2 shapes, 3 words
        assert all(m.multidegree == (2, 1) for m in ms)

    def test_encode_round_trip(self):
        rng = random.Random(5)
        for _ in range(30):
            m = _rand_monomial(rng, 6)
            assert parse_monomial(m.encode(), G) is m


def _rand_monomial(rng, max_degree):
    d = rng.randrange(1, max_degree + 1)
    ms = enumerate_monomials(G, d)
    return ms[rng.randrange(len(ms))]


def _rand_scalar(rng):
    num = {
        (rng.randrange(2), rng.randrange(2)): Fraction(rng.randrange(-3, 4))
        for _ in range(2)
    }
    num = {e: c for e, c in num.items() if c}
    return Scalar(F, num) if num else Scalar.one(F)


def _rand_element(rng, max_degree=3, size=3):
    el = Element.zero(G, F)
    for _ in range(size):
        el = el + Element.from_monomial(G, F, _rand_monomial(rng, max_degree), _rand_scalar(rng))
    return el


class TestElement:
    def test_product_is_nonassociative(self):
        x1 = Element.generator(G, F, "x1")
        x2 = Element.generator(G, F, "x2")
        assert (x1 * x2) * x1 != x1 * (x2 * x1)

    def test_bilinearity(self):
        rng = random.Random(17)
        for _ in range(10):
            a, b, c = (_rand_element(rng) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert a * (b + c) == a * b + a * c

    def test_truncate(self):
        x1 = Element.generator(G, F, "x1")
        el = x1 + x1 * x1 + (x1 * x1) * x1
        assert el.truncate(2) == x1 + x1 * x1
        assert el.max_degree() == 3

    def test_split_multidegree(self):
        el = parse_element("(x1 x2) + (x2 x1) + (x1 x1)", G, F)
        parts = el.split_multidegree()
        assert set(parts) == {(2, 0), (1, 1)}
        assert parts[(1, 1)] == parse_element("(x1 x2) + (x2 x1)", G, F)

    def test_parse_spec_style(self):
        el = parse_element("t1 * (x1 x2) + (x2 x1)", G, F)
        assert el.coefficient(parse_monomial("(x1 x2)", G)) == Scalar.transcendental(F, "t1")
        assert el.coefficient(parse_monomial("(x2 x1)", G)) == Scalar.one(F)
        assert el.encode() == "t1 * (x1 x2) + (x2 x1)"

    def test_parse_signs_and_coeffs(self):
        el = parse_element("-t1 * (x1 x2) + x1 - (1/2) * x2", G, F)
        assert el.coefficient(G.gen("x1")) == Scalar.one(F)
        assert el.coefficient(G.gen("x2")) == Scalar.from_fraction(F, Fraction(-1, 2))
        assert el.coefficient(G.gen("x1") * G.gen("x2")) == -Scalar.transcendental(F, "t1")

    def test_encode_round_trip(self):
        rng = random.Random(23)
        for _ in range(20):
            el = _rand_element(rng)
            assert parse_element(el.encode(), G, F) == el

    def test_context_mismatch(self):
        other = GeneratorSet(("y1", "y2"))
        with pytest.raises(ContextMismatch):
            Element.generator(G, F, "x1") + Element.generator(other, F, "y1")


class TestEndomorphism:
    def test_is_multiplicative(self):
        rng = random.Random(31)
        x1, x2 = (Element.generator(G, F, n) for n in G.names)
        alpha = Endomorphism(G, F, [x1 + x2 * x1, x2.scale(Scalar.transcendental(F, "t2"))])
        for _ in range(8):
            u, v = _rand_element(rng, 2), _rand_element(rng, 2)
            assert alpha.apply(u * v) == alpha.apply(u) * alpha.apply(v)

    def test_identity(self):
        rng = random.Random(41)
        ident = Endomorphism.identity(G, F)
        el = _rand_element(rng, 4)
        assert ident.apply(el) == el

    def test_truncated_apply(self):
        rng = random.Random(43)
        alpha = Endomorphism(
            G,
            F,
            [
                Element.generator(G, F, "x1") + Element.generator(G, F, "x1") * Element.generator(G, F, "x2"),
                Element.generator(G, F, "x2"),
            ],
        )
        for _ in range(8):
            el = _rand_element(rng, 3)
            assert alpha.apply(el, bound=4) == alpha.apply(el).truncate(4)


class TestSymbolicEndomorphism:
    def test_generic_linear_names(self):
        alpha = Endomorphism.generic_linear(G, F, extra=("rho",))
        assert alpha.domain.names == ("a11", "a12", "a21", "a22", "rho")

    def test_generic_linear_images(self):
        alpha = Endomorphism.generic_linear(G, F)
        ctx = alpha.domain
        img = alpha.images[1]  # image of x2
        assert img.coefficient(G.gen("x1")) == ParamPoly.variable(ctx, "a12")
        assert img.coefficient(G.gen("x2")) == ParamPoly.variable(ctx, "a22")

    def test_specialize_commutes_with_apply(self):
        rng = random.Random(47)
        alpha = Endomorphism.generic_linear(G, F)
        ctx = alpha.domain
        for _ in range(6):
            asgn = {n: _rand_scalar(rng) for n in ctx.names}
            el = _rand_element(rng, 3)
            sym = alpha.apply(el).evaluate(asgn)
            conc = alpha.specialize(asgn).apply(el)
            assert sym == conc

    def test_param_element_roundtrip(self):
        alpha = Endomorphism.generic_linear(G, F)
        ctx = alpha.domain
        el = parse_element("t1 * (x1 x2)", G, F)
        image = alpha.apply(el)
        assert not image.is_zero
        coeff = image.coefficient(parse_monomial("(x1 x1)", G))
        assert coeff == ParamPoly.parse("t1*a11*a12", ctx)
