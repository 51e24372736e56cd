import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from endomorphism_oracle import Endomorphism, evaluate, truncate
from veralg.freealg import (
    ContextMismatch,
    Element,
    GeneratorSet,
    SymbolicEndomorphism,
    enumerate_monomials,
    parse_element,
    parse_monomial,
)
from veralg.scalars import FieldSpec, ParamPoly, Scalar, parse_parampoly
from veralg.variety import build_truncated, builtin_variety

from test_oracles import monomials_of_multidegree

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

    def test_interning_across_equal_generator_sets(self):
        # equal but distinct generator sets share their monomials
        g1 = GeneratorSet(("x1", "x2"))
        g2 = GeneratorSet(("x1", "x2"))
        assert g1 == g2 and g1 is not g2
        a = g1.pair(g1.generator(0), g1.generator(1))
        b = g2.pair(g2.generator(0), g2.generator(1))
        assert a is b
        assert g2.pair(a, g1.generator(0)) is g1.pair(b, g2.generator(0))

    def test_pair_across_unequal_generator_sets(self):
        other = GeneratorSet(("y1", "y2"))
        x1, y1 = G.generator(0), other.generator(0)
        for left, right in ((x1, y1), (y1, x1), (y1, y1)):
            with pytest.raises(ContextMismatch):
                G.pair(left, right)

    def test_multidegree(self):
        m = parse_monomial("((x1 x2) x1)", G)
        assert m.multidegree == (2, 1)
        assert m.word == (0, 1, 0)
        assert m.degree == 3

    def test_monomials_of_multidegree(self):
        ms = monomials_of_multidegree(G, (2, 1))
        assert len(ms) == catalan(2) * 3  # 2 shapes, 3 words
        assert all(m.multidegree == (2, 1) for m in ms)
        # oracle: the degree's monomials filtered by multidegree, same order
        for n, top in ((1, 6), (2, 5), (3, 4)):
            gens = GeneratorSet.default(n)
            for d in range(1, top + 1):
                for md in itertools.product(range(d + 1), repeat=n):
                    if sum(md) == d:
                        want = tuple(
                            m for m in enumerate_monomials(gens, d)
                            if m.multidegree == md
                        )
                        assert monomials_of_multidegree(gens, md) == want, md

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


def _rand_poly_scalar(rng):
    """A nonzero polynomial of Q(t1, t2) with 1 to 3 rational coefficients."""
    num = {}
    while not num:
        for _ in range(rng.randrange(1, 4)):
            e = (rng.randrange(3), rng.randrange(3))
            num[e] = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
        num = {e: c for e, c in num.items() if c}
    return Scalar(F, num)


def _lead_negative(p):
    return p[max(p, key=lambda e: (sum(e), e))] < 0


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
        assert truncate(el, 2) == x1 + x1 * x1
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
        # rational-function coefficients: denominators, fractions and
        # negative leading terms
        signs = [0, 0]
        for _ in range(60):
            el = Element.zero(G, F)
            for _ in range(rng.randrange(1, 4)):
                c = _rand_poly_scalar(rng) / _rand_poly_scalar(rng)
                signs[_lead_negative(c.num)] += 1
                el = el + Element.from_monomial(G, F, _rand_monomial(rng, 4), c)
            assert parse_element(el.encode(), G, F) == el
        assert min(signs) > 10, signs

    def test_context_mismatch(self):
        other = GeneratorSet(("y1", "y2"))
        with pytest.raises(ContextMismatch):
            Element.generator(G, F, "x1") + Element.generator(other, F, "y1")


class TestEndomorphism:
    def test_is_multiplicative(self):
        rng = random.Random(31)
        x1, x2 = (Element.generator(G, F, n) for n in G.names)
        alpha = Endomorphism(G, F, [x1 + x2 * x1, x2 * Scalar.transcendental(F, "t2")])
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
            assert alpha.apply(el, bound=4) == truncate(alpha.apply(el), 4)


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
            sym = evaluate(alpha.apply(el), asgn)
            conc = alpha.specialize(asgn).apply(el)
            assert sym == conc

    def test_param_element_roundtrip(self):
        alpha = Endomorphism.generic_linear(G, F)
        ctx = alpha.domain
        el = parse_element("t1 * (x1 x2)", G, F)
        image = alpha.apply(el)
        assert not image.is_zero
        coeff = image.coefficient(parse_monomial("(x1 x1)", G))
        assert coeff == parse_parampoly("t1*a11*a12", ctx)


class TestSymbolicEndomorphismContext:
    def _alpha(self):
        return SymbolicEndomorphism(build_truncated(builtin_variety("lie"), G, 3), F)

    def test_rejects_element_over_another_field(self):
        other = FieldSpec(("s1",))
        with pytest.raises(ContextMismatch):
            self._alpha().apply(Element.generator(G, other, "x1"))

    def test_rejects_element_over_other_generators(self):
        other = GeneratorSet(("y1", "y2"))
        with pytest.raises(ContextMismatch):
            self._alpha().apply(Element.generator(other, F, "y1"))
