import random
from fractions import Fraction

import pytest

from veralg.scalars import (
    CyclicSubstitution,
    FieldAutomorphism,
    FieldSpec,
    ParamContext,
    ParamPoly,
    Scalar,
    ZeroInversion,
    _p_add,
    _p_gcd,
    _signed_coeff,
    factor_for_branching,
    parampoly_reduce,
    parse_parampoly,
    parse_scalar,
)

F = FieldSpec.default(2)  # Q(t1, t2)


def s(text):
    return parse_scalar(text, F)


def t(name):
    return Scalar.transcendental(F, name)


class TestScalar:
    def test_inverse_of_transcendental(self):
        assert t("t1").inverse().encode() == "1/t1"

    def test_difference_of_squares(self):
        prod = (t("t1") + t("t2")) * (t("t1") - t("t2"))
        assert prod.encode() == "t1^2 - t2^2"

    def test_lowest_terms(self):
        assert s("(t1^2 - t2^2)/(t1 - t2)") == s("t1 + t2")

    def test_monic_denominator_is_canonical(self):
        a = s("1/(2*t1 - 2)")
        b = s("(1/2)/(t1 - 1)")
        assert a == b
        assert a.encode() == "1/(2*t1 - 2)"

    def test_spec_like_fraction_encoding(self):
        assert s("(t1*t2 - 1)/(t1 + 1)").encode() == "(t1*t2 - 1)/(t1 + 1)"

    def test_rational_constants(self):
        assert s("3/6") == Scalar.from_fraction(F, Fraction(1, 2))
        assert s("2^-1").encode() == "1/2"
        assert s("0").is_zero
        assert s("7 - 7").is_zero

    def test_field_ops(self):
        x = s("t1/(t1 + 1)")
        y = s("1/(t1 + 1)")
        assert x + y == Scalar.one(F)
        assert x * x / x == x
        assert (x - x).is_zero
        assert x**3 == x * x * x
        assert 2 * x == x + x
        assert 1 - y == x

    def test_zero_inversion(self):
        with pytest.raises(ZeroInversion):
            Scalar.zero(F).inverse()
        with pytest.raises(ZeroInversion):
            s("1/(t1 - t1)")

    def test_field_mismatch(self):
        other = FieldSpec(("u",))
        with pytest.raises(ValueError):
            t("t1") + Scalar.one(other)

    def test_scale_fraction_matches_mul(self):
        # a rational factor takes the product's no-gcd path; the constructor
        # reduces in full
        x = s("(t1 + 2*t2)/(t2 - 3)")
        f = Fraction(3, 4)
        assert x * f == Scalar(F, {e: c * f for e, c in x.num.items()}, x.den)
        assert x * f == x * Scalar.from_fraction(F, f)

    def test_random_cancellation(self):
        rng = random.Random(20260816)
        for _ in range(25):
            a = _rand_poly(rng)
            b = _rand_poly(rng, nonzero=True)
            c = _rand_poly(rng, nonzero=True)
            lhs = Scalar(F, _mulp(a, c), _mulp(b, c))
            rhs = Scalar(F, a, b)
            assert lhs == rhs

    def test_runaway_gcd(self):
        # a gcd met while solving perfbench's RUNAWAY_JOB: 27 terms of
        # degree 9 against 18 of degree 7; it did not finish while the
        # primitive parts kept a constant factor from step to step
        p = s(
            "4*t1^7*t2^2 + 4*t1^6*t2^3 - 8*t1^7*t2 - 12*t1^6*t2^2"
            " - 16*t1^5*t2^3 - 8*t1^4*t2^4 + 4*t1^7 + 12*t1^6*t2"
            " + 32*t1^5*t2^2 + 28*t1^4*t2^3 + 20*t1^3*t2^4 + 4*t1^2*t2^5"
            " - 4*t1^6 - 16*t1^5*t2 - 32*t1^4*t2^2 - 40*t1^3*t2^3"
            " - 20*t1^2*t2^4 - 8*t1*t2^5 + 12*t1^4*t2 + 20*t1^3*t2^2"
            " + 28*t1^2*t2^3 + 16*t1*t2^4 + 4*t2^5 - 12*t1^2*t2^2"
            " - 8*t1*t2^3 - 8*t2^4 + 4*t2^3"
        ).num
        q = s(
            "t1^3*t2^4 + t1^2*t2^5 - 2*t1^4*t2^2 - 2*t1^3*t2^3 - 2*t1^2*t2^4"
            " - 2*t1*t2^5 + t1^5 + t1^4*t2 + 4*t1^3*t2^2 + 4*t1^2*t2^3"
            " + t1*t2^4 + t2^5 - 2*t1^4 - 2*t1^3*t2 - 2*t1^2*t2^2"
            " - 2*t1*t2^3 + t1^3 + t1^2*t2"
        ).num
        assert (len(p), len(q)) == (27, 18)
        assert _p_gcd(p, q) == s("t1 - 1").num

    def test_encode_round_trip(self):
        rng = random.Random(7)
        for _ in range(25):
            x = Scalar(F, _rand_poly(rng), _rand_poly(rng, nonzero=True))
            assert parse_scalar(x.encode(), F) == x


class TestFieldMemos:
    """A field memoises its non-rational products and its texts by value."""

    def _filled(self):
        field = FieldSpec(("t1", "t2"))
        x = parse_scalar("(t1 + 1)/t2", field)
        y = parse_scalar("t1 - t2", field)
        (x * y).encode()
        ParamPoly(ParamContext(field, ("u",)), {(1,): x}).encode()
        assert field._products and field._texts
        return field

    def test_memos_take_no_part_in_identity(self):
        filled, fresh = self._filled(), FieldSpec(("t1", "t2"))
        assert filled == fresh and hash(filled) == hash(fresh)
        assert repr(filled) == repr(fresh) == "FieldSpec(names=('t1', 't2'))"
        assert not fresh._products and not fresh._texts

    def test_memos_are_not_constructor_arguments(self):
        with pytest.raises(TypeError):
            FieldSpec(("t1", "t2"), {})
        with pytest.raises(TypeError):
            FieldSpec(("t1", "t2"), _products={})

    def test_a_product_of_two_non_rational_scalars_is_memoised(self):
        a, b = s("t1 + 1"), s("1/(t1 - t2)")
        assert a * b is a * b
        assert a * b == parse_scalar("(t1 + 1)/(t1 - t2)", FieldSpec(F.names))
        # a rational factor takes the no-gcd path, which memoises nothing
        assert a * 2 is not a * 2

    def test_equal_scalars_of_two_fields_print_the_same(self):
        one, other = self._filled(), FieldSpec(("t1", "t2"))
        for text in ("(t1 + 1)/t2", "-(t1 + 1)/t2", "t1^2 - 3*t2/2", "-7"):
            x, y = parse_scalar(text, one), parse_scalar(text, other)
            assert x == y and x is not y
            assert x.encode() == y.encode() == str(y)
            assert (-x).encode() == (-y).encode()
            assert parse_scalar(x.encode(), other) == y
            # a polynomial prints a negative coefficient from its negation
            px, py = (
                ParamPoly(ParamContext(f, ("u",)), {(1,): c, (0,): -c})
                for f, c in ((one, x), (other, y))
            )
            assert px.encode() == py.encode()


def _unit_den_scalars(rng, field):
    """Seeded scalars over the unit denominator, some with integral Fractions.

    Each is built through ``_cancel`` from a denominator of 1 that is an
    int or an integral Fraction, which a non-constant numerator keeps.
    """
    zero = (0,) * field.size
    out = [Scalar.zero(field), Scalar.one(field)]
    for _ in range(40):
        num = _rand_poly(rng) if field.size == 2 else {}
        num[zero] = num.get(zero, 0) + Fraction(rng.randrange(-4, 5), rng.randrange(1, 3))
        num = {e: c for e, c in num.items() if c}
        den = {zero: rng.choice((1, Fraction(1)))}
        out.append(Scalar(field, num, den))
    return out


def _value_types(x):
    return {
        (part, e): type(v)
        for part, values in (("num", x.num), ("den", x.den))
        for e, v in values.items()
    }


class TestScalarFastPaths:
    """Paths that skip work the value decides give what the full path gives."""

    @pytest.mark.parametrize("field", (F, FieldSpec(())), ids=("Qt", "Q"))
    def test_sum_over_unit_denominator_matches_cancel_path(self, field):
        rng = random.Random(f"unit-den-sum/{field.size}")
        scalars = _unit_den_scalars(rng, field)
        kinds = set()
        for x in scalars:
            for y in rng.sample(scalars, 8) + [-x]:
                got = x + y
                want = Scalar(field, _p_add(x.num, y.num), dict(x.den))
                assert (got.num, got.den) == (want.num, want.den)
                assert _value_types(got) == _value_types(want)
                if not got:
                    kinds.add("zero")
                else:
                    kinds.add("constant" if got.as_fraction() is not None else "polynomial")
                kinds |= {type(v) for v in got.num.values()}
        assert kinds >= {"zero", "constant", int, Fraction}
        if field.size:
            assert "polynomial" in kinds

    def test_signed_rational_coefficient_matches_negated_text(self):
        values = [1, -1, 7, -12, Fraction(1, 2), Fraction(-3, 4), Fraction(-10, 3)]
        for field in (F, FieldSpec(())):
            zero = (0,) * field.size
            scalars = [Scalar.from_fraction(field, v) for v in values]
            # an integral Fraction value prints as the int
            scalars += [
                Scalar(field, {zero: Fraction(v)}, None, _canonical=True) for v in (2, -5)
            ]
            for c in scalars:
                neg = c.as_fraction() < 0
                assert _signed_coeff(c) == (neg, (-c if neg else c).encode())

    def test_field_and_context_equality(self):
        other = FieldSpec(F.names)
        assert F == F and F == other and hash(F) == hash(other)
        assert F != FieldSpec(("t1",)) and F != F.names
        ctx = ParamContext(F, ("u",))
        assert ctx == ctx == ParamContext(other, ("u",))
        assert hash(ctx) == hash(ParamContext(other, ("u",)))
        assert ctx != ParamContext(F, ("v",)) and ctx != ParamContext(FieldSpec(), ("u",))
        assert ctx != F


def _rand_poly(rng, nonzero=False):
    while True:
        p = {}
        for _ in range(rng.randrange(1, 4)):
            e = (rng.randrange(3), rng.randrange(3))
            c = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
            if c:
                p[e] = p.get(e, 0) + c
        p = {e: c for e, c in p.items() if c}
        if p or not nonzero:
            return p


def _mulp(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = (e1[0] + e2[0], e1[1] + e2[1])
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


class TestFieldAutomorphism:
    def test_swap_is_homomorphism(self):
        phi = FieldAutomorphism.swap(F)
        rng = random.Random(99)
        for _ in range(20):
            x = Scalar(F, _rand_poly(rng), _rand_poly(rng, nonzero=True))
            y = Scalar(F, _rand_poly(rng), _rand_poly(rng, nonzero=True))
            assert phi.apply(x + y) == phi.apply(x) + phi.apply(y)
            assert phi.apply(x * y) == phi.apply(x) * phi.apply(y)
            assert phi.apply(phi.apply(x)) == x

    def test_swap_moves_t1(self):
        phi = FieldAutomorphism.swap(F)
        assert phi.apply(t("t1")) == t("t2")

    def test_identity(self):
        assert FieldAutomorphism.identity(F).apply(s("t1/(t2 + 1)")) == s(
            "t1/(t2 + 1)"
        )

    def test_encode_parse(self):
        assert FieldAutomorphism.parse("swap", F).encode() == "swap"
        assert FieldAutomorphism.parse("id", F).is_identity
        assert FieldAutomorphism.parse("perm:t2,t1", F) == FieldAutomorphism.swap(F)
        with pytest.raises(ValueError):
            FieldAutomorphism.parse("rot13", F)

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            FieldAutomorphism(F, (0, 0))


CTX = ParamContext(F, ("a11", "a12", "a21", "a22", "rho"))


def p(text):
    return parse_parampoly(text, CTX)


class TestParamPoly:
    def test_unknown_named_like_a_transcendental(self):
        with pytest.raises(ValueError) as err:
            ParamContext(FieldSpec(("rho", "t2")), ("a11", "rho"))
        assert str(err.value) == (
            "transcendental 'rho' has the name of a solver unknown;"
            " the unknowns are a11, rho"
        )

    def test_duplicate_unknown_name(self):
        with pytest.raises(ValueError, match="duplicate unknown name 'u'"):
            ParamContext(F, ("u", "v", "u"))

    def test_parse_and_encode(self):
        q = p("(t1 - 1)*a11^2*a12 + rho")
        assert q.encode() == "(t1 - 1)*a11^2*a12 + rho"
        assert parse_parampoly(q.encode(), CTX) == q

    def test_product_expansion(self):
        assert p("(a11 - 1)*(a11 + 1)") == p("a11^2 - 1")

    def test_unknown_in_denominator_rejected(self):
        with pytest.raises(ValueError):
            p("1/a11")
        assert p("(t1*a11)/t1") == p("a11")

    def test_variables_and_leading(self):
        q = p("t2*a11*a22 - a12*a21")
        assert q.variables() == ("a11", "a12", "a21", "a22")
        e, c = q.leading()
        assert e == (1, 0, 0, 1, 0)
        assert c == t("t2")

    def test_substitute(self):
        q = p("a11*a22 - a12*a21")
        assert q.substitute({"a12": p("0")}) == p("a11*a22")
        assert q.substitute({"a11": p("a22"), "a22": p("a11")}) == q
        assert q.substitute({"a11": p("a11 + a12")}) == p(
            "a11*a22 + a12*a22 - a12*a21"
        )
        assert q.substitute({"rho": p("0")}) is q

    def test_encode_is_kept(self):
        q = p("t1*a11 - a12/2")
        text = q.encode()
        assert text == "t1*a11 - (1/2)*a12"
        assert q.encode() is text

    def test_evaluate(self):
        q = p("t1*a11^2 + rho")
        val = q.evaluate({"a11": t("t2"), "rho": Scalar.one(F)})
        assert val == s("t1*t2^2 + 1")
        with pytest.raises(KeyError):
            q.evaluate({"a11": Scalar.one(F)})

    def test_divide_exact(self):
        q = p("a11^2*a22 - a11*a12*a21")
        assert q.divide_exact(p("a11")) == p("a11*a22 - a12*a21")
        assert q.divide_exact(p("a12")) is None

    def test_monic(self):
        q = p("a11*a22 - a12*a21")
        assert q.monic() is q
        assert p("-2/t1*a11*a22 + 2/t1*a12*a21").monic() == q
        assert p("0").monic().is_zero

    def test_reduce_by(self):
        det = p("a11*a22 - a12*a21")
        q = p("t1*a11^2*a12*a22 + a12^2") - p("t1*a11*a12") * det
        assert q.reduce_by([det]).encode() == "t1*a11*a12^2*a21 + a12^2"

    def test_encode_signs(self):
        assert p("-a11 + 2").encode() == "-a11 + 2"
        assert p("a11 - t1*a12").encode() == "a11 - t1*a12"
        assert p("(1 - t1)*a11").encode() == "-(t1 - 1)*a11"


class TestParampolyReduce:
    def test_vanishing_divisor(self):
        det = p("a11*a22 - a12*a21")
        alpha9 = p("-t2*a11^2*a12") * det
        assert parampoly_reduce(alpha9, vanishing=[det]).is_zero

    def test_substitution_then_reduction(self):
        q = p("rho*a11 - t1*a11")
        out = parampoly_reduce(q, substitutions={"rho": p("t1")})
        assert out.is_zero

    def test_chained_substitutions(self):
        q = p("a11 + a12")
        out = parampoly_reduce(
            q, substitutions={"a11": p("a12 + 1"), "a12": p("a21")}
        )
        assert out == p("2*a21 + 1")

    def test_idempotent(self):
        rng = random.Random(3)
        det = p("a11*a22 - a12*a21")
        subs = {"rho": p("t1*a11*a22")}
        for _ in range(10):
            q = _rand_parampoly(rng)
            once = parampoly_reduce(q, substitutions=subs, vanishing=[det])
            again = parampoly_reduce(once, substitutions=subs, vanishing=[det])
            assert once == again

    def test_cycle_detected(self):
        with pytest.raises(CyclicSubstitution):
            parampoly_reduce(
                p("a11"), substitutions={"a11": p("a12"), "a12": p("a11")}
            )
        with pytest.raises(CyclicSubstitution):
            parampoly_reduce(p("rho"), substitutions={"rho": p("rho + 1")})

    def test_out_of_order_rejected(self):
        # a11's image mentions a12, which is substituted before it
        with pytest.raises(CyclicSubstitution):
            parampoly_reduce(
                p("a11"), substitutions={"a12": p("a21"), "a11": p("a12 + 1")}
            )


def _rand_parampoly(rng):
    out = ParamPoly.zero(CTX)
    for _ in range(rng.randrange(1, 5)):
        e = tuple(rng.randrange(3) for _ in CTX.names)
        c = Scalar(F, _rand_poly(rng), _rand_poly(rng, nonzero=True))
        out = out + ParamPoly(CTX, {e: c})
    return out


class TestFactorForBranching:
    def test_monomial_content_then_hint(self):
        det = p("a11*a22 - a12*a21")
        alpha9 = p("-t2*a11^2*a12") * det
        assert factor_for_branching(alpha9, hints=[det]) == [
            p("a11"),
            p("a11"),
            p("a12"),
            det,
        ]

    def test_unit_times_unknown(self):
        assert factor_for_branching(p("(t1*t2 - 1)*rho")) == [p("rho")]

    def test_leading_coefficient_normalised(self):
        # the cofactor keeps its scalar: a caller that branches on it makes
        # it monic
        got = factor_for_branching(p("2*a11*a22 - 2*a12*a21"))
        assert got == [p("2*a11*a22 - 2*a12*a21")]
        assert [f.monic() for f in got] == [p("a11*a22 - a12*a21")]

    def test_pure_unit(self):
        assert factor_for_branching(p("t1 + 1")) == []
        assert factor_for_branching(ParamPoly.zero(CTX)) == []

    def test_variables_built_only_for_dividing_unknowns(self, monkeypatch):
        # one ParamPoly.variable per unknown dividing every term, none when
        # no unknown does
        built = []
        variable = ParamPoly.variable

        def recording(ctx, name):
            built.append(name)
            return variable(ctx, name)

        monkeypatch.setattr(ParamPoly, "variable", staticmethod(recording))
        assert factor_for_branching(p("a11*a22 - a12*a21")) == [p("a11*a22 - a12*a21")]
        assert factor_for_branching(p("t1*rho + 1")) == [p("t1*rho + 1")]
        assert built == []
        got = factor_for_branching(p("a12^2*a21 + a12^2*a21^2*rho"))
        assert got == [p("a12"), p("a12"), p("a21"), p("a21*rho + 1")]
        assert built == ["a12", "a21"]

    def test_repeated_hint(self):
        det = p("a11*a22 - a12*a21")
        got = factor_for_branching(det * det * p("t1"), hints=[det])
        assert got == [det, det]

    def test_product_reconstruction(self):
        rng = random.Random(11)
        det = p("a11*a22 - a12*a21")
        for _ in range(15):
            q = ParamPoly.constant(
                CTX, Scalar(F, _rand_poly(rng, nonzero=True), {(0, 0): Fraction(1)})
            )
            for name in CTX.names:
                for _ in range(rng.randrange(2)):
                    q = q * p(name)
            if rng.randrange(2):
                q = q * det
            factors = factor_for_branching(q, hints=[det])
            prod = ParamPoly.constant(CTX, Scalar.one(F))
            for f in factors:
                prod = prod * f
            quot = q.divide_exact(prod)
            assert quot is not None and quot.constant_value() is not None
