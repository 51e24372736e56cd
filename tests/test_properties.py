"""Property tests for the exact arithmetic layer.

Hypothesis runs derandomized, so every run draws the same examples.  The
sympy gcd comparison is an independent oracle and is skipped when sympy is
not installed.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from veralg.scalars import (
    FieldSpec,
    Scalar,
    _grlex,
    _p_add,
    _p_divexact,
    _p_gcd,
    _p_mul,
    _p_neg,
    parse_scalar,
)

F = FieldSpec.default(2)  # Q(t1, t2)

PROPS = settings(derandomize=True, deadline=None, max_examples=40)

coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=3)
exponents = st.tuples(st.integers(0, 1), st.integers(0, 1))
wide_exponents = st.tuples(st.integers(0, 2), st.integers(0, 2))


def _clean(p):
    return {e: c for e, c in p.items() if c}


polys = st.dictionaries(exponents, coefficients, max_size=3).map(_clean)
nonzero_polys = polys.filter(bool)
# gcd inputs may have higher degree: no field operation runs on top of them
wide_polys = st.dictionaries(wide_exponents, coefficients, max_size=3).map(_clean)
nonzero_wide_polys = wide_polys.filter(bool)
scalars = st.builds(lambda n, d: Scalar(F, n, d), polys, nonzero_polys)
nonzero_scalars = scalars.filter(lambda x: not x.is_zero)


def _lead_coeff(p):
    return p[max(p, key=_grlex)]


class TestFieldAxioms:
    @PROPS
    @given(scalars, scalars, scalars)
    def test_addition(self, x, y, z):
        zero = Scalar.zero(F)
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x + zero == x
        assert (x + (-x)).is_zero
        assert x - y == x + (-y)

    @PROPS
    @given(scalars, scalars, scalars)
    def test_multiplication(self, x, y, z):
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * Scalar.one(F) == x
        assert (x * Scalar.zero(F)).is_zero

    @PROPS
    @given(scalars, scalars, scalars)
    def test_distributivity(self, x, y, z):
        assert x * (y + z) == x * y + x * z

    @PROPS
    @given(nonzero_scalars, scalars)
    def test_inverse(self, x, y):
        assert x * x.inverse() == Scalar.one(F)
        assert (y / x) * x == y

    @PROPS
    @given(scalars, coefficients)
    def test_scale_fraction_is_multiplication(self, x, f):
        assert x.scale_fraction(f) == x * Scalar.from_fraction(F, f)

    @PROPS
    @given(scalars)
    def test_denominator_is_monic(self, x):
        assert _lead_coeff(x.den) == 1


class TestGcdContract:
    @PROPS
    @given(wide_polys, wide_polys)
    def test_divides_both_and_is_monic(self, p, q):
        g = _p_gcd(p, q)
        if not p and not q:
            assert g == {}
            return
        assert _lead_coeff(g) == 1
        assert _p_divexact(p, g) is not None
        assert _p_divexact(q, g) is not None

    @PROPS
    @given(wide_polys, wide_polys, nonzero_wide_polys)
    def test_common_factor_divides_gcd(self, p, q, r):
        g = _p_gcd(_p_mul(p, r), _p_mul(q, r))
        if not g:
            assert not p and not q
            return
        assert _p_divexact(g, r) is not None

    @PROPS
    @given(wide_polys, wide_polys)
    def test_symmetric(self, p, q):
        assert _p_gcd(p, q) == _p_gcd(q, p)


def _lift(p):
    return {e: Scalar.from_fraction(F, c) for e, c in p.items()}


def _drop(p):
    return None if p is None else {e: c.as_fraction() for e, c in p.items()}


class TestHelpersOnScalarValues:
    """The raw helpers give the same result on Fraction and Scalar values."""

    @PROPS
    @given(wide_polys, wide_polys)
    def test_add_and_mul(self, p, q):
        assert _drop(_p_add(_lift(p), _lift(q))) == _p_add(p, q)
        assert _drop(_p_mul(_lift(p), _lift(q))) == _p_mul(p, q)
        assert _p_add(_lift(p), _p_neg(_lift(p))) == {}

    @PROPS
    @given(wide_polys, nonzero_wide_polys, wide_polys)
    def test_divexact(self, p, d, r):
        prod = _p_mul(p, d)
        assert _drop(_p_divexact(_lift(prod), _lift(d))) == _p_divexact(prod, d) == p
        other = _p_add(prod, r)
        assert _drop(_p_divexact(_lift(other), _lift(d))) == _p_divexact(other, d)


class TestEncoding:
    @PROPS
    @given(scalars)
    def test_encode_parses_back(self, x):
        assert parse_scalar(x.encode(), F) == x

    @PROPS
    @given(scalars)
    def test_encode_of_negation(self, x):
        assert parse_scalar("-(" + x.encode() + ")", F) == -x


class TestSympyGcdOracle:
    @PROPS
    @given(wide_polys, wide_polys, nonzero_wide_polys)
    def test_gcd_matches_sympy(self, p, q, r):
        sympy = pytest.importorskip("sympy")
        t1, t2 = sympy.symbols("t1 t2")

        def to_sympy(d):
            return sympy.Poly(
                sum((sympy.Rational(c.numerator, c.denominator) * t1**a * t2**b
                     for (a, b), c in d.items()), sympy.Integer(0)),
                t1, t2, domain="QQ",
            )

        def from_sympy(poly):
            out = {e: Fraction(int(c.p), int(c.q)) for e, c in poly.terms() if c}
            if not out:
                return {}
            lc = _lead_coeff(out)
            return {e: c / lc for e, c in out.items()}

        pr, qr = _p_mul(p, r), _p_mul(q, r)
        expected = from_sympy(sympy.gcd(to_sympy(pr), to_sympy(qr)))
        assert _p_gcd(pr, qr) == expected
