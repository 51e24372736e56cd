"""Tests for operation changes: admissibility, scaling, inner witnesses."""

import random
from fractions import Fraction

import pytest

from veralg.freealg import Element, GeneratorSet, enumerate_monomials, parse_monomial
from veralg.scalars import FieldSpec, Scalar, parse_scalar
from veralg.variety import build_truncated, builtin_variety, builtin_variety_names
from veralg.verbal import (
    PreconditionError,
    VerbalSystem,
    check_op2,
    inner_witness,
    scaling_check,
    sigma_apply,
    word_transform,
)

Q = FieldSpec(())
F2 = FieldSpec(("t1", "t2"))
AB = FieldSpec(("a", "b"))
G1 = GeneratorSet.default(1)
G2 = GeneratorSet.default(2)


def _sys(field, phi, a, b):
    return VerbalSystem.parse(field, phi, a, b)


class TestVerbalSystem:
    def test_parse_defaults(self):
        w = VerbalSystem.parse(Q)
        assert w.phi.encode() == "id"
        assert w.a.is_one and w.b.is_zero

    def test_field_mismatch(self):
        from veralg.scalars import FieldAutomorphism

        with pytest.raises(ValueError):
            VerbalSystem(
                FieldAutomorphism.identity(Q),
                Scalar.one(F2),
                Scalar.zero(F2),
            )

    def test_product_formula(self):
        w = _sys(Q, "id", "2", "3")
        u = Element.generator(G2, Q, "x1")
        v = Element.generator(G2, Q, "x2")
        assert w.product(u, v).encode() == "2 * (x1 x2) + 3 * (x2 x1)"


class TestWordTransform:
    def test_b_zero_scales_by_a(self):
        rng = random.Random(7319)
        alg = build_truncated(builtin_variety("alllinear"), G2, 4)
        w = _sys(Q, "id", "3", "0")
        monos = [m for d in range(1, 5) for m in enumerate_monomials(G2, d)]
        for _ in range(20):
            m = rng.choice(monos)
            got = word_transform(alg, w, m)
            want = Element.from_monomial(G2, Q, m).scale(
                Fraction(3) ** (m.degree - 1)
            )
            assert got == want

    def test_lie_scales_by_a_minus_b(self):
        # in an anticommutative algebra the changed product is (a-b) times
        # the old one, so sigma dilates degree-n monomials by (a-b)^(n-1)
        rng = random.Random(5087)
        alg = build_truncated(builtin_variety("lie"), G2, 5)
        w = _sys(Q, "id", "3", "1")
        monos = [m for d in range(1, 6) for m in enumerate_monomials(G2, d)]
        for _ in range(25):
            m = rng.choice(monos)
            nf = alg.normal_form(Element.from_monomial(G2, Q, m))
            got = word_transform(alg, w, m)
            assert got == nf.scale(Fraction(2) ** (m.degree - 1))

    def test_memoised(self):
        alg = build_truncated(builtin_variety("commutative"), G2, 3)
        w = _sys(Q, "id", "1", "1")
        m = parse_monomial("(x1 (x1 x2))", G2)
        assert word_transform(alg, w, m) is word_transform(alg, w, m)

    def test_above_bound_vanishes(self):
        alg = build_truncated(builtin_variety("commutative"), G2, 3)
        w = _sys(Q, "id", "1", "1")
        m = parse_monomial("((x1 x2) (x1 x2))", G2)
        assert word_transform(alg, w, m).is_zero


class TestSigmaApply:
    def test_semilinear(self):
        alg = build_truncated(builtin_variety("alllinear"), G2, 3)
        w = _sys(F2, "swap", "1", "0")
        t1 = Scalar.transcendental(F2, "t1")
        t2 = Scalar.transcendental(F2, "t2")
        u = Element.parse("(x1 x2)", G2, F2)
        assert sigma_apply(alg, w, u.scale(t1)) == sigma_apply(alg, w, u).scale(t2)

    def test_additive(self):
        alg = build_truncated(builtin_variety("commutative"), G2, 3)
        w = _sys(Q, "id", "2", "1")
        u = Element.parse("(x1 x2) + 2 * (x2 (x1 x1))", G2, Q)
        v = Element.parse("(x1 (x1 x2)) - x1", G2, Q)
        assert sigma_apply(alg, w, u + v) == sigma_apply(alg, w, u) + sigma_apply(
            alg, w, v
        )

    def test_field_mismatch(self):
        alg = build_truncated(builtin_variety("commutative"), G2, 3)
        w = _sys(Q, "id", "1", "1")
        u = Element.generator(G2, F2, "x1")
        with pytest.raises(ValueError):
            sigma_apply(alg, w, u)


# which (a, b) pairs the variety admits: where the product word is only a
# one-parameter family the representative with b = 0 is required, otherwise
# admissibility is cut out by the identity and invertibility checks alone
def _expected_admissible(name, a, b):
    if name in ("AllLinear", "PowerAssociative"):
        return a != b and a != -b
    if name in ("Commutative", "Jordan", "Lie", "Anticommutative"):
        return b == 0 and a != 0
    if name == "Alternative":
        return (a == 0) != (b == 0)
    raise AssertionError(name)


def _expected_form_ok(name, a, b):
    if name in ("Commutative", "Jordan", "Lie", "Anticommutative"):
        return b == 0
    return True


GRID = [(1, 0), (2, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (-1, 1)]


class TestCheckOp2:
    @pytest.mark.parametrize("name", builtin_variety_names())
    def test_rational_grid(self, name):
        variety = builtin_variety(name)
        for a, b in GRID:
            report = check_op2(variety, _sys(Q, "id", str(a), str(b)))
            assert report.admissible == _expected_admissible(name, a, b), (a, b)
            assert report.form_ok == _expected_form_ok(name, a, b), (a, b)
            if name == "Alternative":
                assert report.identity_ok == (a * b == 0), (a, b)
            else:
                assert report.identity_ok, (a, b)

    def test_zero_word_rejected(self):
        with pytest.raises(ValueError):
            _sys(Q, "id", "0", "0")

    def test_folded_pair_stays_invertible(self):
        # b != 0 fails only the form check in a commutative algebra
        report = check_op2(builtin_variety("commutative"), _sys(Q, "id", "2", "1"))
        assert report.identity_ok and report.invertible
        assert not report.form_ok and not report.admissible

    def test_symbolic_all_linear(self):
        report = check_op2(builtin_variety("alllinear"), _sys(AB, "id", "a", "b"))
        assert report.admissible

    def test_symbolic_alternative(self):
        report = check_op2(builtin_variety("alternative"), _sys(AB, "id", "a", "b"))
        assert not report.identity_ok
        assert report.invertible
        assert report.identity_failures

    def test_singular_multidegrees_reported(self):
        report = check_op2(builtin_variety("commutative"), _sys(Q, "id", "1", "-1"))
        assert not report.invertible
        assert (1, 1) in report.singular_multidegrees

    def test_default_bound_reaches_identities(self):
        report = check_op2(builtin_variety("jordan"), _sys(Q, "id", "1", "1"))
        assert report.bound == 4
        report = check_op2(builtin_variety("alternative"), _sys(Q, "id", "0", "1"))
        assert report.bound == 3

    def test_one_generator_alternative(self):
        # the one-generated truncation is commutative and associative, so
        # the laws are decided at the free generators instead of inside it
        for a, b in ((1, 1), (2, 1), (1, 2)):
            report = check_op2(
                builtin_variety("alternative"), _sys(Q, "id", str(a), str(b)), G1
            )
            assert not report.identity_ok and not report.admissible, (a, b)
            assert report.invertible
            for _, witness in report.identity_failures:
                assert witness == ("y1", "y2", "y3")

    def test_as_dict_round_trip(self):
        import json

        report = check_op2(builtin_variety("lie"), _sys(Q, "id", "1", "1"))
        blob = json.dumps(report.as_dict())
        assert '"admissible": false' in blob


class TestScalingCheck:
    def test_b_zero_any_monomial(self):
        alg = build_truncated(builtin_variety("lie"), G2, 4)
        field = FieldSpec(("a",))
        w = VerbalSystem.parse(field, "id", "a", "0")
        m = parse_monomial("(x1 (x1 x2))", G2)
        assert scaling_check(alg, w, m).encode() == "a"

    def test_power_family_one_generator(self):
        alg = build_truncated(builtin_variety("powerassociative"), G1, 4)
        w = VerbalSystem.parse(AB, "id", "a", "b")
        m = parse_monomial("((x1 x1) (x1 x1))", G1)
        assert scaling_check(alg, w, m).encode() == "a + b"

    def test_commutative_concrete(self):
        alg = build_truncated(builtin_variety("commutative"), G2, 4)
        w = _sys(Q, "id", "2", "1")
        m = parse_monomial("((x1 x1) x1)", G2)
        assert scaling_check(alg, w, m).as_fraction() == 3

    def test_rejects_mixed_monomial(self):
        alg = build_truncated(builtin_variety("powerassociative"), G2, 3)
        w = _sys(Q, "id", "1", "1")
        with pytest.raises(PreconditionError):
            scaling_check(alg, w, parse_monomial("(x1 x2)", G2))

    def test_rejects_non_power_family(self):
        alg = build_truncated(builtin_variety("lie"), G2, 3)
        w = _sys(Q, "id", "1", "1")
        with pytest.raises(PreconditionError):
            scaling_check(alg, w, parse_monomial("(x1 x1)", G2))

    def test_rejects_above_bound(self):
        alg = build_truncated(builtin_variety("commutative"), G1, 3)
        w = _sys(Q, "id", "1", "0")
        with pytest.raises(PreconditionError):
            scaling_check(alg, w, parse_monomial("((x1 x1) (x1 x1))", G1))


class TestInnerWitness:
    def test_plain_rescale_is_inner(self):
        alg = build_truncated(builtin_variety("alllinear"), G2, 3)
        report = inner_witness(alg, _sys(Q, "id", "2", "0"))
        assert report.status == "inner"
        assert report.witness.as_fraction() == Fraction(1, 2)

    def test_commutative_fold_is_inner(self):
        alg = build_truncated(builtin_variety("commutative"), G2, 3)
        report = inner_witness(alg, _sys(Q, "id", "1", "1"))
        assert report.status == "inner"
        assert report.witness.as_fraction() == Fraction(1, 2)
        report = inner_witness(alg, _sys(Q, "id", "2", "1"))
        assert report.witness.as_fraction() == Fraction(1, 3)

    def test_lie_bracket_scale_is_inner(self):
        alg = build_truncated(builtin_variety("lie"), G2, 3)
        report = inner_witness(alg, _sys(Q, "id", "3", "1"))
        assert report.status == "inner"
        assert report.witness.as_fraction() == Fraction(1, 2)

    def test_moved_transcendental_refutes(self):
        alg = build_truncated(builtin_variety("alllinear"), G2, 3)
        report = inner_witness(alg, _sys(F2, "swap", "1", "0"))
        assert report.status == "refuted"
        assert "-(t1 - t2)*mu" in report.obstruction

    def test_opposite_part_refutes(self):
        alg = build_truncated(builtin_variety("alllinear"), G2, 3)
        report = inner_witness(alg, _sys(Q, "id", "2", "1"))
        assert report.status == "refuted"
        assert "mu^2" in report.obstruction

    def test_random_rescales(self):
        rng = random.Random(60913)
        alg = build_truncated(builtin_variety("alllinear"), G2, 3)
        for _ in range(10):
            a = Fraction(rng.randrange(1, 9), rng.randrange(1, 5))
            report = inner_witness(alg, _sys(Q, "id", str(a), "0"))
            assert report.status == "inner"
            assert report.witness.as_fraction() == 1 / a

    def test_witness_verifies_against_sigma(self):
        # the reported dilation reproduces sigma on every basis monomial
        alg = build_truncated(builtin_variety("jordan"), G2, 4)
        w = _sys(Q, "id", "2", "1")
        report = inner_witness(alg, w)
        assert report.status == "inner"
        mu = report.witness
        for m in alg.all_basis():
            got = word_transform(alg, w, m)
            want = alg.normal_form(
                Element.from_monomial(G2, Q, m).scale(mu ** (1 - m.degree))
            )
            assert got == want
