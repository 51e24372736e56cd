"""Tests for truncated ideals, case analysis, and falsification verdicts.

Expected equation systems, case splits, and witnesses for the pinned
falsification runs are frozen here; they were derived by hand from the
defining data (generator, operation change, variety) and cross-checked
against an independent expansion of the generic linear map.
"""

import json
import random

import pytest

from veralg.closure import (
    Certificate,
    closure_sampled,
    coordinates,
    falsify_equation_ideal,
    falsify_smallest_closed,
    gen_constraints,
    ideal_build,
    kernel_contains,
    sf_image,
    solve_cases,
)
from veralg.freealg import (
    Element,
    Endomorphism,
    GeneratorSet,
    parse_element,
    parse_monomial,
)
from veralg.scalars import FieldSpec, ParamContext, ParamPoly, Scalar
from veralg.variety import build_truncated, builtin_variety
from veralg.verbal import PreconditionError, VerbalSystem, check_op2, sigma_apply

F = FieldSpec(("t1", "t2"))
G = GeneratorSet.default(2)
SWAP10 = VerbalSystem.parse(F, "swap", "1", "0")


def _alg(variety, bound):
    return build_truncated(builtin_variety(variety), G, bound)


def _rand_scalar(rng):
    return Scalar.from_fraction(F, rng.choice([-3, -2, -1, 1, 2, 3]))


def _rand_ideal_element(alg, rng, maxdeg):
    basis = [m for d in range(1, maxdeg + 1) for m in alg.basis_of_degree(d)]
    picks = rng.sample(basis, k=min(3, len(basis)))
    return Element(G, F, {m: _rand_scalar(rng) for m in picks})


def _solved_zero_sets(tree):
    out = []
    for leaf in tree.leaves():
        if leaf.status == "solved":
            out.append(frozenset(n for n, p in leaf.substitutions if p.is_zero))
    return out


class TestIdealBuild:
    def test_rank_counts_generator_and_products(self):
        alg = _alg("alllinear", 3)
        t = parse_element("(x1 x2)", G, F)
        ideal = ideal_build(alg, F, (t,), 4)
        # generator plus the four degree-3 products x1*t, x2*t, t*x1, t*x2
        assert ideal.rank == 5
        for s in ["(x1 (x1 x2))", "(x2 (x1 x2))", "((x1 x2) x1)", "((x1 x2) x2)"]:
            assert ideal.contains(parse_element(s, G, F))
        assert not ideal.contains(parse_element("(x2 x1)", G, F))

    def test_tail_inside_bound_adds_unit_rows(self):
        alg = _alg("alllinear", 3)
        ideal = ideal_build(alg, F, (parse_element("(x1 x2)", G, F),), 3)
        # one degree-2 pivot plus all sixteen degree-3 monomials
        assert ideal.rank == 17
        assert ideal.contains(parse_element("(x2 (x2 x2))", G, F))

    def test_tail_above_bound_keeps_generator_only(self):
        alg = _alg("alllinear", 2)
        t = parse_element("t1 * (x1 x2) + (x2 x1)", G, F)
        ideal = ideal_build(alg, F, (t,), 3)
        assert ideal.rank == 1
        assert ideal.contains(t.scale(Scalar.from_fraction(F, 7)))
        assert not ideal.contains(parse_element("(x1 x2)", G, F))

    def test_closed_under_products(self):
        rng = random.Random(31)
        for name in ["commutative", "lie", "alllinear"]:
            alg = _alg(name, 3)
            ideal = ideal_build(alg, F, (_rand_ideal_element(alg, rng, 2),), 4)
            span = ideal.span_elements()
            for el in span:
                for m in alg.basis_of_degree(1):
                    one = Element.from_monomial(G, F, m)
                    assert ideal.contains(alg.multiply(one, el))
                    assert ideal.contains(alg.multiply(el, one))

    def test_rejects_bad_tail_and_field(self):
        alg = _alg("alllinear", 2)
        t = parse_element("(x1 x2)", G, F)
        with pytest.raises(ValueError):
            ideal_build(alg, F, (t,), 1)
        other = parse_element("(x1 x2)", G, FieldSpec(("s",)))
        with pytest.raises(ValueError):
            ideal_build(alg, F, (other,), 3)

    def test_residue_kills_span_only(self):
        alg = _alg("alllinear", 2)
        t = parse_element("t1 * (x1 x2) + (x2 x1)", G, F)
        ideal = ideal_build(alg, F, (t,), 3)
        zero = ideal.residue(coordinates(alg, alg.normal_form(t)))
        assert all(v.is_zero for v in zero.values())
        res = ideal.residue(coordinates(alg, parse_element("(x2 x1)", G, F)))
        assert any(not v.is_zero for v in res.values())

    def test_residue_param_commutes_with_evaluation(self):
        rng = random.Random(57)
        alg = _alg("commutative", 3)
        ideal = ideal_build(alg, F, (parse_element("(x1 x2)", G, F),), 4)
        ctx = ParamContext(F, ("u", "v"))
        for _ in range(5):
            coords = {}
            for m in alg.all_basis():
                if rng.random() < 0.4:
                    coords[alg.basis_index()[m]] = ParamPoly.parse(
                        rng.choice(["u", "v", "u*v", "u + 1", "2*v"]), ctx
                    )
            sym = ideal.residue(coords)
            asgn = {"u": _rand_scalar(rng), "v": _rand_scalar(rng)}
            lhs = {j: p.evaluate(asgn) for j, p in sym.items()}
            rhs = ideal.residue({j: p.evaluate(asgn) for j, p in coords.items()})
            keys = set(lhs) | set(rhs)
            for k in keys:
                a = lhs.get(k, Scalar.zero(F))
                b = rhs.get(k, Scalar.zero(F))
                assert a == b


class TestSfImage:
    def test_moves_parameter_through_phi(self):
        alg = _alg("commutative", 3)
        t = parse_element("t1 * (x1 (x1 x2)) + (x2 (x1 x1))", G, F)
        ideal = ideal_build(alg, F, (t,), 4)
        image = sf_image(alg, ideal, SWAP10)
        assert [e.encode() for e in image.span_elements()] == [
            "t2 * (x1 (x1 x2)) + (x2 (x1 x1))"
        ]

    def test_gate_rejects_inadmissible_change(self):
        alg = _alg("commutative", 3)
        ideal = ideal_build(
            alg, F, (parse_element("(x1 (x1 x2))", G, F),), 4
        )
        bad = VerbalSystem.parse(F, "id", "1", "-1")
        report = check_op2(alg.variety, bad, G, 3)
        assert not report.admissible
        with pytest.raises(PreconditionError):
            sf_image(alg, ideal, bad, report)

    def test_requires_single_homogeneous_generator(self):
        alg = _alg("alllinear", 3)
        g1 = parse_element("(x1 x2)", G, F)
        g2 = parse_element("(x2 x1)", G, F)
        with pytest.raises(PreconditionError):
            sf_image(alg, ideal_build(alg, F, (g1, g2), 4), SWAP10)
        mixed = parse_element("x1 + (x1 x2)", G, F)
        with pytest.raises(PreconditionError):
            sf_image(alg, ideal_build(alg, F, (mixed,), 4), SWAP10)


# Pinned run: free 2-dimensional linear algebras, window 2, tail 3,
# generator t1*x1x2 + x2x1, operation change (swap, 1, 0).
EQUATIONS_2DIM = [
    "(t2 + 1)*a11*a12",
    "t2*a11*a22 + a12*a21 - t1*rho",
    "a11*a22 + t2*a12*a21 - rho",
    "(t2 + 1)*a21*a22",
]
CASES_2DIM = {
    frozenset({"a11", "a12", "a21"}),
    frozenset({"a11", "a12", "a22"}),
    frozenset({"a11", "a21"}),
    frozenset({"a12", "a22"}),
}


class TestTwoDimLinearRun:
    def _constraints(self):
        alg = _alg("alllinear", 2)
        t = parse_element("t1 * (x1 x2) + (x2 x1)", G, F)
        ideal = ideal_build(alg, F, (t,), 3)
        return alg, ideal, gen_constraints(alg, ideal, SWAP10)

    def test_equations(self):
        _, _, cons = self._constraints()
        assert [m.encode() for m in cons.basis] == [
            "(x1 x1)", "(x1 x2)", "(x2 x1)", "(x2 x2)",
        ]
        expected = [ParamPoly.parse(s, cons.ctx) for s in EQUATIONS_2DIM]
        assert list(cons.equations) == expected

    def test_case_split(self):
        _, _, cons = self._constraints()
        tree = solve_cases(cons.equations, cons.ctx)
        leaves = list(tree.leaves())
        assert set(_solved_zero_sets(tree)) == CASES_2DIM
        assert sum(l.status == "contradiction" for l in leaves) == 4
        assert all(l.status != "stuck" for l in leaves)

    def test_kernel_membership_per_leaf(self):
        alg, ideal, cons = self._constraints()
        tree = solve_cases(cons.equations, cons.ctx)
        good = alg.normal_form(parse_element("(x1 x2)", G, F))
        bad = alg.normal_form(parse_element("(x1 x1)", G, F))
        solved = [l for l in tree.leaves() if l.status == "solved"]
        assert all(kernel_contains(alg, ideal, cons, l, good) for l in solved)
        assert not all(kernel_contains(alg, ideal, cons, l, bad) for l in solved)

    def test_certificate(self):
        alg = _alg("alllinear", 2)
        t = parse_element("t1 * (x1 x2) + (x2 x1)", G, F)
        V = [parse_element("(x1 x2)", G, F), parse_element("(x2 x1)", G, F)]
        cert = falsify_equation_ideal(alg, SWAP10, t, 3, V)
        assert cert.verdict == "not_geometrically_equivalent"
        assert cert.details["witness"] == "(x1 x2)"
        assert cert.details["kernel"] == {"(x1 x2)": True, "(x2 x1)": True}
        assert cert.details["case_count"] == 4
        assert cert.details["stuck_count"] == 0

    def test_uncertified_candidate_gives_no_falsification(self):
        alg = _alg("alllinear", 2)
        t = parse_element("t1 * (x1 x2) + (x2 x1)", G, F)
        cert = falsify_equation_ideal(
            alg, SWAP10, t, 3, [parse_element("(x1 x1)", G, F)]
        )
        assert cert.verdict == "no_falsification"
        assert cert.details["witness"] is None

    def test_depth_limit_gives_inconclusive(self):
        alg = _alg("alllinear", 2)
        t = parse_element("t1 * (x1 x2) + (x2 x1)", G, F)
        V = [parse_element("(x1 x2)", G, F)]
        cert = falsify_equation_ideal(alg, SWAP10, t, 3, V, max_depth=0)
        assert cert.verdict == "inconclusive"
        assert cert.details["stuck_count"] >= 1


# Pinned run: free 2-generated commutative algebras, window 3, tail 4,
# generator t1*x1(x1x2) + x2(x1x1), operation change (swap, 1, 0).
EQUATIONS_COMM = [
    "(t2 + 1)*a11^2*a12",
    "t2*a11^2*a22 + (t2 + 2)*a11*a12*a21 - t1*rho",
    "t2*a11*a21*a22 + a12*a21^2",
    "a11^2*a22 + t2*a11*a12*a21 - rho",
    "(t2 + 2)*a11*a21*a22 + t2*a12*a21^2",
    "(t2 + 1)*a21^2*a22",
]
CASES_COMM = {
    frozenset({"a11", "a12", "a21"}),
    frozenset({"a11", "a12", "a22"}),
    frozenset({"a11", "a21"}),
    frozenset({"a12", "a21", "a22"}),
    frozenset({"a12", "a22"}),
}
CANDIDATES_COMM = [
    "(x1 (x1 x2))", "(x1 (x2 x2))", "(x2 (x1 x1))", "(x2 (x1 x2))",
]


class TestCommutativeRun:
    def _constraints(self):
        alg = _alg("commutative", 3)
        t = parse_element("t1 * (x1 (x1 x2)) + (x2 (x1 x1))", G, F)
        ideal = ideal_build(alg, F, (t,), 4)
        return alg, ideal, gen_constraints(alg, ideal, SWAP10)

    def test_equations(self):
        _, _, cons = self._constraints()
        assert [m.encode() for m in cons.basis] == [
            "(x1 (x1 x1))", "(x1 (x1 x2))", "(x1 (x2 x2))",
            "(x2 (x1 x1))", "(x2 (x1 x2))", "(x2 (x2 x2))",
        ]
        expected = [ParamPoly.parse(s, cons.ctx) for s in EQUATIONS_COMM]
        assert list(cons.equations) == expected

    def test_case_split(self):
        _, _, cons = self._constraints()
        tree = solve_cases(cons.equations, cons.ctx)
        assert set(_solved_zero_sets(tree)) == CASES_COMM

    def test_certificate(self):
        alg = _alg("commutative", 3)
        t = parse_element("t1 * (x1 (x1 x2)) + (x2 (x1 x1))", G, F)
        V = [parse_element(s, G, F) for s in CANDIDATES_COMM]
        cert = falsify_equation_ideal(alg, SWAP10, t, 4, V)
        assert cert.verdict == "not_geometrically_equivalent"
        assert cert.details["witness"] == "(x1 (x1 x2))"
        assert all(cert.details["kernel"][s] for s in CANDIDATES_COMM)
        # also valid verbatim for the Jordan variety
        algj = _alg("jordan", 3)
        certj = falsify_equation_ideal(algj, SWAP10, t, 4, V)
        assert certj.verdict == "not_geometrically_equivalent"
        assert certj.details["witness"] == "(x1 (x1 x2))"


# Pinned run: free 2-generated Lie algebras, window 5, tail 6, generator
# t1*(x1 (x1 ((x1 x2) x2))) + ((x1 (x1 x2)) (x1 x2)), change (swap, 1, 0).
# The six constraint coefficients factor through det = a11*a22 - a12*a21.
LIE_BASIS_5 = [
    "((x1 x2) (x1 (x1 x2)))",
    "((x1 x2) (x2 (x1 x2)))",
    "(x1 (x1 (x1 (x1 x2))))",
    "(x1 (x1 (x2 (x1 x2))))",
    "(x1 (x2 (x2 (x1 x2))))",
    "(x2 (x2 (x2 (x1 x2))))",
]
CANDIDATES_LIE = [
    "(x1 (x1 (x1 (x1 x2))))",
    "(x1 (x1 ((x1 x2) x2)))",
    "(x1 (((x1 x2) x2) x2))",
    "((x1 (x1 x2)) (x1 x2))",
    "((x1 x2) ((x1 x2) x2))",
    "((((x1 x2) x2) x2) x2)",
]
DET_HINT = "a11*a22 - a12*a21"


def _lie_expected_equations(ctx):
    P = lambda s: ParamPoly.parse(s, ctx)
    det = P(DET_HINT)
    c9 = P("-t2*a11^2*a12") * det
    c10 = P("t2*a11") * det * P("a11*a22 + 2*a12*a21")
    c11 = P("-t2*a21") * det * P("2*a11*a22 + a12*a21")
    c12 = P("-a11") * det * P("t2*a12*a21 - a11*a22 + a12*a21")
    c13 = P("a21") * det * P("-t2*a12*a21 - t2*a11*a22 + a11*a22 - a12*a21")
    c14 = P("t2*a21^2*a22") * det
    rho = P("rho")
    zero = ParamPoly.zero(ctx)
    return [
        zero - c12 + rho,
        zero - c13,
        c9,
        zero - c10 + P("t1") * rho,
        c11,
        zero - c14,
    ]


class TestLieRun:
    def _constraints(self):
        alg = _alg("lie", 5)
        t = parse_element(
            "t1 * (x1 (x1 ((x1 x2) x2))) + ((x1 (x1 x2)) (x1 x2))", G, F
        )
        ideal = ideal_build(alg, F, (t,), 6)
        return alg, t, ideal, gen_constraints(alg, ideal, SWAP10)

    def test_generator_normal_form(self):
        alg, t, _, cons = self._constraints()
        assert alg.normal_form(t).encode() == (
            "-((x1 x2) (x1 (x1 x2))) - t1 * (x1 (x1 (x2 (x1 x2))))"
        )
        assert cons.sigma_generator.encode() == (
            "-((x1 x2) (x1 (x1 x2))) - t2 * (x1 (x1 (x2 (x1 x2))))"
        )

    def test_equations(self):
        _, _, _, cons = self._constraints()
        assert [m.encode() for m in cons.basis] == LIE_BASIS_5
        assert list(cons.equations) == _lie_expected_equations(cons.ctx)

    def test_case_split_keeps_singular_rule(self):
        _, _, _, cons = self._constraints()
        tree = solve_cases(cons.equations, cons.ctx, hints=(DET_HINT,))
        leaves = list(tree.leaves())
        assert all(l.status != "stuck" for l in leaves)
        solved = [l for l in leaves if l.status == "solved"]
        assert len(solved) == 6
        # the invertible-map case survives with det = 0 kept as a rule
        full = [l for l in solved if len(l.nonvanishing) == 4]
        assert len(full) == 1
        assert [p.encode() for p in full[0].residuals] == [DET_HINT]

    def test_certificate(self):
        alg = _alg("lie", 5)
        t = parse_element(
            "t1 * (x1 (x1 ((x1 x2) x2))) + ((x1 (x1 x2)) (x1 x2))", G, F
        )
        V = [parse_element(s, G, F) for s in CANDIDATES_LIE]
        cert = falsify_equation_ideal(alg, SWAP10, t, 6, V, hints=(DET_HINT,))
        assert cert.verdict == "not_geometrically_equivalent"
        assert cert.details["witness"] == "(x1 (x1 (x1 (x1 x2))))"
        assert all(cert.details["kernel"][s] for s in CANDIDATES_LIE)
        assert cert.details["case_count"] == 6
        assert cert.details["stuck_count"] == 0


class TestSolveCasesUnits:
    CTX = ParamContext(F, ("x", "y"))

    def _p(self, s):
        return ParamPoly.parse(s, self.CTX)

    def test_elimination_chain(self):
        tree = solve_cases([self._p("x + 1"), self._p("x*y")], self.CTX)
        assert tree.status == "solved"
        subs = dict((n, p.encode()) for n, p in tree.substitutions)
        assert subs == {"x": "-1", "y": "0"}

    def test_constant_contradiction(self):
        tree = solve_cases([self._p("1")], self.CTX)
        assert tree.status == "contradiction"

    def test_product_branches(self):
        tree = solve_cases([self._p("x*y")], self.CTX)
        leaves = list(tree.leaves())
        assert [l.status for l in leaves] == ["solved", "solved", "contradiction"]
        assert _solved_zero_sets(tree) == [frozenset({"x"}), frozenset({"y"})]

    def test_irreducible_residual_kept_as_rule(self):
        eq = self._p("x*x + 1")
        tree = solve_cases([eq], self.CTX)
        assert tree.status == "solved"
        assert tree.residuals == (eq,)

    def test_depth_limit_sticks(self):
        tree = solve_cases([self._p("x*y")], self.CTX, max_depth=0)
        assert tree.status == "stuck"

    def test_infeasible_branch_pruned(self):
        # x*y with y nonzero forced by a later equation y - 1 = 0:
        # the all-nonvanishing child contradicts, x = 0 child survives.
        tree = solve_cases([self._p("x*y"), self._p("y - 1")], self.CTX)
        sets = _solved_zero_sets(tree)
        assert frozenset({"x"}) in sets
        assert frozenset({"y"}) not in sets


class TestSmallestClosed:
    def test_left_normed_square_word(self):
        alg = _alg("alllinear", 3)
        system = VerbalSystem.parse(F, "id", "2", "1")
        w = parse_monomial("((x1 x1) x2)", G)
        sw = sigma_apply(alg, system, Element.from_monomial(G, F, w))
        assert sw.encode() == "3 * (x2 (x1 x1)) + 6 * ((x1 x1) x2)"
        cert = falsify_smallest_closed(alg, system, w)
        assert cert.verdict == "not_geometrically_equivalent"
        assert cert.details["span_rank"] == 6
        assert cert.details["witness"] == sw.encode()
        # the same run is valid for the power associative variety
        certp = falsify_smallest_closed(
            _alg("powerassociative", 3), system, w
        )
        assert certp.verdict == "not_geometrically_equivalent"

    def test_alternative_opposite_product(self):
        alg = _alg("alternative", 3)
        system = VerbalSystem.parse(F, "id", "0", "1")
        w = parse_monomial("(x1 (x2 x2))", G)
        cert = falsify_smallest_closed(alg, system, w)
        assert cert.verdict == "not_geometrically_equivalent"
        assert cert.details["sigma_word"] == "(x2 (x2 x1))"
        assert cert.details["span_rank"] == 6

    def test_identity_change_never_falsifies(self):
        trivial = VerbalSystem.parse(F, "id", "1", "0")
        for name, word in [
            ("alllinear", "((x1 x1) x2)"),
            ("alternative", "(x1 (x2 x2))"),
            ("lie", "(x1 (x1 x2))"),
        ]:
            alg = _alg(name, 3)
            cert = falsify_smallest_closed(alg, trivial, parse_monomial(word, G))
            assert cert.verdict == "no_falsification"
            assert cert.details["witness"] is None


class TestClosureSampled:
    def test_identity_sample_recovers_ideal(self):
        rng = random.Random(2026)
        for _ in range(8):
            name = rng.choice(["commutative", "lie", "alllinear"])
            alg = _alg(name, 3)
            ideal = ideal_build(alg, F, (_rand_ideal_element(alg, rng, 2),), 4)
            red = closure_sampled(alg, ideal, [Endomorphism.identity(G, F)])
            assert red.equals(ideal.reducer)

    def test_rejects_non_preserving_endomorphism(self):
        alg = _alg("alllinear", 3)
        ideal = ideal_build(alg, F, (parse_element("(x1 x2)", G, F),), 4)
        swap_gens = Endomorphism(
            G, F, (parse_element("x2", G, F), parse_element("x1", G, F))
        )
        with pytest.raises(PreconditionError):
            closure_sampled(alg, ideal, [swap_gens])

    def test_extra_preserving_endomorphism_keeps_ideal(self):
        alg = _alg("alllinear", 3)
        ideal = ideal_build(alg, F, (parse_element("(x1 x2)", G, F),), 4)
        endos = [
            Endomorphism.identity(G, F),
            Endomorphism(
                G, F,
                (parse_element("2 * x1", G, F), parse_element("x2", G, F)),
            ),
        ]
        red = closure_sampled(alg, ideal, endos)
        assert red.equals(ideal.reducer)


class TestCertificateSerialization:
    def test_json_round_trip(self):
        alg = _alg("alllinear", 2)
        t = parse_element("t1 * (x1 x2) + (x2 x1)", G, F)
        V = [parse_element("(x1 x2)", G, F)]
        cert = falsify_equation_ideal(alg, SWAP10, t, 3, V)
        blob = json.loads(cert.to_json())
        assert blob["verdict"] == "not_geometrically_equivalent"
        assert blob["kind"] == "equation-ideal"
        assert blob["details"]["cases"]["status"] == "split"
        assert isinstance(blob["op2"], dict)

    def test_smallest_closed_round_trip(self):
        alg = _alg("alternative", 3)
        system = VerbalSystem.parse(F, "id", "0", "1")
        cert = falsify_smallest_closed(alg, system, parse_monomial("(x1 (x2 x2))", G))
        blob = json.loads(cert.to_json())
        assert blob["kind"] == "smallest-closed"
        assert blob["details"]["witness"] == "(x2 (x2 x1))"
