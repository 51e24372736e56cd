"""Tests for truncated ideals, case analysis, and falsification verdicts.

Expected equation systems, case splits, and witnesses for the pinned
falsification runs are frozen here; they were derived by hand from the
defining data (generator, operation change, variety) and cross-checked
against an independent expansion of the generic linear map.
"""

import hashlib
import json
import random

import pytest

from case_walk import as_tree, walk
from endomorphism_oracle import (
    Endomorphism,
    closure_sampled,
    span_elements,
    truncated_product,
)
from veralg import cases, closure, scalars
from veralg.closure import (
    Branch,
    Certificate,
    coordinates,
    falsify_equation_ideal,
    falsify_smallest_closed,
    gen_constraints,
    ideal_build,
    kernel_contains,
    solve_cases,
)
from veralg.freealg import (
    Element,
    GeneratorSet,
    parse_element,
    parse_monomial,
)
from veralg.scalars import (
    CyclicSubstitution,
    FieldSpec,
    ParamContext,
    ParamPoly,
    Scalar,
    factor_for_branching,
    parse_parampoly,
    parse_scalar,
    substitute_in_order,
)
from veralg.variety import build_truncated, builtin_variety
from veralg.verbal import PreconditionError, VerbalSystem, check_op2, sigma_apply

F = FieldSpec(("t1", "t2"))
G = GeneratorSet.default(2)
SWAP10 = VerbalSystem.parse(F, "swap", "1", "0")


def _alg(variety, bound):
    return build_truncated(builtin_variety(variety), G, bound)


def _rand_scalar(rng):
    return Scalar.from_fraction(F, rng.choice([-3, -2, -1, 1, 2, 3]))


def _nodes(branch):
    yield branch
    for child in branch.children:
        yield from _nodes(child)


def _rand_ideal_element(alg, rng, maxdeg):
    basis = [m for d in range(1, maxdeg + 1) for m in alg.basis_of_degree(d)]
    picks = rng.sample(basis, k=min(3, len(basis)))
    return Element(G, F, {m: _rand_scalar(rng) for m in picks})


def _solved_zero_sets(tree):
    out = []
    for leaf, chain, _ in walk(tree):
        if leaf.status == "solved":
            out.append(frozenset(n for n, p in chain if p.is_zero))
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
        assert ideal.contains(t * Scalar.from_fraction(F, 7))
        assert not ideal.contains(parse_element("(x1 x2)", G, F))

    def test_closed_under_products(self):
        rng = random.Random(31)
        for name in ["commutative", "lie", "alllinear"]:
            alg = _alg(name, 3)
            ideal = ideal_build(alg, F, (_rand_ideal_element(alg, rng, 2),), 4)
            span = span_elements(ideal)
            for el in span:
                for m in alg.basis_of_degree(1):
                    one = Element.from_monomial(G, F, m)
                    assert ideal.contains(truncated_product(alg, one, el))
                    assert ideal.contains(truncated_product(alg, el, one))

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
                    coords[alg.basis_index()[m]] = parse_parampoly(
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


class TestSigmaImage:
    """sigma(t) comes from gen_constraints, and sigma(T) is spanned from it."""

    def test_moves_parameter_through_phi(self):
        alg = _alg("commutative", 3)
        t = parse_element("t1 * (x1 (x1 x2)) + (x2 (x1 x1))", G, F)
        ideal = ideal_build(alg, F, (t,), 4)
        cons = gen_constraints(alg, ideal, SWAP10)
        moved = "t2 * (x1 (x1 x2)) + (x2 (x1 x1))"
        assert cons.sigma_generator.encode() == moved
        image = ideal_build(alg, F, (cons.sigma_generator,), 4)
        assert [e.encode() for e in span_elements(image)] == [moved]
        cert = falsify_equation_ideal(alg, SWAP10, t, 4, [])
        assert cert.details["sigma_generator"] == moved
        assert cert.details["image_rank"] == image.rank == 1

    def test_gate_rejects_inadmissible_change(self):
        alg = _alg("commutative", 3)
        t = parse_element("(x1 (x1 x2))", G, F)
        bad = VerbalSystem.parse(F, "id", "1", "-1")
        assert not check_op2(alg.variety, bad, G, 3).admissible
        with pytest.raises(PreconditionError) as refused:
            falsify_equation_ideal(alg, bad, t, 4, [])
        assert str(refused.value) == (
            "operation change is not admissible for this variety:"
            ' {"variety": "Commutative", "phi": "id", "a": "1", "b": "-1",'
            ' "bound": 3, "form_ok": false, "identity_ok": true,'
            ' "invertible": false, "admissible": false, "identity_failures": [],'
            ' "singular_multidegrees": [[2, 0], [1, 1], [0, 2], [3, 0], [2, 1],'
            " [1, 2], [0, 3]]}"
        )

    def test_requires_single_homogeneous_generator(self):
        alg = _alg("alllinear", 3)
        g1 = parse_element("(x1 x2)", G, F)
        g2 = parse_element("(x2 x1)", G, F)
        with pytest.raises(PreconditionError, match="single listed generator"):
            gen_constraints(alg, ideal_build(alg, F, (g1, g2), 4), SWAP10)
        mixed = parse_element("x1 + (x1 x2)", G, F)
        with pytest.raises(PreconditionError, match="homogeneous of degree"):
            gen_constraints(alg, ideal_build(alg, F, (mixed,), 4), SWAP10)

    def test_generator_that_is_zero_in_the_truncation(self):
        # above the bound, or killed by the laws: one generator is listed,
        # and its normal form is 0
        for alg, text in (
            (_alg("alllinear", 2), "t1 * (x1 (x1 x2))"),
            (_alg("anticommutative", 3), "(x1 x1)"),
        ):
            ideal = ideal_build(alg, F, (parse_element(text, G, F),), 3)
            assert [g.is_zero for g in ideal.generators] == [True]
            with pytest.raises(PreconditionError, match="is 0 in this truncation"):
                gen_constraints(alg, ideal, SWAP10)


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
        expected = [parse_parampoly(s, cons.ctx) for s in EQUATIONS_2DIM]
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
        # a solved leaf, with its chain and hypotheses from the root, is a
        # tree of one case
        solved = [as_tree(*case) for case in walk(tree) if case[0].status == "solved"]
        assert all(kernel_contains(alg, ideal, cons, l, good) for l in solved)
        assert not all(kernel_contains(alg, ideal, cons, l, bad) for l in solved)
        # one call over the whole tree gives the conjunction of the above
        assert kernel_contains(alg, ideal, cons, tree, good)
        assert not kernel_contains(alg, ideal, cons, tree, bad)
        # a tree without a solved leaf holds no case
        unsolved = [l for l in tree.leaves() if l.status != "solved"]
        assert unsolved
        for l in unsolved:
            assert kernel_contains(alg, ideal, cons, l, bad)

    def test_kernel_applies_each_pair_once_per_candidate(self, monkeypatch):
        alg, ideal, cons = self._constraints()
        # a rule on every solved leaf; the good candidate's residue vanishes
        # under the substitutions alone, so every leaf still passes
        rule = parse_parampoly("a11*a22 - t1*rho", cons.ctx)

        def with_rule(node):
            step, assumed, res = node.step, node.assumed, node.residuals
            if node.children:
                children = tuple(with_rule(c) for c in node.children)
                return Branch(step, assumed, res, node.status, node.note, children)
            if node.status == "solved":
                return Branch(step, assumed, res + (rule,), node.status, node.note)
            return node

        tree = with_rule(solve_cases(cons.equations, cons.ctx))
        solved = [chain for l, chain, _ in walk(tree) if l.status == "solved"]
        good = alg.normal_form(parse_element("(x1 x2)", G, F))
        checked, chained, applied, substituted = [], [], [], []
        real_substitute = ParamPoly.substitute

        def substitute(p, mapping):
            [(name, image)] = mapping.items()
            applied.append((name, id(image)))
            substituted.append(p)
            return real_substitute(p, mapping)

        for module in (closure, scalars):
            for name, calls in (
                ("check_next_substitution", checked),
                ("substitute_in_order", chained),
            ):
                monkeypatch.setattr(
                    module, name, lambda *a, calls=calls: calls.append(a), raising=False
                )
        monkeypatch.setattr(ParamPoly, "substitute", substitute)
        assert kernel_contains(alg, ideal, cons, tree, good)
        monkeypatch.undo()
        # the solver checked the order and reduced the rules: neither is
        # done again
        assert not checked and not chained
        assert all(p is not rule for p in substituted)
        # a pair is one object however many leaves share it
        uses = {}
        for chain in solved:
            for name, image in chain:
                key = (name, id(image))
                uses[key] = uses.get(key, 0) + 1
        assert any(n > 1 for n in uses.values())
        # and is applied once per coordinate at most, not once per leaf
        coords = len(ideal.residue(coordinates(alg, cons.alpha.apply(good))))
        assert applied and set(applied) <= set(uses)
        assert all(applied.count(key) <= coords for key in uses)
        per_leaf = sum(n * coords for n in uses.values())
        assert 0 < len(applied) < per_leaf

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

    def test_sigma_image_test_once_per_certified_candidate(self, monkeypatch):
        # an inner dilation carries T onto itself, so both certified
        # candidates lie in sigma(T); their sum, 3 * (x1 x2), lies there too
        # and is never tested
        alg = _alg("alllinear", 2)
        t = parse_element("(x1 x2)", G, F)
        V = [parse_element("(x1 x2)", G, F), parse_element("2 * (x1 x2)", G, F)]
        tested = []
        contains = closure.TruncatedIdeal.contains

        def recording(ideal, el):
            tested.append(el.encode())
            return contains(ideal, el)

        monkeypatch.setattr(closure.TruncatedIdeal, "contains", recording)
        system = VerbalSystem.parse(F, "id", "2", "0")
        cert = falsify_equation_ideal(alg, system, t, 3, V)
        assert cert.details["kernel"] == {"(x1 x2)": True, "2 * (x1 x2)": True}
        assert cert.verdict == "no_falsification"
        assert tested == ["(x1 x2)", "2 * (x1 x2)"]


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
        expected = [parse_parampoly(s, cons.ctx) for s in EQUATIONS_COMM]
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
    P = lambda s: parse_parampoly(s, ctx)
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
        solved = [(l, hyps) for l, _, hyps in walk(tree) if l.status == "solved"]
        assert len(solved) == 6
        # the invertible-map case survives with det = 0 kept as a rule
        full = [l for l, hyps in solved if len(hyps) == 4]
        assert len(full) == 1
        assert [p.encode() for p in full[0].residuals] == [DET_HINT]

    def test_case_tree_factors_each_equation_once(self, monkeypatch):
        # each distinct equation is factored once per tree, and again in the
        # next tree: the memo belongs to the tree
        _, _, _, cons = self._constraints()
        factored = []

        def factor(eq, hints=()):
            factored.append(eq)
            return factor_for_branching(eq, hints)

        monkeypatch.setattr(closure, "factor_for_branching", factor)
        per_tree = []
        for _ in range(2):
            tree = solve_cases(cons.equations, cons.ctx, hints=(DET_HINT,))
            per_tree.append(list(factored))
            factored.clear()
        first, second = per_tree
        assert first == second
        assert len(set(first)) == len(first)
        # among them the equation of every split, which its last child keeps
        splits = [n for n in _nodes(tree) if n.status == "split"]
        assert len(splits) > 1
        assert {n.children[-1].residuals[0] for n in splits} <= set(first)

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
        return parse_parampoly(s, self.CTX)

    def test_elimination_chain(self):
        tree = solve_cases([self._p("x + 1"), self._p("x*y")], self.CTX)
        assert tree.status == "solved"
        [(_, chain, _)] = walk(tree)
        assert {n: p.encode() for n, p in chain} == {"x": "-1", "y": "0"}

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

    @pytest.mark.parametrize("scale", ("-1", "2", "t1", "-1/t2"))
    def test_hint_with_leading_coefficient_not_one(self, scale):
        # the hint is made monic once, so an equation equal to it up to a
        # scalar has the hint as its lone factor and is kept as a rule
        ctx = ParamContext(F, ("a11", "a12", "a21", "a22"))
        det = parse_parampoly("a11*a22 - a12*a21", ctx)
        hint = det * parse_scalar(scale, F)
        for eq in (hint, -det, det):
            tree = solve_cases([eq], ctx, [hint], max_depth=4)
            assert tree.status == "solved"
            assert (tree.residuals, tree.children) == ((eq,), ())
        tree = solve_cases([-det], ctx, ["-a11*a22 + a12*a21"], max_depth=4)
        assert tree.status == "solved"

    @pytest.mark.parametrize("image,early", (("x + 1", "x"), ("y*y", "y")))
    def test_out_of_order_pair_raises(self, monkeypatch, image, early):
        # each node checks only the pair it adds: an image that mentions an
        # earlier unknown (x) or its own (y) still raises
        picks = iter([("x", self._p("y + 1")), ("y", self._p(image))])

        def eliminate(work, ctx):
            name, img = next(picks)
            return name, img, work[0]

        monkeypatch.setattr(closure, "_try_eliminate", eliminate)
        with pytest.raises(
            CyclicSubstitution, match=f"the image of 'y' mentions '{early}'"
        ):
            solve_cases([self._p("x + y*y"), self._p("x*y*y + y")], self.CTX)
        assert next(picks, None) is None


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

    @pytest.mark.parametrize(
        "variety,bound,word,b",
        (
            ("alllinear", 2, "((x1 x1) x2)", "1"),
            ("anticommutative", 3, "(x1 x1)", "0"),
            ("anticommutative", 3, "(x1 x1)", "1"),
        ),
        ids=("above-the-bound", "killed-by-the-laws", "before-admissibility"),
    )
    def test_word_that_is_zero_in_the_truncation(self, variety, bound, word, b):
        # a = 2, b = 1 is not admissible on Anticommutative; the word is
        # refused first
        system = VerbalSystem.parse(F, "id", "2", b)
        with pytest.raises(PreconditionError, match="the word is 0 in this truncation"):
            falsify_smallest_closed(_alg(variety, bound), system, parse_monomial(word, G))

    @pytest.mark.parametrize(
        "variety,bound,word",
        (("alllinear", 2, "((x1 x1) x2)"), ("anticommutative", 3, "(x1 x1)")),
        ids=("above-the-bound", "killed-by-the-laws"),
    )
    def test_expansion_of_a_word_that_is_zero_in_the_truncation(self, variety, bound, word):
        # expand refuses the word as falsify does, instead of reporting a
        # transformed word of 0
        job = {
            "kind": "smallest-closed", "field": list(F.names), "variety": variety,
            "gens": 2, "bound": bound, "system": {"phi": "id", "a": "2", "b": "0"},
            "word": word,
        }
        for run in (cases.expand_job, cases.falsify_job):
            with pytest.raises(PreconditionError, match="the word is 0 in this truncation"):
                run(job)

    @pytest.mark.parametrize("name", ("s_1_3", "s_4", "aut_1_3_4", "aut_2_5", "aut_6"))
    def test_sigma_is_already_in_normal_form(self, name):
        # falsify_smallest_closed and expand_job take no normal form of sigma
        job = cases.load_job(name)
        alg, field, gens, system = cases.job_context(job)
        if "word" in job:
            el = Element.from_monomial(gens, field, parse_monomial(job["word"], gens))
        else:
            el = parse_element(job["generator"], gens, field)
        sw = sigma_apply(alg, system, el)
        assert sw == alg.normal_form(sw)


class TestClosureSampled:
    def test_identity_sample_recovers_ideal(self):
        rng = random.Random(2026)
        for _ in range(8):
            name = rng.choice(["commutative", "lie", "alllinear"])
            alg = _alg(name, 3)
            ideal = ideal_build(alg, F, (_rand_ideal_element(alg, rng, 2),), 4)
            red = closure_sampled(alg, ideal, [Endomorphism.identity(G, F)])
            assert red.pivots == ideal.reducer.pivots

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
        assert red.pivots == ideal.reducer.pivots


class TestCertificateSerialization:
    def test_json_round_trip(self):
        alg = _alg("alllinear", 2)
        t = parse_element("t1 * (x1 x2) + (x2 x1)", G, F)
        V = [parse_element("(x1 x2)", G, F)]
        cert = falsify_equation_ideal(alg, SWAP10, t, 3, V)
        blob = json.loads(json.dumps(cert.as_dict(), indent=2))
        assert blob["verdict"] == "not_geometrically_equivalent"
        assert blob["kind"] == "equation-ideal"
        assert blob["details"]["cases"]["status"] == "split"
        assert isinstance(blob["op2"], dict)

    def test_smallest_closed_round_trip(self):
        alg = _alg("alternative", 3)
        system = VerbalSystem.parse(F, "id", "0", "1")
        cert = falsify_smallest_closed(alg, system, parse_monomial("(x1 (x2 x2))", G))
        blob = json.loads(json.dumps(cert.as_dict(), indent=2))
        assert blob["kind"] == "smallest-closed"
        assert blob["details"]["witness"] == "(x2 (x2 x1))"


# Corpus job 86 of perfbench's sweep and perfbench's RUNAWAY_JOB, the two
# equation-ideal jobs with the longest case-tree reductions, and corpus job
# 5, written out here with their verdicts and the sha256 of
# json.dumps(cert.as_dict(), sort_keys=True).
SLOW_JOBS = {
    "commutative_3_3": (
        {
            "kind": "equation-ideal",
            "field": ["t1", "t2"],
            "variety": "commutative",
            "gens": 3,
            "bound": 3,
            "system": {"phi": "swap", "a": "1/2", "b": "0"},
            "generator": "(t2^2 - t1) * (x2 (x1 x3)) + (t2^2 - t1) * (x1 (x1 x2))"
            " + (t1*t2) * (x2 (x1 x1))",
            "tail": 4,
            "candidates": [
                "(x2 (x1 x1))", "(x2 (x1 x2))", "(x3 (x1 x3))", "(x3 (x1 x2))",
            ],
            "hints": [],
        },
        "inconclusive",
        "2d205cb051d32eb0c1c311d1c20b38bb36d95fb1850070ffed1dac13520e3718",
    ),
    "commutative_2_3": (
        {
            "kind": "equation-ideal",
            "field": ["t1", "t2"],
            "variety": "commutative",
            "gens": 2,
            "bound": 3,
            "system": {"phi": "swap", "a": "2", "b": "0"},
            "generator": "(t1*t2) * (x2 (x1 x1)) + (t2^2 - t1) * (x1 (x1 x2))"
            " + ((t1 + t2)/(t1 - 1)) * (x1 (x1 x1))",
            "tail": 4,
            "candidates": [
                "(x2 (x1 x1))", "(x1 (x1 x1))", "(x1 (x2 x2))", "(x1 (x1 x2))",
            ],
            "hints": ["a11*a22 - a12*a21"],
        },
        "no_falsification",
        "79213a52a6ba21dbf6306ba567c87d21e44a98baac13a751c134449eaa5cf558",
    ),
    # job 5 ran away until the gcd scaled each primitive part to leading
    # coefficient 1
    "jordan_2_3": (
        {
            "kind": "equation-ideal",
            "field": ["t1", "t2"],
            "variety": "jordan",
            "gens": 2,
            "bound": 3,
            "system": {"phi": "swap", "a": "1", "b": "0"},
            "generator": "(3/(t2 + 1)) * (x2 (x1 x2)) + ((t1 + t2)/(t1 - 1))"
            " * (x2 (x1 x1)) + (t2^2 - t1) * (x2 (x2 x2))",
            "tail": 4,
            "candidates": [
                "(x1 (x2 x2))", "(x2 (x2 x2))", "(x1 (x1 x2))", "(x2 (x1 x1))",
            ],
            "hints": ["a11*a22 - a12*a21"],
        },
        "no_falsification",
        "a63f4bdf02005d50b606370c873505f7a9c1edebecfa718226784385e9222ca2",
    ),
}


@pytest.mark.parametrize("name", sorted(SLOW_JOBS))
def test_formerly_slow_certificate_pinned(name):
    job, verdict, digest = SLOW_JOBS[name]
    cert = cases.falsify_job(job)
    assert cert.verdict == verdict
    text = json.dumps(cert.as_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "name,lone,made_monic", (("aut_6", 1, 1), ("jordan_2_3", 6, 0)),
)
def test_lone_residual_made_monic_only_against_same_support(
    monkeypatch, name, lone, made_monic
):
    # a lone factor is kept as a rule: solve_cases makes it monic only to
    # compare it with an assumed-nonzero polynomial of the same term
    # support, which aut_6 has for its one lone residual and corpus job 5
    # (jordan_2_3) has for none of its six
    job = SLOW_JOBS[name][0] if name in SLOW_JOBS else cases.load_job(name)
    alg, field, gens, system = cases.job_context(job)
    t = parse_element(job["generator"], gens, field)
    cons = gen_constraints(alg, ideal_build(alg, field, (t,), int(job["tail"])), system)
    made = []
    monic = ParamPoly.monic

    def recording(self):
        made.append(self)
        return monic(self)

    monkeypatch.setattr(ParamPoly, "monic", recording)
    tree = solve_cases(cons.equations, cons.ctx, job.get("hints", ()))
    monkeypatch.undo()
    hints = [parse_parampoly(h, cons.ctx).monic() for h in job.get("hints", ())]
    lone_residuals, same_support = set(), set()
    for node, chain, hypotheses in walk(tree):
        subs = dict(chain)
        assumed = [substitute_in_order(p, subs) for p in hypotheses]
        for eq in node.residuals:
            factors = factor_for_branching(eq, hints)
            if len(factors) == 1 and closure._is_variable(factors[0]) is None:
                lone_residuals.add(eq)
                if any(a.terms.keys() == eq.terms.keys() for a in assumed):
                    same_support.add(eq)
    made_lone = {f for f in made if f in lone_residuals}
    assert made_lone <= same_support
    assert (len(lone_residuals), len(made_lone)) == (lone, made_monic)


def test_case_tree_nodes_hold_only_their_step():
    # a node holds the pairs and hypotheses it adds, and none of an
    # ancestor's: the 28 nodes of the aut_6 tree hold 11 pairs and 29
    # hypotheses, where those walked from the root number 50 and 82
    assert Branch.__slots__ == (
        "step", "assumed", "residuals", "status", "note", "children",
    )
    job = cases.load_job("aut_6")
    alg, field, gens, system = cases.job_context(job)
    t = parse_element(job["generator"], gens, field)
    cons = gen_constraints(alg, ideal_build(alg, field, (t,), int(job["tail"])), system)
    tree = solve_cases(cons.equations, cons.ctx, job["hints"])
    walked = list(walk(tree))
    for node, chain, hypotheses in walked:
        pairs_above = chain[: len(chain) - len(node.step)]
        assumed_above = hypotheses[: len(hypotheses) - len(node.assumed)]
        assert not set(node.step) & set(pairs_above)
        assert not set(node.assumed) & set(assumed_above)
    assert len(walked) == 28
    assert sum(len(node.step) for node, _, _ in walked) == 11
    assert sum(len(chain) for _, chain, _ in walked) == 50
    assert sum(len(node.assumed) for node, _, _ in walked) == 29
    assert sum(len(hypotheses) for _, _, hypotheses in walked) == 82
