"""Acceptance suite: ten pinned behaviors, one test per criterion.

Run with -v to get one pass/fail line per criterion.  Expected values are
frozen in this file; the image polynomials and equation systems were
derived by hand from the generator, the operation change, and the variety
laws, and cross-checked against an independent expansion.
"""

import json
import random
import time

from endomorphism_oracle import Endomorphism, closure_sampled, evaluate
from veralg import cases, cli
from veralg.closure import (
    gen_constraints,
    ideal_build,
)
from veralg.freealg import (
    Element,
    GeneratorSet,
    enumerate_monomials,
    parse_element,
)
from veralg.scalars import FieldSpec, ParamPoly, Scalar, parse_parampoly
from veralg.variety import build_truncated, builtin_variety, builtin_variety_names
from veralg.verbal import VerbalSystem, inner_witness, scaling_check, sigma_apply

F = FieldSpec(("t1", "t2"))
G1 = GeneratorSet.default(1)
G2 = GeneratorSet.default(2)
SWAP10 = VerbalSystem.parse(F, "swap", "1", "0")


def _alg(variety, gens, bound):
    return build_truncated(builtin_variety(variety), gens, bound)


# The fourteen bracketings spanning the two-generator Lie truncation at
# degree five, in their published order.
E_BASIS = [
    "x1",
    "x2",
    "(x1 x2)",
    "(x1 (x1 x2))",
    "((x1 x2) x2)",
    "(x1 (x1 (x1 x2)))",
    "(x1 ((x1 x2) x2))",
    "(((x1 x2) x2) x2)",
    "(x1 (x1 (x1 (x1 x2))))",
    "(x1 (x1 ((x1 x2) x2)))",
    "(x1 (((x1 x2) x2) x2))",
    "((x1 (x1 x2)) (x1 x2))",
    "((x1 x2) ((x1 x2) x2))",
    "((((x1 x2) x2) x2) x2)",
]

# The pinned degree-five run: generator lambda*e10 + e12 with lambda = t1,
# transported through the coefficient swap.
LIE_T = "t1 * (x1 (x1 ((x1 x2) x2))) + ((x1 (x1 x2)) (x1 x2))"
LIE_SIGMA_T = "t2 * (x1 (x1 ((x1 x2) x2))) + ((x1 (x1 x2)) (x1 x2))"

EQUATIONS_2DIM = [
    "(t2 + 1)*a11*a12",
    "t2*a11*a22 + a12*a21 - t1*rho",
    "a11*a22 + t2*a12*a21 - rho",
    "(t2 + 1)*a21*a22",
]
EQUATIONS_COMM = [
    "(t2 + 1)*a11^2*a12",
    "t2*a11^2*a22 + (t2 + 2)*a11*a12*a21 - t1*rho",
    "t2*a11*a21*a22 + a12*a21^2",
    "a11^2*a22 + t2*a11*a12*a21 - rho",
    "(t2 + 2)*a11*a21*a22 + t2*a12*a21^2",
    "(t2 + 1)*a21^2*a22",
]

FALSIFY_EXAMPLES = ("aut_1_3_4", "aut_2_5", "aut_6", "s_1_3", "s_4")

ORACLE_RUNS = [
    # (variety, bound, generator, tail)
    ("alllinear", 2, "t1 * (x1 x2) + (x2 x1)", 3),
    ("commutative", 3, "t1 * (x1 (x1 x2)) + (x2 (x1 x1))", 4),
    ("lie", 5, LIE_T, 6),
]

INNER_PROBES = [
    # (variety, phi, a, b, status, witness)
    ("alllinear", "id", "1", "0", "inner", "1"),
    ("alllinear", "id", "2", "0", "inner", "1/2"),
    ("alllinear", "id", "t1", "0", "inner", "1/t1"),
    ("alllinear", "swap", "1", "0", "refuted", None),
    ("alllinear", "id", "2", "1", "refuted", None),
    ("alternative", "id", "0", "1", "refuted", None),
]


def test_criterion_01_lie_basis(capsys):
    start = time.monotonic()
    assert cli.main(
        ["basis", "--variety", "lie", "--gens", "2", "--max-deg", "5", "--json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dims"] == [2, 1, 2, 3, 6]
    assert sum(payload["dims"]) == 14

    alg = _alg("lie", G2, 5)
    seen = set()
    for text in E_BASIS:
        nf = alg.normal_form(parse_element(text, G2, F))
        assert len(nf.terms) == 1, text
        [(m, c)] = nf.terms.items()
        assert c.encode() in ("1", "-1"), text
        seen.add(m)
    assert len(seen) == 14
    assert time.monotonic() - start < 10.0


def test_criterion_02_symbolic_image():
    start = time.monotonic()
    alg = _alg("lie", G2, 5)
    alpha = Endomorphism.generic_linear(G2, F)
    ctx = alpha.domain
    st = parse_element(LIE_SIGMA_T, G2, F)
    applied = alg.normal_form(alpha.apply(st, alg.bound))

    P = lambda s: parse_parampoly(s, ctx)
    det = P("a11*a22 - a12*a21")
    expected = [
        P("-t2*a11^2*a12") * det,
        P("t2*a11") * det * P("a11*a22 + 2*a12*a21"),
        P("-t2*a21") * det * P("2*a11*a22 + a12*a21"),
        P("-a11") * det * P("t2*a12*a21 - a11*a22 + a12*a21"),
        P("a21") * det * (P("-t2") * P("a12*a21 + a11*a22")
                          + P("a11*a22 - a12*a21")),
        P("t2*a21^2*a22") * det,
    ]
    for text, want in zip(E_BASIS[8:], expected):
        nf = alg.normal_form(parse_element(text, G2, F))
        [(m, c)] = nf.terms.items()
        got = applied.coefficient(m) * c.inverse()
        assert got.encode() == want.encode(), text
    assert time.monotonic() - start < 30.0


def test_criterion_03_constraint_displays():
    alg = _alg("alllinear", G2, 2)
    t = parse_element("t1 * (x1 x2) + (x2 x1)", G2, F)
    cons = gen_constraints(alg, ideal_build(alg, F, (t,), 3), SWAP10)
    assert [eq.encode() for eq in cons.equations] == EQUATIONS_2DIM

    alg = _alg("commutative", G2, 3)
    t = parse_element("t1 * (x1 (x1 x2)) + (x2 (x1 x1))", G2, F)
    cons = gen_constraints(alg, ideal_build(alg, F, (t,), 4), SWAP10)
    assert [eq.encode() for eq in cons.equations] == EQUATIONS_COMM


def test_criterion_04_falsifier_verdicts():
    start = time.monotonic()
    for name in FALSIFY_EXAMPLES:
        cert = cases.falsify_job(cases.load_job(name))
        assert cert.verdict == "not_geometrically_equivalent", name
        if cert.kind == "equation-ideal":
            assert cert.details["stuck_count"] == 0, name
    assert time.monotonic() - start < 120.0


def test_criterion_05_op2_grid():
    from veralg.verbal import check_op2

    grid = [(1, 0), (2, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (-1, 1)]

    def expected(variety, a, b):
        if variety in ("alllinear", "powerassociative"):
            return a != b and a != -b
        if variety == "alternative":
            return (a != 0) != (b != 0)
        # commutative, jordan, lie, anticommutative
        return b == 0 and a != 0

    for name in builtin_variety_names():
        key = name.lower()
        for a, b in grid:
            system = VerbalSystem.parse(F, "id", str(a), str(b))
            report = check_op2(builtin_variety(key), system, G2, None)
            assert report.admissible == expected(key, a, b), (name, a, b)


def test_criterion_06_scaling_lemma():
    AB = FieldSpec(("a", "b"))

    alg = _alg("powerassociative", G1, 5)
    system = VerbalSystem.parse(AB, "id", "a", "b")
    count = 0
    for d in range(1, 6):
        for m in enumerate_monomials(G1, d):
            factor = scaling_check(alg, system, m)
            assert factor == system.a + system.b
            count += 1
    assert count == 23  # binary bracketings of 1..5 leaves on one letter

    alg = _alg("lie", G2, 5)
    system = VerbalSystem.parse(AB, "id", "a", "0")
    count = 0
    for d in range(1, 6):
        for m in enumerate_monomials(G2, d):
            factor = scaling_check(alg, system, m)
            assert factor == system.a
            count += 1
    assert count == 550


def test_criterion_07_closure_identity_property():
    rng = random.Random(40826)
    names = list(builtin_variety_names())
    algs = {}
    for i in range(25):
        name = names[i % len(names)]
        if name not in algs:
            algs[name] = _alg(name, G2, 3)
        alg = algs[name]
        basis = [m for d in (1, 2) for m in alg.basis_of_degree(d)]
        gens = []
        for _ in range(rng.choice([1, 2])):
            picks = rng.sample(basis, k=min(3, len(basis)))
            coeffs = {
                m: Scalar.from_fraction(F, rng.choice([-3, -2, -1, 1, 2, 3]))
                for m in picks
            }
            gens.append(Element(G2, F, coeffs))
        ideal = ideal_build(alg, F, gens, rng.choice([3, 4]))
        red = closure_sampled(alg, ideal, [Endomorphism.identity(G2, F)])
        assert red.pivots == ideal.reducer.pivots, (name, i)


def _witt(n, d):
    def moebius(k):
        out, p, m = 1, 2, k
        while p * p <= m:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                out = -out
            p += 1
        return -out if m > 1 else out

    return sum(moebius(e) * n ** (d // e) for e in range(1, d + 1) if d % e == 0) // d


def _exists_rho(cons, values):
    """Is there a rho making every equation vanish at the given entries."""
    subs = {n: ParamPoly.constant(cons.ctx, v) for n, v in values.items()}
    idx = cons.ctx.index("rho")
    forced = None
    for eq in cons.equations:
        red = eq.substitute(subs)
        c0 = Scalar.zero(F)
        c1 = Scalar.zero(F)
        for e, c in red.terms.items():
            if sum(e) == 0:
                c0 = c
            else:
                assert e[idx] == 1 and sum(e) == 1
                c1 = c
        if c1.is_zero:
            if not c0.is_zero:
                return False
        else:
            rho = -c0 * c1.inverse()
            if forced is None:
                forced = rho
            elif forced != rho:
                return False
    return True


def test_criterion_08_oracles():
    # (i) evaluating the symbolic image commutes with applying a concrete map
    rng = random.Random(11551)
    pool = [-3, -2, -1, 0, 1, 2]
    for variety, bound, text, tail in ORACLE_RUNS:
        alg = _alg(variety, G2, bound)
        t = parse_element(text, G2, F)
        st = sigma_apply(alg, SWAP10, t)
        alpha = Endomorphism.generic_linear(G2, F)
        applied = alg.normal_form(alpha.apply(st, alg.bound))
        for _ in range(100):
            values = {
                n: Scalar.from_fraction(F, rng.choice(pool))
                for n in alpha.domain.names
            }
            concrete = alpha.specialize(values)
            direct = alg.normal_form(concrete.apply(st, alg.bound))
            assert evaluate(applied, values) == direct

    # (ii) the two-generator Lie dimensions follow the necklace-count formula
    alg = _alg("lie", G2, 6)
    dims = alg.dims()
    for d in range(1, 7):
        assert dims.get(d, 0) == _witt(2, d), d
    assert _witt(2, 6) == 9

    # (iii) the equations are satisfiable exactly on maps sending the
    # transported generator into the ideal
    for variety, bound, text, tail in ORACLE_RUNS:
        alg = _alg(variety, G2, bound)
        t = parse_element(text, G2, F)
        ideal = ideal_build(alg, F, (t,), tail)
        cons = gen_constraints(alg, ideal, SWAP10)
        alpha = Endomorphism.generic_linear(G2, F, extra=("rho",))
        matched = {True: 0, False: 0}
        for _ in range(100):
            values = {
                n: Scalar.from_fraction(F, rng.choice([-1, 0, 0, 1, 2]))
                for n in cons.ctx.names
                if n != "rho"
            }
            concrete = alpha.specialize(values)
            image = alg.normal_form(concrete.apply(cons.sigma_generator, alg.bound))
            member = ideal.contains(image)
            sat = _exists_rho(cons, values)
            assert sat == member, (variety, sorted(values))
            matched[member] += 1
        assert matched[True] and matched[False], variety


def test_criterion_09_inner_witness():
    for variety, phi, a, b, status, witness in INNER_PROBES:
        alg = _alg(variety, G2, 3)
        report = inner_witness(alg, VerbalSystem.parse(F, phi, a, b))
        assert report.status == status, (variety, phi, a, b)
        got = None if report.witness is None else report.witness.encode()
        assert got == witness, (variety, phi, a, b)


def test_criterion_10_degree_one_dimension():
    for name in builtin_variety_names():
        for size, bound in ((1, 5), (2, 5), (3, 4)):
            alg = _alg(name.lower(), GeneratorSet.default(size), bound)
            assert alg.dims()[1] == size, (name, size, bound)
