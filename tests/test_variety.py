"""Tests for varieties, polarisation, and truncated relatively-free algebras.

Dimension expectations come from independent oracles computed here: a
brute-force count of binary trees modulo flips, the Witt formula for free
Lie algebras, Catalan counts for the absolutely free case, and closed
forms for two-generated alternative and Jordan algebras (Artin's theorem
makes the former associative; the latter matches the reversible-element
count in the free associative algebra).
"""

import hashlib
import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from endomorphism_oracle import truncated_product
from veralg import freealg
from veralg.freealg import (
    Element,
    GeneratorSet,
    enumerate_monomials,
    parse_element,
    parse_monomial,
)
from veralg.scalars import FieldSpec, Scalar, _exact
from veralg.variety import (
    RATIONALS,
    IdentityScheme,
    RowReducer,
    VarietyPresentation,
    build_truncated,
    builtin_variety,
    builtin_variety_names,
    polarize,
)
from veralg.verbal import _sigma_parts


def is_multilinear(scheme: IdentityScheme) -> bool:
    """Is every term of the scheme of degree one in each slot?"""
    target = (1,) * scheme.arity
    return all(m.multidegree == target for m in scheme.element.terms)


def check_identity(alg, scheme: IdentityScheme) -> bool:
    """Does the scheme vanish on the algebra (up to the truncation)?"""
    return all(alg.failing_tuple(s.element) is None for s in polarize(scheme))


def rewrite_rows(alg) -> dict:
    """The rewrite row of every monomial of a built multidegree outside the basis.

    {monomial: ((basis monomial, coefficient), ...)} with the basis monomials
    in canonical order and rational coefficients, read through normal_form:
    the build itself keeps only the rows of its pair monomials.
    """
    basis = set(alg.all_basis())
    rows = {}
    for d in range(1, alg.bound + 1):
        for m in enumerate_monomials(alg.gens, d):
            if m in basis or m.multidegree not in alg.components:
                continue
            nf = alg.normal_form(Element.from_monomial(alg.gens, RATIONALS, m))
            rows[m] = tuple(
                (b, _exact(nf.terms[b].as_fraction())) for b in nf.support()
            )
    return rows


G1 = GeneratorSet.default(1)
G2 = GeneratorSet.default(2)


def _catalan(n):
    return comb(2 * n, n) // (n + 1)


def _mobius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    if n > 1:
        out = -out
    return out


def _witt(alphabet, degree):
    total = sum(
        _mobius(e) * alphabet ** (degree // e)
        for e in range(1, degree + 1)
        if degree % e == 0
    )
    assert total % degree == 0
    return total // degree


def _dims_by_multidegree(alg):
    return {
        md: len(alg.components[md][1])
        for d in range(1, alg.bound + 1)
        for md in alg.multidegrees(d)
    }


def _flip_canonical(tree):
    """Canonical form of a nested-pair tree under child swaps."""
    if not isinstance(tree, tuple):
        return tree
    left = _flip_canonical(tree[0])
    right = _flip_canonical(tree[1])
    return (left, right) if repr(left) <= repr(right) else (right, left)


def _trees(leaves):
    if leaves == 1:
        yield 0
        return
    for k in range(1, leaves):
        for left in _trees(k):
            for right in _trees(leaves - k):
                yield (left, right)


def _brute_commutative_count(degree):
    return len({_flip_canonical(t) for t in _trees(degree)})


class TestIdentityScheme:
    def test_arity_inferred(self):
        s = IdentityScheme.from_string("((y1 y2) y3) + ((y2 y3) y1) + ((y3 y1) y2)")
        assert s.arity == 3
        assert is_multilinear(s)

    def test_not_multilinear(self):
        s = IdentityScheme.from_string("(y1 (y1 y1)) - ((y1 y1) y1)")
        assert s.arity == 1
        assert not is_multilinear(s)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            IdentityScheme.from_string("(y1 y2) - (y1 y2)")

    def test_no_slots_rejected(self):
        with pytest.raises(ValueError):
            IdentityScheme.from_string("x1")

    def test_substitute_grafts(self):
        s = IdentityScheme.from_string("(y1 y2) - (y2 y1)")
        u = parse_monomial("(x1 x2)", G2)
        v = parse_monomial("x1", G2)
        inst = s.substitute((u, v), G2)
        assert inst == {
            parse_monomial("((x1 x2) x1)", G2): Fraction(1),
            parse_monomial("(x1 (x1 x2))", G2): Fraction(-1),
        }

    def test_key_equality(self):
        a = IdentityScheme.from_string("(y1 y2) - (y2 y1)")
        b = IdentityScheme.from_string("(y1 y2) - (y2 y1)")
        assert a == b and hash(a) == hash(b)


class TestPolarize:
    def test_multilinear_fixed(self):
        s = IdentityScheme.from_string("(y1 y2) - (y2 y1)")
        assert polarize(s) == (s,)

    def test_third_power_term_count(self):
        s = IdentityScheme.from_string("(y1 (y1 y1)) - ((y1 y1) y1)")
        (p,) = polarize(s)
        assert p.arity == 3
        assert is_multilinear(p)
        assert len(p.element.terms) == 12

    def test_fourth_power_term_count(self):
        s = IdentityScheme.from_string("((y1 y1) (y1 y1)) - ((y1 (y1 y1)) y1)")
        (p,) = polarize(s)
        assert p.arity == 4
        assert len(p.element.terms) == 48

    def test_jordan_identity(self):
        s = IdentityScheme.from_string("(((y1 y1) y2) y1) - ((y1 y1) (y2 y1))")
        (p,) = polarize(s)
        assert p.arity == 4
        assert is_multilinear(p)
        assert len(p.element.terms) == 12

    def test_polarized_specializes_back(self):
        # substituting the original variable into every slot recovers the
        # identity times the factorial of the spread degree
        s = IdentityScheme.from_string("(y1 (y1 y1)) - ((y1 y1) y1)")
        (p,) = polarize(s)
        x = G1.generator(0)
        inst = p.substitute((x, x, x), G1)
        expected = {
            parse_monomial("(x1 (x1 x1))", G1): Fraction(6),
            parse_monomial("((x1 x1) x1)", G1): Fraction(-6),
        }
        assert inst == expected

    def test_builtins_all_multilinear(self):
        for name in builtin_variety_names():
            for s in builtin_variety(name).multilinear():
                assert is_multilinear(s)


class TestRowReducer:
    def test_random_rank(self):
        rng = random.Random(4117)
        for _ in range(25):
            cols = rng.randrange(2, 7)
            rows = [
                {c: Fraction(rng.randrange(-3, 4)) for c in range(cols)}
                for _ in range(rng.randrange(1, 8))
            ]
            rows = [{c: v for c, v in r.items() if v} for r in rows]
            red = RowReducer()
            for r in rows:
                red.insert(dict(r))
            # every inserted row reduces to nothing afterwards
            for r in rows:
                assert red.contains(dict(r))
            # random combinations stay inside the span
            combo = {}
            for r in rows:
                w = Fraction(rng.randrange(-2, 3))
                for c, v in r.items():
                    combo[c] = combo.get(c, Fraction(0)) + w * v
            assert red.contains({c: v for c, v in combo.items() if v})

    def test_back_elimination(self):
        red = RowReducer()
        red.insert({0: Fraction(1), 1: Fraction(2)})
        red.insert({0: Fraction(1), 2: Fraction(1)})
        # each pivot column appears in exactly one kept row
        for col, row in red.pivots.items():
            assert row[col] == 1
            for other_col, other_row in red.pivots.items():
                if other_col != col:
                    assert col not in other_row

    def test_int_rows_stay_exact(self):
        # an int pivot is inverted as a Fraction, never by float division
        red = RowReducer()
        red.insert({0: 2, 1: 1})
        red.insert({0: 1, 2: 2})
        assert red.pivots == {1: {0: 2, 1: 1}, 2: {0: Fraction(1, 2), 2: 1}}
        for row in red.pivots.values():
            for v in row.values():
                assert type(v) in (int, Fraction)

    def test_insert_reports_novelty(self):
        red = RowReducer()
        assert red.insert({0: Fraction(2)})
        assert not red.insert({0: Fraction(5)})
        assert red.rank == 1


class TestDimensions:
    def test_all_linear_matches_catalan(self):
        for n, gens in ((1, G1), (2, G2)):
            alg = build_truncated(builtin_variety("all-linear"), gens, 4)
            for d in range(1, 5):
                assert len(alg.basis_of_degree(d)) == _catalan(d - 1) * n**d

    def test_commutative_one_generator_brute_force(self):
        alg = build_truncated(builtin_variety("commutative"), G1, 6)
        for d in range(1, 7):
            assert len(alg.basis_of_degree(d)) == _brute_commutative_count(d)

    def test_commutative_small(self):
        alg = build_truncated(builtin_variety("commutative"), G1, 6)
        assert alg.dims() == {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6}

    def test_lie_witt_formula(self):
        alg = build_truncated(builtin_variety("lie"), G2, 7)
        assert alg.dims() == {d: _witt(2, d) for d in range(1, 8)}
        assert alg.dims() == {1: 2, 2: 1, 3: 2, 4: 3, 5: 6, 6: 9, 7: 18}

    def test_lie_witt_formula_to_degree_twelve(self):
        # the pair-space build reaches degrees that the full free magma
        # could not: degree 12 alone has 2^12 * 58,786 monomials
        alg = build_truncated(builtin_variety("lie"), G2, 12)
        assert alg.dims() == {d: _witt(2, d) for d in range(1, 13)}

    def test_lie_multidegree_split(self):
        alg = build_truncated(builtin_variety("lie"), G2, 5)
        by_md = _dims_by_multidegree(alg)
        assert {md: n for md, n in by_md.items() if sum(md) == 5} == {
            (5, 0): 0,
            (4, 1): 1,
            (3, 2): 2,
            (2, 3): 2,
            (1, 4): 1,
            (0, 5): 0,
        }

    def test_alternative_two_generators_associative(self):
        # Artin: two-generated alternative algebras are associative
        alg = build_truncated(builtin_variety("alternative"), G2, 4)
        assert alg.dims() == {1: 2, 2: 4, 3: 8, 4: 16}

    def test_alternative_two_generators_bound_six(self):
        alg = build_truncated(builtin_variety("alternative"), G2, 6)
        assert alg.dims() == {d: 2**d for d in range(1, 7)}

    def test_jordan_two_generators(self):
        alg = build_truncated(builtin_variety("jordan"), G2, 4)
        expected = {d: (2**d + 2 ** ((d + 1) // 2)) // 2 for d in range(1, 5)}
        assert alg.dims() == expected
        assert alg.dims() == {1: 2, 2: 3, 3: 6, 4: 10}

    def test_power_associative_single_generator(self):
        # the sharpest polarisation test: a single generator must give a
        # one-dimensional component in every degree
        alg = build_truncated(builtin_variety("power-associative"), G1, 6)
        assert alg.dims() == {d: 1 for d in range(1, 7)}

    def test_anticommutative_single_generator(self):
        alg = build_truncated(builtin_variety("anticommutative"), G1, 3)
        assert alg.dims() == {1: 1, 2: 0, 3: 0}

    def test_commutative_degree_three_basis(self):
        alg = build_truncated(builtin_variety("commutative"), G2, 3)
        assert [m.encode() for m in alg.basis_of_degree(3)] == [
            "(x1 (x1 x1))",
            "(x1 (x1 x2))",
            "(x1 (x2 x2))",
            "(x2 (x1 x1))",
            "(x2 (x1 x2))",
            "(x2 (x2 x2))",
        ]


class TestNormalForm:
    def test_commutative_flip(self):
        alg = build_truncated(builtin_variety("commutative"), G2, 3)
        el = parse_element("((x1 x2) x1)", G2, RATIONALS)
        assert alg.normal_form(el).encode() == "(x1 (x1 x2))"

    def test_lie_flip_sign(self):
        alg = build_truncated(builtin_variety("lie"), G2, 3)
        el = parse_element("((x1 x2) x1)", G2, RATIONALS)
        assert alg.normal_form(el).encode() == "-(x1 (x1 x2))"

    def test_idempotent_and_linear(self):
        rng = random.Random(90221)
        alg = build_truncated(builtin_variety("jordan"), G2, 4)
        monos = [m for d in range(1, 5) for m in enumerate_monomials(G2, d)]
        for _ in range(20):
            u = _random_element(rng, monos)
            v = _random_element(rng, monos)
            nu, nv = alg.normal_form(u), alg.normal_form(v)
            assert alg.normal_form(nu) == nu
            assert alg.normal_form(u + v) == nu + nv

    def test_truncation_kills_high_degree(self):
        alg = build_truncated(builtin_variety("commutative"), G2, 3)
        u = parse_element("(x1 x2)", G2, RATIONALS)
        v = parse_element("(x2 (x1 x1))", G2, RATIONALS)
        assert truncated_product(alg, u, v).is_zero

    def test_alternative_random_associators(self):
        rng = random.Random(355113)
        alg = build_truncated(builtin_variety("alternative"), G2, 4)
        basis = alg.all_basis()
        for _ in range(40):
            u, v, w = (rng.choice(basis) for _ in range(3))
            if u.degree + v.degree + w.degree > 4:
                continue
            ue = Element.from_monomial(G2, RATIONALS, u)
            ve = Element.from_monomial(G2, RATIONALS, v)
            we = Element.from_monomial(G2, RATIONALS, w)
            left = truncated_product(alg, truncated_product(alg, ue, ve), we)
            right = truncated_product(alg, ue, truncated_product(alg, ve, we))
            assert left == right

    def test_check_identity(self):
        lie = build_truncated(builtin_variety("lie"), G2, 4)
        jacobi = IdentityScheme.from_string(
            "((y1 y2) y3) + ((y2 y3) y1) + ((y3 y1) y2)"
        )
        commutative = IdentityScheme.from_string("(y1 y2) - (y2 y1)")
        assert check_identity(lie, jacobi)
        assert not check_identity(lie, commutative)
        jordan = build_truncated(builtin_variety("jordan"), G2, 4)
        assert check_identity(jordan, commutative)
        assert check_identity(
            jordan,
            IdentityScheme.from_string("(((y1 y1) y2) y1) - ((y1 y1) (y2 y1))"),
        )

    def test_failing_tuple(self):
        lie = build_truncated(builtin_variety("lie"), G2, 4)
        (law,) = polarize(IdentityScheme.from_string("(y1 y2) - (y2 y1)"))
        # (x1 x1) vanishes in Lie, so the first failing tuple is (x1, x2)
        assert lie.failing_tuple(law.element) == (
            parse_monomial("x1", G2),
            parse_monomial("x2", G2),
        )
        (jacobi,) = polarize(builtin_variety("lie").schemes[1])
        assert lie.failing_tuple(jacobi.element) is None

    def test_failing_tuple_other_field(self):
        # a law with coefficients in Q(t1, t2) fails unless t1 = t2
        field = FieldSpec(("t1", "t2"))
        jordan = build_truncated(builtin_variety("jordan"), G2, 4)
        ys = GeneratorSet(("y1", "y2"))
        law = parse_element("t1 * (y1 y2) - t2 * (y2 y1)", ys, field)
        assert jordan.failing_tuple(law) == (
            parse_monomial("x1", G2),
            parse_monomial("x1", G2),
        )
        same = parse_element("t1 * (y1 y2) - t1 * (y2 y1)", ys, field)
        assert jordan.failing_tuple(same) is None

    def test_normal_form_other_field(self):
        # rewrite rules are rational, so they apply over any scalar field
        field = FieldSpec(("t1", "t2"))
        alg = build_truncated(builtin_variety("lie"), G2, 3)
        el = parse_element("t1 * ((x1 x2) x1)", G2, field)
        assert alg.normal_form(el).encode() == "-t1 * (x1 (x1 x2))"


# the degree <= 5 part of a free two-generated Lie algebra, written as
# left-normed brackets; each should renormalise to a signed basis monomial
LIE_WORDS = [
    ("x1", "x1", 1),
    ("x2", "x2", 1),
    ("(x1 x2)", "(x1 x2)", 1),
    ("(x1 (x1 x2))", "(x1 (x1 x2))", 1),
    ("((x1 x2) x2)", "(x2 (x1 x2))", -1),
    ("(x1 (x1 (x1 x2)))", "(x1 (x1 (x1 x2)))", 1),
    ("(x1 ((x1 x2) x2))", "(x1 (x2 (x1 x2)))", -1),
    ("(((x1 x2) x2) x2)", "(x2 (x2 (x1 x2)))", 1),
    ("(x1 (x1 (x1 (x1 x2))))", "(x1 (x1 (x1 (x1 x2))))", 1),
    ("(x1 (x1 ((x1 x2) x2)))", "(x1 (x1 (x2 (x1 x2))))", -1),
    ("(x1 (((x1 x2) x2) x2))", "(x1 (x2 (x2 (x1 x2))))", 1),
    ("((x1 (x1 x2)) (x1 x2))", "((x1 x2) (x1 (x1 x2)))", -1),
    ("((x1 x2) ((x1 x2) x2))", "((x1 x2) (x2 (x1 x2)))", -1),
    ("((((x1 x2) x2) x2) x2)", "(x2 (x2 (x2 (x1 x2))))", -1),
]


class TestLieBasisWords:
    def test_each_word_is_signed_basis_monomial(self):
        alg = build_truncated(builtin_variety("lie"), G2, 5)
        images = []
        for word, target, sign in LIE_WORDS:
            nf = alg.normal_form(parse_element(word, G2, RATIONALS))
            assert len(nf.terms) == 1, word
            m, c = next(iter(nf.terms.items()))
            assert m.encode() == target
            assert c.as_fraction() == sign
            assert m.degree <= alg.bound and m not in alg.rewrite
            images.append(m)
        assert len(set(images)) == len(LIE_WORDS)
        assert set(images) == set(alg.all_basis())


class TestBuildMemo:
    def test_same_object(self):
        a = build_truncated(builtin_variety("lie"), G2, 3)
        b = build_truncated(builtin_variety("Lie"), GeneratorSet.default(2), 3)
        assert a is b

    def test_bound_distinguishes(self):
        a = build_truncated(builtin_variety("lie"), G2, 3)
        b = build_truncated(builtin_variety("lie"), G2, 4)
        assert a is not b

    def test_variety_lookup(self):
        assert builtin_variety("power_associative").name == "PowerAssociative"
        assert builtin_variety("All Linear").name == "AllLinear"
        with pytest.raises(ValueError):
            builtin_variety("associative")

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            build_truncated(builtin_variety("lie"), G2, 0)

    def test_mode_distinguishes(self):
        full = build_truncated(builtin_variety("lie"), G2, 2)
        ml = build_truncated(builtin_variety("lie"), G2, 2, multilinear=True)
        assert ml is not full
        assert (2, 0) in full.components and (2, 0) not in ml.components


class TestMultilinearBuild:
    """The multilinear build is the full build cut down to 0/1 multidegrees."""

    @pytest.mark.parametrize("name", builtin_variety_names())
    @pytest.mark.parametrize("k", (2, 3, 4))
    def test_matches_full_build(self, name, k):
        gens = GeneratorSet.default(k)
        ml = build_truncated(builtin_variety(name), gens, k, multilinear=True)
        full = build_truncated(builtin_variety(name), gens, k)
        assert set(ml.components) == {
            md for md in full.components if max(md) <= 1
        }
        for md, (monos, basis) in ml.components.items():
            assert full.components[md] == (monos, basis), md
        full_rows = rewrite_rows(full)
        assert rewrite_rows(ml) == {
            m: row for m, row in full_rows.items() if max(m.multidegree) <= 1
        }

    @pytest.mark.parametrize("name", ("Jordan", "PowerAssociative"))
    def test_interns_only_multilinear_monomials(self, name):
        # products outside the 0/1 multidegrees are skipped before they
        # are formed, so no other monomial over these generators exists
        # (no other test uses these names)
        gens = GeneratorSet(("z1", "z2", "z3", "z4"))
        build_truncated(builtin_variety(name), gens, 4, multilinear=True)
        built = [
            m for key, m in freealg._INTERN.items() if key[0] == gens.names
        ]
        assert len(built) > 4
        assert all(max(m.multidegree) <= 1 for m in built)


class TestPairSpaceBuild:
    """Only products of basis monomials are built; other words on demand."""

    def test_interns_only_pair_monomials(self):
        # the generators, the basis monomials and their products are the
        # only monomials over these names (no other test uses them)
        gens = GeneratorSet(("w1", "w2"))
        alg = build_truncated(builtin_variety("lie"), gens, 8)
        built = {
            m for key, m in freealg._INTERN.items() if key[0] == gens.names
        }
        pairs = {m for monos, _ in alg.components.values() for m in monos}
        assert {gens.generator(0), gens.generator(1)} <= pairs
        assert set(alg.all_basis()) <= pairs
        assert built == pairs
        # the free magma has 2^8 * 429 monomials in degree 8 alone
        assert len(built) < 1000

    def test_word_normal_form_leaves_rewrite_alone(self):
        alg = build_truncated(builtin_variety("lie"), G2, 6)
        before = dict(alg.rewrite)
        word = parse_monomial("(x1 (x1 ((x1 x2) x2)))", G2)
        pairs = {m for monos, _ in alg.components.values() for m in monos}
        assert word not in pairs
        nf = alg.normal_form(Element.from_monomial(G2, RATIONALS, word))
        assert nf == parse_element("-(x1 (x1 (x2 (x1 x2))))", G2, RATIONALS)
        assert alg.rewrite == before

    def test_unbuilt_multidegree_word_is_its_own_form(self):
        # as before the pair-space build: a multilinear build leaves the
        # words of other multidegrees as they are
        alg = build_truncated(builtin_variety("lie"), G2, 2, multilinear=True)
        el = parse_element("(x1 x1) + (x2 x1)", G2, RATIONALS)
        assert alg.normal_form(el) == parse_element("(x1 x1) - (x1 x2)", G2, RATIONALS)


def _build_digest(alg):
    lines = [m.encode() for m in alg.all_basis()]
    rows = rewrite_rows(alg)
    for m in sorted(rows, key=lambda m: m.sort_key):
        row = " ".join(f"{c} {b.encode()}" for b, c in rows[m])
        lines.append(f"{m.encode()} = {row}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# sha256 of each full build's basis listing and rewrite rows: a change to
# how the build works must leave every one of them as it is
PINNED_BUILDS = {
    ("AllLinear", 2, 5):
        "4d7db1fe50a46fccc7bc4f209a41afba1aa6166e292ab88cfaf338c54e1cf280",
    ("Commutative", 2, 5):
        "2a7d674d7205f824a69ffd2f67f72846c947f294729d356a548b8966c1a728ce",
    ("Anticommutative", 2, 5):
        "62385b1f6607fd98b9f578afcd222829617d28497f5155615214576b824d8ab0",
    ("Lie", 2, 5):
        "b153b8b79ec3ac04ccc42b2c6e5d84580f0cbd848f8b069e029dc0580c6b7853",
    ("Jordan", 2, 5):
        "9b571e2ec20d01dbfd124694c4f75d6e875d7e9748358e95ab8ccc6cfcc5ad92",
    ("Alternative", 2, 5):
        "46ed992819ffa6abd8f897f8dccefeb1580415bcb421f4746a5ae2773b3f77bc",
    ("PowerAssociative", 2, 5):
        "e5ce143b16121fbf18166ffeba4728beca0f643f93b40f627f7725772fa189f2",
    ("AllLinear", 3, 4):
        "ea7dcd4d36bb9a1e8a0e397da6bbcf03cd1dbf58a359775a60b2db54a0af8e7e",
    ("Commutative", 3, 4):
        "469609560804f827fafd4dbd9d33c5faadba4ab03e46f0a60308a498a888a675",
    ("Anticommutative", 3, 4):
        "4550adc46ecc09e50572f8d266f0d43575d11260a7d48b8a6ee270dea89b9abf",
    ("Lie", 3, 4):
        "88a1ca8d5da73e4cf05c9b356bde319937c05c073791479c1ebc82fff30fa489",
    ("Jordan", 3, 4):
        "04a6a9cd08be0fc9650e16f7445f7c6d3a4962b1e944610a1684163c6e3d41ec",
    ("Alternative", 3, 4):
        "352ed17fd90b13050437b9a2749fb07dd97363f6b3113446df203ec0fdf38b96",
    ("PowerAssociative", 3, 4):
        "7866168c179d2c0545103f6128a0cf53bdd422b3465b45eead9e11dd04546918",
}


@pytest.mark.parametrize("name, k, bound", sorted(PINNED_BUILDS))
def test_full_build_is_pinned(name, k, bound):
    alg = build_truncated(builtin_variety(name), GeneratorSet.default(k), bound)
    assert _build_digest(alg) == PINNED_BUILDS[name, k, bound]


@pytest.mark.parametrize(
    "name, k, bound", sorted(PINNED_BUILDS) + [("Jordan", 2, 6)]
)
def test_rewrite_coefficients_are_exact(name, k, bound):
    # an int when integral, else a Fraction; never a float
    alg = build_truncated(builtin_variety(name), GeneratorSet.default(k), bound)
    for row in alg.rewrite.values():
        for _, c in row:
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1)


@pytest.mark.parametrize("name, k, bound", sorted(PINNED_BUILDS))
def test_sigma_part_zero_is_the_monomial(name, k, bound):
    # the premise of check_op2's determinant argument: M_0 is the identity
    alg = build_truncated(builtin_variety(name), GeneratorSet.default(k), bound)
    for m in alg.all_basis():
        parts = _sigma_parts(alg, m)
        assert len(parts) == m.degree
        assert parts[0] == {m: 1}, m.encode()
        for part in parts:
            for c in part.values():
                assert type(c) is int or (type(c) is Fraction and c.denominator != 1)


def _random_element(rng, monos):
    terms = {}
    for _ in range(rng.randrange(1, 5)):
        m = rng.choice(monos)
        c = Scalar.from_fraction(RATIONALS, Fraction(rng.randrange(-4, 5)))
        terms[m] = terms.get(m, Scalar.zero(RATIONALS)) + c
    return Element(G2, RATIONALS, terms)
