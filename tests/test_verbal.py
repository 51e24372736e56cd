"""Tests for operation changes: admissibility, scaling, inner witnesses."""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from endomorphism_oracle import product
from test_oracles import _sweep_jobs_module
from veralg import cases, verbal
from veralg.cases import OP2_GRID
from veralg.freealg import (
    Element,
    GeneratorSet,
    Monomial,
    enumerate_monomials,
    parse_element,
    parse_monomial,
)
from veralg.scalars import FieldSpec, Scalar, parse_scalar
from veralg.variety import (
    IdentityScheme,
    VarietyPresentation,
    build_truncated,
    builtin_variety,
    builtin_variety_names,
)
from veralg.verbal import (
    PreconditionError,
    VerbalSystem,
    _sigma_parts,
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
# the law y1 makes every algebra of the variety zero
TRIVIAL = VarietyPresentation("Trivial", [IdentityScheme.from_string("y1")])


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
        assert product(w, u, v).encode() == "2 * (x1 x2) + 3 * (x2 x1)"


class TestWordTransform:
    def test_b_zero_scales_by_a(self):
        rng = random.Random(7319)
        alg = build_truncated(builtin_variety("alllinear"), G2, 4)
        w = _sys(Q, "id", "3", "0")
        monos = [m for d in range(1, 5) for m in enumerate_monomials(G2, d)]
        for _ in range(20):
            m = rng.choice(monos)
            got = word_transform(alg, w, m)
            want = Element.from_monomial(G2, Q, m) * Fraction(3) ** (m.degree - 1)
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
            assert got == nf * Fraction(2) ** (m.degree - 1)

    def test_memoised(self):
        # sigma's parts are memoised once per algebra and word, whatever the
        # system; word_transform combines them on each call
        alg = build_truncated(builtin_variety("commutative"), G2, 3)
        m = parse_monomial("(x1 (x1 x2))", G2)
        got = word_transform(alg, _sys(Q, "id", "1", "1"), m)
        parts = alg._sigma_memo[m]
        assert _sigma_parts(alg, m) is parts
        assert word_transform(alg, _sys(Q, "id", "1", "1"), m) == got
        word_transform(alg, _sys(Q, "id", "2", "3"), m)
        assert alg._sigma_memo[m] is parts
        assert all(isinstance(k, Monomial) for k in alg._sigma_memo)

    def test_generator_in_normal_form(self):
        alg = build_truncated(TRIVIAL, G2, 3)
        w = _sys(Q, "id", "2", "0")
        assert word_transform(alg, w, parse_monomial("x1", G2)).is_zero

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
        u = parse_element("(x1 x2)", G2, F2)
        assert sigma_apply(alg, w, u * t1) == sigma_apply(alg, w, u) * t2

    def test_additive(self):
        alg = build_truncated(builtin_variety("commutative"), G2, 3)
        w = _sys(Q, "id", "2", "1")
        u = parse_element("(x1 x2) + 2 * (x2 (x1 x1))", G2, Q)
        v = parse_element("(x1 (x1 x2)) - x1", G2, Q)
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

    def test_arity_one_law(self):
        # every product, the changed one too, satisfies the law y1 there
        report = check_op2(TRIVIAL, _sys(Q, "id", "2", "0"))
        assert report.identity_ok and report.admissible
        assert report.identity_failures == ()

    def test_as_dict_round_trip(self):
        import json

        report = check_op2(builtin_variety("lie"), _sys(Q, "id", "1", "1"))
        blob = json.dumps(report.as_dict())
        assert '"admissible": false' in blob


# sha256 of the JSON of check_op2(...).as_dict() over OP2_GRID (phi = id,
# field Q(t1, t2), the default bound), for 1, 2 and 3 generators: a change
# to any verdict, bound or witness shows here
OP2_DIGESTS = {
    "AllLinear": (
        "e5bb4cc266d220f4697928ca0b752722ac35513ac20f25267e3a12e080b4ea81",
        "4df5d0f1f2fc3e3f1bafebe8f43f8d27124ad15484c4bd7f20c6115e01a922f4",
        "5a57a896fdea8db46047b5f76b02f54031a276a8bb086af89018b321ee0f7b78",
    ),
    "Commutative": (
        "ff42c279a68d477fea7215caeb300d0a81fe2b64408686d1a1ef97581dae2991",
        "3977678856870d23606e4db4ffc8d2589ec0f903d0454e52c28aad3adf762e7b",
        "5304371854c4ff894864521eb748ce5c41418f6a895ab2910ba48b782f7292b2",
    ),
    "Anticommutative": (
        "59daf8b5f80fbd6aa692a295a68b1e4a3269e51d527a104b027f9d4894433550",
        "e99970708eb1e4254e33a003bb06d446f6600f75b934e26e2367170c4237fc10",
        "a71e48c7b043c853ba00518c49fe620b4b7d283953b8d5ba559f935d06faa434",
    ),
    "Lie": (
        "960e2b7650442768b8b3ddd210e090ee9f043e2888967f613aea157c5211ed99",
        "e0d3bcd76a70d104413f34e1314152bd702221f4f487cf79e4edcabc07a0d077",
        "cf814b08c485f48b9abc4b90d9ed1048540d1083ef6f8cc8cb6f7b5c82c0cb3f",
    ),
    "Jordan": (
        "a203cc588ffcbafb0bf714c3b9f795d9e129094ddf526cdd7e82b27ecb3d09e4",
        "8fcab59c4a62e364d2e90107a90643c8e4e45a6bfff627360bcfccb861cee1e4",
        "210aae94f76f2cf09c3b20a4886e1a0260a94fc9ff436ad0ba640266fc990fb6",
    ),
    "Alternative": (
        "9f76c3796c4b6694685f7efabd4701997247aaa9e998c670474f2584e52f195c",
        "cf36c28af80854dbdbdc0ad712e0c89d5a5df3c02bc2c22dbc128e457dbed2bc",
        "8dce4c206800ac560dba63d527021a16257e0c7cf5f11731ea49e87fd48430d4",
    ),
    "PowerAssociative": (
        "75943b36a47cea857f2e980cc329d6072bb42c8907dad1926623d862da30c83e",
        "2f3106d8dbcf9b315f2b321b9aa1175e80fa880992ed618b40813c629a9517be",
        "6c7a6c084ca2ac729e896d0a9d6ec8d2a767b20026c62944d296a03425be8cc4",
    ),
}


@pytest.mark.parametrize("name", builtin_variety_names())
@pytest.mark.parametrize("k", (1, 2, 3))
def test_op2_grid_pinned(name, k):
    reports = [
        check_op2(
            builtin_variety(name),
            _sys(F2, "id", str(a), str(b)),
            GeneratorSet.default(k),
        ).as_dict()
        for a, b in OP2_GRID
    ]
    blob = json.dumps(reports, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == OP2_DIGESTS[name][k - 1]


def test_rational_function_cell_pinned():
    # a/b is not rational, so no rank is taken; the digest was recorded
    # with the rank over Q(t1, t2), which takes about 20 s on this cell
    report = check_op2(
        builtin_variety("alllinear"),
        _sys(F2, "swap", "(t1 + 1)/t2", "t1 - t2"),
        GeneratorSet.default(3),
        4,
    )
    blob = json.dumps(report.as_dict(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "c02bfe7b249c077178a95b6c830422538da75b481dd098e94bdfa5a14f8a57cd"
    )


@pytest.mark.parametrize("phi,a,b", (("id", "1", "-1"), ("swap", "t1", "-t1")))
def test_witness_past_degree_one(phi, a, b):
    # in the new product the law at (x1, x1, x1) is b (a + b) ((x1 x1) x1),
    # which vanishes when a + b = 0: the first failing tuple has degree 4
    law = "(y1 (y2 y3))"
    variety = VarietyPresentation(law, (IdentityScheme.from_string(law),))
    report = check_op2(variety, _sys(F2, phi, a, b), G1, 5)
    assert report.identity_failures == ((law, ("x1", "x1", "(x1 x1)")),)


G3 = GeneratorSet.default(3)


@pytest.mark.parametrize("name", builtin_variety_names())
def test_singular_multidegrees_closed_under_permutations(name):
    # when the laws hold, sigma commutes with permuting the generators
    closed = 0
    for a, b in OP2_GRID:
        report = check_op2(builtin_variety(name), _sys(Q, "id", str(a), str(b)), G3)
        if not report.identity_ok:
            continue
        singular = set(report.singular_multidegrees)
        for md in singular:
            assert set(itertools.permutations(md)) <= singular, (a, b, md)
        closed += bool(singular)
    if name != "Alternative":
        # a = b or a = -b is singular in each of the other six
        assert closed


def test_one_rank_per_generator_orbit(monkeypatch):
    ranked = []
    singular_at = verbal._singular_at

    def counted(alg, md, point):
        ranked.append(tuple(sorted(md, reverse=True)))
        return singular_at(alg, md, point)

    monkeypatch.setattr(verbal, "_singular_at", counted)
    lie = builtin_variety("lie")
    report = check_op2(lie, _sys(Q, "id", "1", "2"), G3, 5)
    assert report.identity_ok
    alg = build_truncated(lie, G3, 5)
    orbits = {
        tuple(sorted(md, reverse=True))
        for d in range(2, 6)
        for md in alg.multidegrees(d)
    }
    assert sorted(ranked) == sorted(orbits)


def test_failing_law_ranks_every_multidegree():
    # the law fails at a : b = -1 : 2, so sigma on the truncation depends on
    # the basis, and its rank differs between (3, 1) and (1, 3)
    law = "(y1 (y2 y3)) - ((y1 y2) y3) + (y2 (y1 y3))"
    variety = VarietyPresentation(law, (IdentityScheme.from_string(law),))
    report = check_op2(variety, _sys(Q, "id", "-1", "2"), G2, 4)
    assert not report.identity_ok
    assert (3, 1) in report.singular_multidegrees
    assert (1, 3) not in report.singular_multidegrees


def _no_combine(*args):
    raise AssertionError("a law that holds was evaluated over the field")


@pytest.mark.parametrize("name", builtin_variety_names())
def test_laws_that_hold_form_no_field_value(monkeypatch, name):
    monkeypatch.setattr(verbal, "_combine", _no_combine)
    cells = [(a, b) for a, b in OP2_GRID if _expected_admissible(name, a, b)]
    cells.append(("t1", "0"))
    if name != "Alternative":
        # the Alternative laws fail wherever a and b are both nonzero
        cells.append(("t1", "t2"))
    for a, b in cells:
        report = check_op2(builtin_variety(name), _sys(F2, "id", str(a), str(b)))
        assert report.identity_ok, (a, b)


# the flexible law holds in the new product of an alternative algebra, the
# two Alternative laws fail when a and b are both nonzero
ALTERNATIVE_FLEXIBLE = VarietyPresentation(
    "AlternativeFlexible",
    builtin_variety("alternative").schemes
    + (IdentityScheme.from_string("((y1 y2) y1) - (y1 (y2 y1))"),),
)


@pytest.mark.parametrize("a,b", (("1", "1"), ("2", "1"), ("t1", "t2")))
def test_only_failing_laws_form_a_field_value(monkeypatch, a, b):
    formed = []
    combine = verbal._combine

    def counted(gens, system, parts):
        formed.append(len(parts))
        return combine(gens, system, parts)

    monkeypatch.setattr(verbal, "_combine", counted)
    report = check_op2(ALTERNATIVE_FLEXIBLE, _sys(F2, "id", a, b))
    assert len(ALTERNATIVE_FLEXIBLE.multilinear()) == 3
    assert len(report.identity_failures) == 2
    assert len(formed) == 2


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

    def test_commutative_one_generator_not_associative(self):
        # F_Comm(1) has two independent monomials in degree 4, so its
        # one-generated subalgebra is not associative; the rule needs only
        # commutativity
        alg = build_truncated(builtin_variety("commutative"), G1, 4)
        assert alg.dims()[4] == 2
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
                Element.from_monomial(G2, Q, m) * mu ** (1 - m.degree)
            )
            assert got == want


def test_inner_changes_of_the_corpus_are_never_falsified():
    # negative control: phi = id and b = 0 make sigma the dilation with
    # mu = 1/a, so the change is inner and no ideal can be falsified
    sweep_jobs = _sweep_jobs_module()
    jobs = [
        job
        for job in sweep_jobs.corpus(sweep_jobs.CORPUS_SEED, sweep_jobs.load_top_basis())
        if job["system"]["phi"] == "id" and job["system"]["b"] == "0"
    ]
    assert len(jobs) == 42
    for job in jobs:
        alg, field, _, system = cases.job_context(job)
        report = inner_witness(alg, system)
        assert report.status == "inner", job
        assert report.witness == Scalar.one(field) / system.a, job
        assert cases.falsify_job(job).verdict == "no_falsification", job
