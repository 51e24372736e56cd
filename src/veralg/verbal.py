"""Changing the multiplication of an algebra by a verbal recipe.

A system here is a triple (phi, a, b): a field automorphism phi together
with two scalars.  It replaces the product of an algebra by

    u * v  :=  a (uv) + b (vu)

and twists scalar action through phi.  The induced map sigma fixes the
generators, sends lambda*u to phi(lambda)*sigma(u), and follows the new
product down monomial trees.  The questions this module answers: does the
new product stay inside a given variety and remain invertible
(:func:`check_op2`), how does sigma scale monomials (:func:`scaling_check`),
and is sigma a dilation in disguise (:func:`inner_witness`).
"""

from __future__ import annotations

from typing import Optional

from .freealg import Element, GeneratorSet, Monomial
from .scalars import (
    FieldAutomorphism,
    ParamContext,
    ParamPoly,
    Scalar,
    _exact,
    _Record,
    parse_scalar,
)
from .variety import RowReducer, VarietyPresentation, build_truncated

__all__ = [
    "InnerReport",
    "Op2Report",
    "PreconditionError",
    "VerbalSystem",
    "check_op2",
    "inner_witness",
    "scaling_check",
    "sigma_apply",
    "word_transform",
]


class PreconditionError(ValueError):
    """A stated precondition of the requested computation does not hold."""


class VerbalSystem(_Record):
    """The operation change (phi, a, b)."""

    __slots__ = ("phi", "a", "b")

    def _check(self):
        if self.a.field != self.phi.field or self.b.field != self.phi.field:
            raise ValueError("the scalars and the automorphism disagree on the field")
        if self.a.is_zero and self.b.is_zero:
            raise ValueError("the product word must be nonzero")

    @property
    def field(self):
        return self.phi.field

    @classmethod
    def parse(cls, field, phi: str = "id", a: str = "1", b: str = "0") -> "VerbalSystem":
        return cls(
            FieldAutomorphism.parse(phi, field),
            parse_scalar(a, field),
            parse_scalar(b, field),
        )

    def encode(self) -> dict:
        return {"phi": self.phi.encode(), "a": self.a.encode(), "b": self.b.encode()}

    def __repr__(self):
        e = self.encode()
        return f"VerbalSystem(phi={e['phi']}, a={e['a']}, b={e['b']})"


def _clean(acc: dict) -> dict:
    return {m: _exact(v) for m, v in acc.items() if v}


def _sigma_parts(alg, m: Monomial) -> tuple:
    """sigma(m) split by the number of swapped nodes, in rational normal form.

    Part j is a {basis monomial: int or Fraction} dict, and for m of degree
    n, sigma(m) = sum over j of a^(n-1-j) b^j part_j: each of the n - 1
    nodes of m's tree keeps its order with weight a or swaps it with
    weight b.  Part 0 is the normal form of m itself.  The parts do not
    depend on the system, so they are memoised per algebra.  Above the
    truncation there are none.
    """
    memo = alg._sigma_memo
    hit = memo.get(m)
    if hit is not None:
        return hit
    if m.degree > alg.bound:
        out = ()
    elif m.is_leaf:
        out = (alg.word_form(m),)
    else:
        # part j sums the child products with j swaps, this node's included
        left = _sigma_parts(alg, m.left)
        right = _sigma_parts(alg, m.right)
        factors = [[] for _ in range(m.degree)]
        for i, pl in enumerate(left):
            for k, pr in enumerate(right):
                factors[i + k].append((pl, pr))
                factors[i + k + 1].append((pr, pl))
        out = tuple(alg.product_form(f) for f in factors)
    memo[m] = out
    return out


def _combine(gens, system: VerbalSystem, parts: tuple) -> Element:
    """sum over j of a^(n-1-j) b^j parts[j], n = len(parts), as an Element."""
    a, b = system.a, system.b
    n = len(parts)
    one = Scalar.one(system.field)
    a_pow, b_pow = [one], [one]
    for _ in range(1, n):
        a_pow.append(a_pow[-1] * a)
        b_pow.append(b_pow[-1] * b)
    acc = {}
    for j, part in enumerate(parts):
        w = a_pow[n - 1 - j] * b_pow[j]
        if not w:
            continue
        for m, c in part.items():
            t = w * c
            s = acc.get(m)
            acc[m] = t if s is None else s + t
    return Element(gens, system.field, acc)


def word_transform(alg, system: VerbalSystem, m: Monomial) -> Element:
    """sigma on a single monomial: the tree of m evaluated in the new product.

    The result is in normal form; degrees above the truncation vanish.  Only
    the parts are memoised; phi never enters sigma on words.
    """
    return _combine(alg.gens, system, _sigma_parts(alg, m))


def sigma_apply(alg, system: VerbalSystem, el: Element) -> Element:
    """sigma on an element: phi-twisted coefficients, transformed monomials."""
    if el.domain != system.field:
        raise ValueError("element and system live over different fields")
    out = Element.zero(alg.gens, system.field)
    for m, c in el.terms.items():
        out = out + word_transform(alg, system, m) * system.phi.apply(c)
    return out


def _law_parts(variety, scheme) -> tuple:
    """F_V(arity) and the law's rational parts P_j at its free generators.

    Part j sums the law's coefficients times part j of sigma on its terms:
    every term of a multilinear law of arity k has degree k, so the law in
    the new product is sum over j of a^(k-1-j) b^j P_j.  The parts are
    memoised with the parts of the free algebra.
    """
    k = scheme.arity
    free = build_truncated(variety, GeneratorSet.default(k), k, multilinear=True)
    parts = free._sigma_memo.get(scheme)
    if parts is None:
        ys = tuple(free.gens.generator(i) for i in range(k))
        acc = [{} for _ in range(k)]
        for m, c in scheme.substitute(ys, free.gens).items():
            for total, part in zip(acc, _sigma_parts(free, m)):
                for b, v in part.items():
                    total[b] = total.get(b, 0) + c * v
        parts = free._sigma_memo[scheme] = tuple(_clean(t) for t in acc)
    return free, parts


def _point(system: VerbalSystem) -> Optional[tuple]:
    """(p, q) with a : b = p : q in lowest terms, or None if a/b is not rational.

    b = 0 gives (1, 0).
    """
    if system.b.is_zero:
        return 1, 0
    ratio = (system.a / system.b).as_fraction()
    if ratio is None:
        return None
    return ratio.numerator, ratio.denominator


def _weights(point: tuple, n: int) -> list:
    """p^(n-1-j) q^j for j < n: the weights of the n parts at a : b = p : q."""
    p, q = point
    return [p ** (n - 1 - j) * q**j for j in range(n)]


def _weighted(parts: tuple, weights: list) -> dict:
    """sum over j of weights[j] parts[j], zero values dropped."""
    acc = {}
    for w, part in zip(weights, parts):
        if w:
            for b, v in part.items():
                acc[b] = acc.get(b, 0) + w * v
    return _clean(acc)


def _law_holds(parts: tuple, point: Optional[tuple]) -> bool:
    """Does sum over j of a^(k-1-j) b^j P_j vanish, k = len(parts)?

    At a rational point that sum is (b/q)^(k-1), or a^(k-1) when b = 0,
    times the weighted sum of the parts, which is over Q.  Otherwise a/b is transcendental
    over Q, since Q is algebraically closed in Q(t), so it is no root of
    the polynomial sum over j of P_j[m] x^(k-1-j) for any monomial m
    unless every coefficient P_j[m] is 0.
    """
    if point is None:
        return not any(parts)
    return not _weighted(parts, _weights(point, len(parts)))


class Op2Report(_Record):
    """Outcome of an admissibility check for an operation change."""

    __slots__ = (
        "variety",
        "phi",
        "a",
        "b",
        "bound",
        "form_ok",
        "identity_ok",
        "invertible",
        "identity_failures",
        "singular_multidegrees",
    )

    @property
    def admissible(self) -> bool:
        return self.form_ok and self.identity_ok and self.invertible

    def as_dict(self) -> dict:
        return {
            "variety": self.variety,
            "phi": self.phi,
            "a": self.a,
            "b": self.b,
            "bound": self.bound,
            "form_ok": self.form_ok,
            "identity_ok": self.identity_ok,
            "invertible": self.invertible,
            "admissible": self.admissible,
            "identity_failures": [list(f) for f in self.identity_failures],
            "singular_multidegrees": [list(md) for md in self.singular_multidegrees],
        }


def _singular_at(alg, mdeg, point: tuple) -> bool:
    """Is sum over j of p^(n-1-j) q^j M_j singular on the multidegree?

    That matrix is q^(n-1) times sum over j of (p/q)^(n-1-j) M_j, q != 0.
    """
    basis = alg.basis_of_multidegree(mdeg)
    weights = _weights(point, sum(mdeg))
    index = {m: i for i, m in enumerate(basis)}
    red = RowReducer()
    for m in basis:
        row = _weighted(_sigma_parts(alg, m), weights)
        red.insert({index[b]: v for b, v in row.items()})
    return red.rank < len(basis)


def default_op2_bound(variety: VarietyPresentation) -> int:
    """The bound `check_op2` uses when given none: the laws' largest degree."""
    return max([2, *(s.element.max_degree() for s in variety.schemes)])


def check_op2(
    variety: VarietyPresentation,
    system: VerbalSystem,
    gens: Optional[GeneratorSet] = None,
    bound: Optional[int] = None,
) -> Op2Report:
    """Is the new product an operation of the variety, with sigma invertible?

    The two-sided word a(x1 x2) + b(x2 x1) is only a genuine two-parameter
    family when x1 x2 and x2 x1 are independent in the algebra; when that
    component is one-dimensional the second term folds into the first, and
    only the representative with b = 0 is admitted (form check).  Both this
    and the invertibility of sigma on each multihomogeneous component are
    verified on the truncated relatively-free algebra on `gens`.

    The laws are decided at the free generators instead.  The new product is
    a verbal operation, so it commutes with homomorphisms: a multilinear law
    of arity k (at most `bound`) holds for it in every algebra of the
    variety exactly when it vanishes at y1..yk in the multilinear part of
    F_V(k).  For a law that fails, the witness in `identity_failures` is for
    display only: the first tuple of basis monomials of the truncation whose
    substitution into that value has a nonzero normal form (the new product
    commutes with substitution, so the law fails there), or the slot names
    y1..yk when there is none.

    Both conditions depend on the system only through the point (a : b),
    which is (1 : 0) when b = 0, p : q for a rational a/b, or a/b not
    rational.  The law's value is sum over j of a^(k-1-j) b^j P_j for
    rational parts P_j (`_law_parts`); at a rational point it vanishes
    exactly when sum p^(k-1-j) q^j P_j does over Q, and otherwise exactly
    when every P_j is 0 (`_law_holds`).  Only a failing law's value is
    formed over the field, for its witness.

    Invertibility is decided from the parts of sigma on words.  On a
    multidegree of degree n with N basis monomials, the matrix of sigma is
    sum over j of a^(n-1-j) b^j M_j, where M_j holds part j of sigma on each
    basis monomial, and M_0 is the identity.  So when b = 0 it is a^(n-1)
    times the identity, with a != 0, and otherwise its determinant is
    b^(N(n-1)) p(a/b) for p(x) = det(sum x^(n-1-j) M_j), a monic polynomial
    over Q.  A nonconstant rational function is transcendental over Q, so
    p(a/b) != 0 unless a/b is rational.  Only then is a matrix ranked: the
    integer-weighted sum p^(n-1-j) q^j M_j, q^(n-1) times the rational one,
    on each multidegree of degree at least 2 (sigma fixes the generators).

    When every law holds, sigma is the homomorphism from the algebra to
    itself with the new product that fixes the generators, so it commutes
    with each permutation of them, and its rank on a multidegree is its
    rank on any permutation of it: one multidegree per orbit is ranked.
    When a law fails, sigma on the truncation depends on which basis
    monomial represents each class, and ranks can differ within an orbit
    (under the law (y1 (y2 y3)) - ((y1 y2) y3) + (y2 (y1 y3)) at a : b =
    -1 : 2, sigma is singular on (3, 1) but not on (1, 3)), so every
    multidegree is ranked.
    """
    if gens is None:
        gens = GeneratorSet.default(2)
    if bound is None:
        bound = default_op2_bound(variety)
    alg = build_truncated(variety, gens, bound)
    point = _point(system)

    form_ok = True
    if gens.size >= 2 and bound >= 2:
        md = tuple([1, 1] + [0] * (gens.size - 2))
        if len(alg.basis_of_multidegree(md)) == 1 and not system.b.is_zero:
            form_ok = False

    failures = []
    for scheme in variety.multilinear():
        if scheme.arity > bound:
            continue
        free, parts = _law_parts(variety, scheme)
        if _law_holds(parts, point):
            continue
        combo = alg.failing_tuple(_combine(free.gens, system, parts))
        if combo is None:
            witness = scheme.ygens.names
        else:
            witness = tuple(m.encode() for m in combo)
        failures.append((scheme.encode(), witness))

    singular = []
    if point is not None and point[1]:
        orbits = {}
        for d in range(2, bound + 1):
            for md in alg.multidegrees(d):
                key = md if failures else tuple(sorted(md, reverse=True))
                if key not in orbits:
                    orbits[key] = _singular_at(alg, md, point)
                if orbits[key]:
                    singular.append(md)

    return Op2Report(
        variety=variety.name,
        phi=system.phi.encode(),
        a=system.a.encode(),
        b=system.b.encode(),
        bound=bound,
        form_ok=form_ok,
        identity_ok=not failures,
        invertible=not singular,
        identity_failures=tuple(failures),
        singular_multidegrees=tuple(singular),
    )


def scaling_check(alg, system: VerbalSystem, m: Monomial) -> Scalar:
    """The factor f with sigma(m) = f^(deg m - 1) * nf(m), verified.

    Available when b = 0 (factor a, any monomial), or when the monomial uses
    a single generator and one-generated subalgebras of the variety are
    commutative (factor a + b).
    """
    if m.degree > alg.bound:
        raise PreconditionError("monomial degree exceeds the truncation bound")
    if system.b.is_zero:
        factor = system.a
    elif len(set(m.word)) == 1 and alg.variety.power_family:
        factor = system.a + system.b
    else:
        raise PreconditionError(
            "no scaling rule: need b = 0, or a one-generated monomial in a "
            "variety whose one-generated subalgebras are commutative"
        )
    nf = alg.normal_form(Element.from_monomial(alg.gens, system.field, m))
    expected = nf * factor ** (m.degree - 1)
    actual = word_transform(alg, system, m)
    if expected != actual:
        raise ArithmeticError(
            f"scaling failed for {m.encode()}: "
            f"{actual.encode()} != {expected.encode()}"
        )
    return factor


class InnerReport(_Record):
    """Whether sigma is a dilation u -> mu^(1 - deg u) * u for some mu != 0.

    status is "inner" with a witness, "refuted" with an obstruction, or
    "unknown" when the collected constraints neither force nor exclude a
    dilation.
    """

    __slots__ = ("status", "witness", "obstruction", "equations")

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "witness": None if self.witness is None else self.witness.encode(),
            "obstruction": self.obstruction,
            "equations": list(self.equations),
        }


def inner_witness(alg, system: VerbalSystem) -> InnerReport:
    """Decide, where possible, whether sigma acts as a scalar dilation.

    The dilation ansatz sigma(u) = mu^(1 - deg u) * u turns into one
    polynomial equation in mu per moved transcendental and per basis
    coefficient of mu^(deg m) * sigma(m) - mu * m.  Equations that force a
    value of mu are solved and the forced value is checked everywhere.
    """
    field = system.field
    ctx = ParamContext(field, ("mu",))
    equations = []
    seen = set()

    def push(poly):
        if poly.is_zero or poly in seen:
            return
        seen.add(poly)
        equations.append(poly)

    for name in field.names:
        theta = Scalar.transcendental(field, name)
        moved = system.phi.apply(theta) - theta
        if not moved.is_zero:
            push(ParamPoly(ctx, {(1,): moved}))

    one = Scalar.one(field)
    for m in alg.all_basis():
        n = m.degree
        if n < 2:
            continue
        img = word_transform(alg, system, m)
        coeffs = dict(img.terms)
        targets = set(coeffs) | {m}
        for b in sorted(targets, key=lambda x: x.sort_key):
            terms = {}
            c = coeffs.get(b)
            if c is not None and not c.is_zero:
                terms[(n,)] = c
            if b == m:
                terms[(1,)] = terms.get((1,), Scalar.zero(field)) - one
            push(ParamPoly(ctx, terms))

    display = tuple(eq.encode() for eq in equations)

    candidates = []
    for eq in equations:
        shift = min(e[0] for e in eq.terms)
        stripped = {(e[0] - shift,): c for e, c in eq.terms.items()}
        top = max(e[0] for e in stripped)
        if top == 0:
            # a nonzero constant once mu-powers are cancelled: unsatisfiable
            return InnerReport(
                status="refuted",
                witness=None,
                obstruction=f"{eq.encode()} = 0 has no nonzero solution",
                equations=display,
            )
        if top == 1:
            value = (-stripped[(0,)]) / stripped[(1,)]
            if all(value != c for c in candidates):
                candidates.append(value)

    if len(candidates) > 1:
        parts = ", ".join(c.encode() for c in candidates)
        return InnerReport(
            status="refuted",
            witness=None,
            obstruction=f"incompatible forced values for mu: {parts}",
            equations=display,
        )

    forced = bool(candidates)
    value = candidates[0] if forced else one
    bad = next(
        (eq for eq in equations if not eq.evaluate({"mu": value}).is_zero), None
    )
    if bad is None:
        return InnerReport(
            status="inner", witness=value, obstruction=None, equations=display
        )
    if forced:
        return InnerReport(
            status="refuted",
            witness=None,
            obstruction=(
                f"forced mu = {value.encode()} fails {bad.encode()} = 0"
            ),
            equations=display,
        )
    return InnerReport(
        status="unknown", witness=None, obstruction=None, equations=display
    )
