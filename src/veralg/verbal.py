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

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .freealg import Element, GeneratorSet, Monomial
from .scalars import (
    FieldAutomorphism,
    ParamContext,
    ParamPoly,
    Scalar,
    parse_scalar,
)
from .variety import RowReducer, VarietyPresentation, _compositions, build_truncated

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


@dataclass(frozen=True)
class VerbalSystem:
    """The operation change (phi, a, b)."""

    phi: FieldAutomorphism
    a: Scalar
    b: Scalar

    def __post_init__(self):
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

    def key(self):
        return (self.phi.encode(), self.a, self.b)

    def product(self, u: Element, v: Element) -> Element:
        """The derived product a(uv) + b(vu) in the free algebra."""
        return (u * v).scale(self.a) + (v * u).scale(self.b)

    def encode(self) -> dict:
        return {"phi": self.phi.encode(), "a": self.a.encode(), "b": self.b.encode()}

    def __repr__(self):
        e = self.encode()
        return f"VerbalSystem(phi={e['phi']}, a={e['a']}, b={e['b']})"


def word_transform(alg, system: VerbalSystem, m: Monomial) -> Element:
    """sigma on a single monomial: the tree of m evaluated in the new product.

    The result is in normal form; degrees above the truncation vanish.
    """
    memo = alg._sigma_memo
    key = (system.key(), m)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if m.degree > alg.bound:
        out = Element.zero(alg.gens, system.field)
    elif m.is_leaf:
        out = Element.from_monomial(alg.gens, system.field, m)
    else:
        left = word_transform(alg, system, m.left)
        right = word_transform(alg, system, m.right)
        out = alg.normal_form(system.product(left, right).truncate(alg.bound))
    memo[key] = out
    return out


def sigma_apply(alg, system: VerbalSystem, el: Element) -> Element:
    """sigma on an element: phi-twisted coefficients, transformed monomials."""
    if el.domain != system.field:
        raise ValueError("element and system live over different fields")
    out = Element.zero(alg.gens, system.field)
    for m, c in el.terms.items():
        out = out + word_transform(alg, system, m).scale(system.phi.apply(c))
    return out


def _derived_eval(alg, system, m: Monomial, images: Sequence[Element]) -> Element:
    """The tree of m evaluated in the new product at the given images."""
    if m.is_leaf:
        return images[m.index]
    left = _derived_eval(alg, system, m.left, images)
    right = _derived_eval(alg, system, m.right, images)
    return alg.normal_form(system.product(left, right).truncate(alg.bound))


@dataclass(frozen=True)
class Op2Report:
    """Outcome of an admissibility check for an operation change."""

    variety: str
    phi: str
    a: str
    b: str
    bound: int
    form_ok: bool
    identity_ok: bool
    invertible: bool
    identity_failures: tuple
    singular_multidegrees: tuple

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


def check_op2(
    variety: VarietyPresentation,
    system: VerbalSystem,
    gens: Optional[GeneratorSet] = None,
    bound: Optional[int] = None,
) -> Op2Report:
    """Is the new product an operation of the variety, with sigma invertible?

    Three conditions are verified on the truncated relatively-free algebra.
    The two-sided word a(x1 x2) + b(x2 x1) is only a genuine two-parameter
    family when x1 x2 and x2 x1 are independent in the algebra; when that
    component is one-dimensional the second term folds into the first, and
    only the representative with b = 0 is admitted (form check).  On top of
    that, every identity of the variety must still hold for the new product,
    and sigma must restrict to an invertible map on each multihomogeneous
    component.
    """
    if gens is None:
        gens = GeneratorSet.default(2)
    if bound is None:
        degrees = [s.element.max_degree() for s in variety.schemes]
        bound = max([2, *degrees])
    alg = build_truncated(variety, gens, bound)

    form_ok = True
    if gens.size >= 2 and bound >= 2:
        md = tuple([1, 1] + [0] * (gens.size - 2))
        if len(alg.basis_of_multidegree(md)) == 1 and not system.b.is_zero:
            form_ok = False

    failures = []
    for scheme in variety.multilinear():
        if scheme.arity > bound:
            continue
        found = None
        for total in range(scheme.arity, bound + 1):
            if found:
                break
            for degs in _compositions(scheme.arity, total):
                pools = [alg.basis_of_degree(d) for d in degs]
                if not all(pools):
                    continue
                for combo in itertools.product(*pools):
                    images = [
                        Element.from_monomial(gens, system.field, m) for m in combo
                    ]
                    value = Element.zero(gens, system.field)
                    for m, c in scheme.element.terms.items():
                        part = _derived_eval(alg, system, m, images)
                        value = value + part.scale(c.as_fraction())
                    if not value.is_zero:
                        found = (
                            scheme.encode(),
                            tuple(m.encode() for m in combo),
                        )
                        break
                if found:
                    break
        if found:
            failures.append(found)

    singular = []
    for d in range(1, bound + 1):
        for md in alg.multidegrees(d):
            basis = alg.basis_of_multidegree(md)
            if not basis:
                continue
            index = {m: i for i, m in enumerate(basis)}
            red = RowReducer()
            for m in basis:
                img = word_transform(alg, system, m)
                red.insert({index[b]: c for b, c in img.terms.items()})
            if red.rank < len(basis):
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
    commutative and associative (factor a + b).
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
            "variety whose one-generated subalgebras are associative and "
            "commutative"
        )
    nf = alg.normal_form(Element.from_monomial(alg.gens, system.field, m))
    expected = nf.scale(factor ** (m.degree - 1))
    actual = word_transform(alg, system, m)
    if expected != actual:
        raise ArithmeticError(
            f"scaling failed for {m.encode()}: "
            f"{actual.encode()} != {expected.encode()}"
        )
    return factor


@dataclass(frozen=True)
class InnerReport:
    """Whether sigma is a dilation u -> mu^(1 - deg u) * u for some mu != 0.

    status is "inner" with a witness, "refuted" with an obstruction, or
    "unknown" when the collected constraints neither force nor exclude a
    dilation.
    """

    status: str
    witness: Optional[Scalar]
    obstruction: Optional[str]
    equations: tuple

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
