"""The image-based endomorphism and the sampled closure, kept as oracles.

``Endomorphism`` applies a map given by generator images, expanding every
product in the free magma; ``generic_linear`` gives the generic linear map
with ParamPoly coefficients, the independent check on the rational tables
of ``veralg.freealg.SymbolicEndomorphism``.  ``closure_sampled`` computes
the subspace that a finite set of such maps keeps inside an ideal.
``truncate``, ``product`` and ``truncated_product`` are the free-algebra
steps they are made of: an element cut at a degree bound, the derived
product a(uv) + b(vu) of an operation change, and the normal form of the
truncated free product.  None of this is on the falsifiers' path.  The
file name does not start with ``test_``, so pytest imports it only as a
helper.
"""

from typing import Mapping, Optional, Sequence

from veralg.closure import PreconditionError, TruncatedIdeal, coordinates
from veralg.freealg import ContextMismatch, Element, GeneratorSet, Monomial
from veralg.scalars import FieldSpec, ParamContext, ParamPoly, Scalar
from veralg.variety import RowReducer


def truncate(el: Element, bound: int) -> Element:
    """The terms of the element of degree at most the bound."""
    return Element(
        el.gens,
        el.domain,
        {m: c for m, c in el.terms.items() if m.degree <= bound},
    )


def product(system, u: Element, v: Element) -> Element:
    """The derived product a(uv) + b(vu) of the system in the free algebra."""
    return u * v * system.a + v * u * system.b


def truncated_product(alg, u: Element, v: Element) -> Element:
    """The normal form of the free product u v, cut at the algebra's bound."""
    return alg.normal_form(truncate(u * v, alg.bound))


def span_elements(ideal: TruncatedIdeal) -> tuple:
    """The pivot rows of an ideal's span, as elements."""
    basis = ideal.alg.all_basis()
    return tuple(
        Element(ideal.alg.gens, ideal.field, {basis[c]: v for c, v in row.items()})
        for row in ideal.reducer.pivots.values()
    )


def evaluate(el: Element, assignment: Mapping[str, Scalar]) -> Element:
    """Substitute Scalars for the unknowns of ParamPoly coefficients."""
    return Element(
        el.gens,
        el.domain.field,
        {m: p.evaluate(assignment) for m, p in el.terms.items()},
    )


class Endomorphism:
    """An algebra endomorphism given by generator images.

    The images are Elements over one coefficient domain; with ParamPoly
    coefficients (see :meth:`generic_linear`) the endomorphism is symbolic
    and :meth:`specialize` turns it into a concrete one.
    """

    __slots__ = ("gens", "domain", "images", "_memo")

    def __init__(self, gens: GeneratorSet, domain, images: Sequence[Element]):
        if len(images) != gens.size:
            raise ValueError("one image per generator is required")
        for img in images:
            if img.gens != gens or img.domain != domain:
                raise ContextMismatch("image over a different context")
        self.gens = gens
        self.domain = domain
        self.images = tuple(images)
        self._memo = {}

    @staticmethod
    def identity(gens, field) -> "Endomorphism":
        return Endomorphism(
            gens, field, [Element.generator(gens, field, n) for n in gens.names]
        )

    @staticmethod
    def generic_linear(gens: GeneratorSet, field: FieldSpec, extra: Sequence[str] = ()):
        """The generic degree-preserving endomorphism x_i |-> sum_j a_ji x_j.

        Unknowns are named ``a<j><i>`` (row j: target generator, column i:
        source generator) and listed row-major, followed by ``extra``.
        """
        n = gens.size
        names = tuple(
            f"a{j + 1}{i + 1}" for j in range(n) for i in range(n)
        ) + tuple(extra)
        ctx = ParamContext(field, names)
        images = [
            Element(
                gens,
                ctx,
                {
                    gens.generator(j): ParamPoly.variable(ctx, f"a{j + 1}{i + 1}")
                    for j in range(n)
                },
            )
            for i in range(n)
        ]
        return Endomorphism(gens, ctx, images)

    def image_of(self, m: Monomial, bound: Optional[int] = None) -> Element:
        key = (m, bound)
        out = self._memo.get(key)
        if out is None:
            if m.is_leaf:
                out = self.images[m.index]
                if bound is not None:
                    out = truncate(out, bound)
            else:
                out = self.image_of(m.left, bound) * self.image_of(m.right, bound)
                if bound is not None:
                    out = truncate(out, bound)
            self._memo[key] = out
        return out

    def apply(self, el: Element, bound: Optional[int] = None) -> Element:
        total = Element.zero(self.gens, self.domain)
        for m, c in el.terms.items():
            total = total + self.image_of(m, bound) * c
        return total

    def specialize(self, assignment: Mapping[str, Scalar]) -> "Endomorphism":
        """The concrete endomorphism at values for every unknown."""
        return Endomorphism(
            self.gens,
            self.domain.field,
            [evaluate(img, assignment) for img in self.images],
        )


def closure_sampled(alg, ideal: TruncatedIdeal, endos: Sequence[Endomorphism]) -> RowReducer:
    """The subspace of v with alpha(v) in the ideal for every sampled alpha.

    Every endomorphism must map the ideal into itself; with the identity
    among them the result is the ideal's own span back again.
    """
    for alpha in endos:
        for g in span_elements(ideal):
            if not ideal.contains(alg.normal_form(alpha.apply(g, alg.bound))):
                raise PreconditionError(
                    "sampled endomorphism does not preserve the ideal"
                )

    basis = alg.all_basis()
    constraints = RowReducer()
    for alpha in endos:
        residues = [
            ideal.residue(coordinates(alg, alpha.apply(
                Element.from_monomial(alg.gens, ideal.field, b), alg.bound
            )))
            for b in basis
        ]
        positions = set()
        for r in residues:
            positions.update(r)
        for k in positions:
            row = {}
            for j, r in enumerate(residues):
                c = r.get(k)
                if c is not None and not c.is_zero:
                    row[j] = c
            constraints.insert(row)

    one = Scalar.one(ideal.field)
    out = RowReducer()
    pivots = constraints.pivots
    for j in range(len(basis)):
        if j in pivots:
            continue
        vec = {j: one}
        for p, row in pivots.items():
            c = row.get(j)
            if c is not None and not c.is_zero:
                vec[p] = -c
        out.insert(vec)
    return out
