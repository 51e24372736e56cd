"""Free nonassociative algebras on a finite generator set.

Monomials are full binary trees with generator-labelled leaves, interned per
generator set.  Same-degree monomials are ordered by tree shape first --
shallower trees come earlier, ties broken by preorder serialisation -- and
then by the leaf word, left to right.  That ordering decides which monomials
survive as basis representatives after relations are imposed, so it is part
of the calculus, not a display choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Optional, Sequence

from .scalars import (
    FieldSpec,
    ParamContext,
    ParamPoly,
    Scalar,
    _NAME_RE,
    _p_add,
    _p_neg,
    _signed_coeff,
    parse_scalar,
)

__all__ = [
    "ContextMismatch",
    "Element",
    "Endomorphism",
    "GeneratorSet",
    "Monomial",
    "enumerate_monomials",
    "monomials_of_multidegree",
    "parse_element",
    "parse_monomial",
]


class ContextMismatch(ValueError):
    """Raised when operands live over different generators or fields."""


_INTERN = {}  # (names, structural key) -> Monomial


@dataclass(frozen=True)
class GeneratorSet:
    """An ordered set of free generators."""

    names: tuple

    def __post_init__(self):
        seen = set()
        for n in self.names:
            if not _NAME_RE.fullmatch(n):
                raise ValueError(f"bad generator name {n!r}")
            if n in seen:
                raise ValueError(f"duplicate generator name {n!r}")
            seen.add(n)

    @staticmethod
    def default(count: int) -> "GeneratorSet":
        return GeneratorSet(tuple(f"x{i + 1}" for i in range(count)))

    @property
    def size(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def generator(self, i: int) -> "Monomial":
        key = (self.names, "g", i)
        m = _INTERN.get(key)
        if m is None:
            if not 0 <= i < self.size:
                raise IndexError(f"no generator with index {i}")
            m = Monomial(self, index=i)
            _INTERN[key] = m
        return m

    def gen(self, name: str) -> "Monomial":
        return self.generator(self.index(name))

    def pair(self, left: "Monomial", right: "Monomial") -> "Monomial":
        if left.gens != self or right.gens != self:
            raise ContextMismatch("monomial from a different generator set")
        key = (self.names, "p", left.sort_key, right.sort_key)
        m = _INTERN.get(key)
        if m is None:
            m = Monomial(self, left=left, right=right)
            _INTERN[key] = m
        return m


class Monomial:
    """A nonassociative monomial: a binary product tree over generators.

    Obtain instances through :class:`GeneratorSet`; direct construction
    bypasses interning.
    """

    __slots__ = (
        "gens",
        "left",
        "right",
        "index",
        "degree",
        "word",
        "depth",
        "shape",
        "sort_key",
        "_hash",
    )

    def __init__(self, gens, index=None, left=None, right=None):
        self.gens = gens
        self.index = index
        self.left = left
        self.right = right
        if index is not None:
            self.degree = 1
            self.word = (index,)
            self.depth = 0
            self.shape = (0,)
        else:
            self.degree = left.degree + right.degree
            self.word = left.word + right.word
            self.depth = 1 + max(left.depth, right.depth)
            self.shape = (1,) + left.shape + right.shape
        self.sort_key = (self.degree, (self.depth, self.shape), self.word)
        self._hash = hash((gens, self.sort_key))

    @property
    def is_leaf(self) -> bool:
        return self.index is not None

    @property
    def multidegree(self) -> tuple:
        out = [0] * self.gens.size
        for i in self.word:
            out[i] += 1
        return tuple(out)

    def __mul__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        return self.gens.pair(self, other)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Monomial):
            return NotImplemented
        return self.gens == other.gens and self.sort_key == other.sort_key

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        if self.gens != other.gens:
            raise ContextMismatch("comparing monomials over different generators")
        return self.sort_key < other.sort_key

    def encode(self) -> str:
        if self.is_leaf:
            return self.gens.names[self.index]
        return f"({self.left.encode()} {self.right.encode()})"

    def __str__(self):
        return self.encode()

    def __repr__(self):
        return f"Monomial({self.encode()!r})"


@lru_cache(maxsize=None)
def enumerate_monomials(gens: GeneratorSet, degree: int) -> tuple:
    """All monomials of the given degree, in canonical order."""
    if degree < 1:
        return ()
    if degree == 1:
        return tuple(gens.generator(i) for i in range(gens.size))
    out = []
    for k in range(1, degree):
        for left in enumerate_monomials(gens, k):
            for right in enumerate_monomials(gens, degree - k):
                out.append(gens.pair(left, right))
    out.sort(key=lambda m: m.sort_key)
    return tuple(out)


@lru_cache(maxsize=None)
def monomials_of_multidegree(gens: GeneratorSet, mdeg: tuple) -> tuple:
    return tuple(
        m for m in enumerate_monomials(gens, sum(mdeg)) if m.multidegree == mdeg
    )


class Element:
    """A finite linear combination of monomials.

    Coefficients live in ``domain``: Scalars of a FieldSpec, or ParamPolys
    of a ParamContext (polynomials in unknowns, as in the image of a
    generic endomorphism).  The linear-combination code only uses the
    operations both coefficient types share.
    """

    __slots__ = ("gens", "domain", "terms")

    def __init__(self, gens: GeneratorSet, domain, terms: Mapping = ()):
        self.gens = gens
        self.domain = domain
        self.terms = {m: c for m, c in dict(terms).items() if not c.is_zero}

    # -- constructors

    @staticmethod
    def zero(gens, domain) -> "Element":
        return Element(gens, domain)

    @staticmethod
    def from_monomial(gens, field, m: Monomial, coeff=1) -> "Element":
        if not isinstance(coeff, Scalar):
            coeff = Scalar.from_fraction(field, coeff)
        return Element(gens, field, {m: coeff})

    @staticmethod
    def generator(gens, field, name: str) -> "Element":
        return Element.from_monomial(gens, field, gens.gen(name))

    @classmethod
    def parse(cls, text: str, gens, field) -> "Element":
        return parse_element(text, gens, field)

    # -- views

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, m: Monomial):
        c = self.terms.get(m)
        if c is not None:
            return c
        if isinstance(self.domain, ParamContext):
            return ParamPoly.zero(self.domain)
        return Scalar.zero(self.domain)

    def support(self) -> tuple:
        return tuple(sorted(self.terms, key=lambda m: m.sort_key))

    def max_degree(self) -> int:
        return max((m.degree for m in self.terms), default=0)

    def homogeneous_degree(self) -> Optional[int]:
        degs = {m.degree for m in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def split_multidegree(self) -> dict:
        out = {}
        for m, c in self.terms.items():
            out.setdefault(m.multidegree, {})[m] = c
        return {
            md: Element(self.gens, self.domain, t) for md, t in sorted(out.items())
        }

    # -- arithmetic

    def _check(self, other: "Element"):
        if self.gens != other.gens or self.domain != other.domain:
            raise ContextMismatch("elements live over different contexts")

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._check(other)
        return Element(self.gens, self.domain, _p_add(self.terms, other.terms))

    def __neg__(self):
        return Element(self.gens, self.domain, _p_neg(self.terms))

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check(other)
            out = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = self.gens.pair(m1, m2)
                    s = out.get(m)
                    s = c1 * c2 if s is None else s + c1 * c2
                    if s.is_zero:
                        out.pop(m, None)
                    else:
                        out[m] = s
            return Element(self.gens, self.domain, out)
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        return NotImplemented

    def scale(self, value) -> "Element":
        if isinstance(value, Scalar):
            if value.is_zero:
                return Element.zero(self.gens, self.domain)
            return Element(
                self.gens, self.domain, {m: c * value for m, c in self.terms.items()}
            )
        f = Fraction(value)
        if not f:
            return Element.zero(self.gens, self.domain)
        return Element(
            self.gens,
            self.domain,
            {m: c.scale_fraction(f) for m, c in self.terms.items()},
        )

    def truncate(self, bound: int) -> "Element":
        return Element(
            self.gens,
            self.domain,
            {m: c for m, c in self.terms.items() if m.degree <= bound},
        )

    def evaluate(self, assignment: Mapping[str, Scalar]) -> "Element":
        """Substitute Scalars for the unknowns of ParamPoly coefficients."""
        return Element(
            self.gens,
            self.domain.field,
            {m: p.evaluate(assignment) for m, p in self.terms.items()},
        )

    # -- identity and text form

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return (
            self.gens == other.gens
            and self.domain == other.domain
            and self.terms == other.terms
        )

    def encode(self) -> str:
        if not self.terms:
            return "0"
        return _format_terms([(m, self.terms[m]) for m in self.support()])

    def __str__(self):
        return self.encode()

    def __repr__(self):
        return f"Element({self.encode()!r})"


def _format_terms(pairs):
    parts = []
    for m, c in pairs:
        # ParamPoly coefficients print whole, each joined with " + "
        neg, cs = _signed_coeff(c) if isinstance(c, Scalar) else (False, c.encode())
        body = m.encode() if cs == "1" else f"{_wrap_coeff(cs)} * {m.encode()}"
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"{' - ' if neg else ' + '}{body}")
    return "".join(parts)


def _wrap_coeff(cs: str) -> str:
    depth = 0
    for ch in cs:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0:
            return f"({cs})"
    return cs


# -- element parsing


def _split_top_terms(text: str):
    """Split on top-level + and -, keeping signs; unary operators stay put."""
    terms = []
    depth = 0
    start = 0
    sign = 1
    prev = ""
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and prev not in ("", "*", "/", "^", "(", "+", "-"):
            terms.append((sign, text[start:i]))
            sign = 1 if ch == "+" else -1
            start = i + 1
        if not ch.isspace():
            prev = ch
    terms.append((sign, text[start:]))
    # a leading '-' on the first chunk
    first_sign, first = terms[0]
    stripped = first.lstrip()
    if stripped.startswith("-"):
        terms[0] = (-first_sign, stripped[1:])
    elif stripped.startswith("+"):
        terms[0] = (first_sign, stripped[1:])
    return terms


def parse_monomial(text: str, gens: GeneratorSet) -> Monomial:
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            toks.append(ch)
            i += 1
        else:
            m = _NAME_RE.match(text, i)
            if not m:
                raise ValueError(f"bad character {ch!r} in monomial")
            toks.append(m.group())
            i = m.end()

    def rec(pos):
        if pos >= len(toks):
            raise ValueError(f"truncated monomial in {text!r}")
        tok = toks[pos]
        if tok == "(":
            left, pos = rec(pos + 1)
            right, pos = rec(pos)
            if pos >= len(toks) or toks[pos] != ")":
                raise ValueError(f"expected ')' in monomial {text!r}")
            return gens.pair(left, right), pos + 1
        if tok == ")":
            raise ValueError(f"unexpected ')' in monomial {text!r}")
        return gens.gen(tok), pos + 1

    mono, pos = rec(0)
    if pos != len(toks):
        raise ValueError(f"trailing input in monomial {text!r}")
    return mono


def parse_element(text: str, gens: GeneratorSet, field: FieldSpec) -> Element:
    text = text.strip()
    if text == "0":
        return Element.zero(gens, field)
    total = Element.zero(gens, field)
    for sign, chunk in _split_top_terms(text):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"empty term in element {text!r}")
        depth = 0
        split_at = None
        for i, ch in enumerate(chunk):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "*" and depth == 0:
                split_at = i
        if split_at is None:
            coeff = Scalar.one(field)
            mono_text = chunk
        else:
            coeff = parse_scalar(chunk[:split_at], field)
            mono_text = chunk[split_at + 1 :]
        m = parse_monomial(mono_text, gens)
        total = total + Element.from_monomial(gens, field, m, coeff.scale_fraction(sign))
    return total


# ---------------------------------------------------------------------------
# Endomorphisms.


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
                    out = out.truncate(bound)
            else:
                out = self.image_of(m.left, bound) * self.image_of(m.right, bound)
                if bound is not None:
                    out = out.truncate(bound)
            self._memo[key] = out
        return out

    def apply(self, el: Element, bound: Optional[int] = None) -> Element:
        total = Element.zero(self.gens, self.domain)
        for m, c in el.terms.items():
            total = total + self.image_of(m, bound).scale(c)
        return total

    def specialize(self, assignment: Mapping[str, Scalar]) -> "Endomorphism":
        """The concrete endomorphism at values for every unknown."""
        return Endomorphism(
            self.gens,
            self.domain.field,
            [img.evaluate(assignment) for img in self.images],
        )


# The benchmark's tracer patches SymbolicEndomorphism.__dict__["apply"]; the
# alias keeps that name resolving to the one endomorphism class.
SymbolicEndomorphism = Endomorphism
