"""Free nonassociative algebras on a finite generator set.

Monomials are full binary trees with generator-labelled leaves, interned per
generator set.  Same-degree monomials are ordered by tree shape first --
shallower trees come earlier, ties broken by preorder serialisation -- and
then by the leaf word, left to right.  That ordering decides which monomials
survive as basis representatives after relations are imposed, so it is part
of the calculus, not a display choice.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import Mapping, Optional, Sequence

from .scalars import (
    FieldSpec,
    ParamContext,
    ParamPoly,
    Scalar,
    _END,
    _ExprParser,
    _Record,
    _check_names,
    _join_signed,
    _p_add,
    _p_neg,
    _signed_coeff,
    _tokenize,
)

__all__ = [
    "ContextMismatch",
    "Element",
    "GeneratorSet",
    "Monomial",
    "SymbolicEndomorphism",
    "enumerate_monomials",
    "parse_element",
    "parse_monomial",
]


class ContextMismatch(ValueError):
    """Raised when operands live over different generators or fields."""


# (names, "g", index) -> generator, (names, left, right) -> product.  A
# product is keyed by its interned children: a Monomial hashes by its cached
# _hash and a lookup compares the children by identity first, so no sort_key
# tuple is hashed or compared again.
_INTERN = {}


class GeneratorSet(_Record):
    """An ordered set of free generators."""

    __slots__ = ("names",)

    def _check(self):
        _check_names(self.names, "generator")

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not GeneratorSet:
            return NotImplemented
        return self.names == other.names

    def __hash__(self):
        # every Monomial.__init__ hashes its generator set
        return hash((self.names,))

    @staticmethod
    def default(count: int) -> "GeneratorSet":
        return GeneratorSet(tuple(f"x{i + 1}" for i in range(count)))

    @property
    def size(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        if name not in self.names:
            have = ", ".join(self.names) or "none"
            raise ValueError(f"unknown generator {name!r}; the generators are {have}")
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
        if (left.gens is not self and left.gens != self) or (
            right.gens is not self and right.gens != self
        ):
            raise ContextMismatch("monomial from a different generator set")
        key = (self.names, left, right)
        m = _INTERN.get(key)
        if m is None:
            m = Monomial(self, left=left, right=right)
            _INTERN[key] = m
        return m


class Monomial:
    """A nonassociative monomial: a binary product tree over generators.

    Obtain instances through :class:`GeneratorSet`; direct construction
    bypasses interning.  A monomial never changes, so ``encode`` keeps its
    text once computed, and a product's text joins its children's.
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
        "_text",
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
        self._text = None

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
        text = self._text
        if text is None:
            if self.is_leaf:
                text = self.gens.names[self.index]
            else:
                text = f"({self.left.encode()} {self.right.encode()})"
            self._text = text
        return text

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
            return Element(
                self.gens, self.domain, {m: c * other for m, c in self.terms.items()}
            )
        return NotImplemented

    __rmul__ = __mul__

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
        return _join_signed(_format_terms((m, self.terms[m]) for m in self.support()))

    def __str__(self):
        return self.encode()

    def __repr__(self):
        return f"Element({self.encode()!r})"


def _format_terms(pairs):
    """(negative, text) of each (monomial, coefficient) term of an element."""
    for m, c in pairs:
        # ParamPoly coefficients print whole, each joined with " + "
        neg, cs = _signed_coeff(c) if isinstance(c, Scalar) else (False, c.encode())
        yield neg, m.encode() if cs == "1" else f"{_wrap_coeff(cs)} * {m.encode()}"


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


# -- element parsing: the grammar is in scalars.py, next to _tokenize

_SIGNS = {("op", "+"): 1, ("op", "-"): -1}


def _monomial(toks, text: str, gens: GeneratorSet) -> Monomial:
    """The monomial that toks, a token list ended by _END, spells."""

    def at(pos):
        kind, val = toks[pos]
        if kind == "name":
            return gens.gen(val), pos + 1
        if val != "(":
            raise ValueError(f"expected a generator or '(' in monomial {text!r}")
        left, pos = at(pos + 1)
        right, pos = at(pos)
        if toks[pos] != ("op", ")"):
            raise ValueError(f"expected ')' in monomial {text!r}")
        return gens.pair(left, right), pos + 1

    mono, pos = at(0)
    if toks[pos] != _END:
        raise ValueError(f"trailing input in monomial {text!r}")
    return mono


def parse_monomial(text: str, gens: GeneratorSet) -> Monomial:
    return _monomial(_tokenize(text), text, gens)


def parse_element(text: str, gens: GeneratorSet, field: FieldSpec) -> Element:
    toks = _tokenize(text)
    total = Element.zero(gens, field)
    if toks == [("int", "0"), _END]:
        return total
    sign, start = 1, 0
    if toks[0] in _SIGNS:
        sign, start = _SIGNS[toks[0]], 1
    # one scan: a term ends at a top-level + or - that follows a name, an
    # integer or ')', and its coefficient is all before its last top-level *
    depth, star = 0, None
    for i in range(start, len(toks)):
        tok = toks[i]
        if tok == ("op", "("):
            depth += 1
        elif tok == ("op", ")"):
            depth -= 1
        elif tok == ("op", "*") and depth == 0:
            star = i
        elif tok == _END or (
            tok in _SIGNS
            and depth == 0
            and (toks[i - 1][0] != "op" or toks[i - 1] == ("op", ")"))
        ):
            if i == start:
                raise ValueError(f"empty term in element {text!r}")
            if star is None:
                coeff = Scalar.one(field)
            else:
                coeff = _ExprParser(toks[start:star] + [_END], field).parse()
                start = star + 1
            m = _monomial(toks[start:i] + [_END], text, gens)
            total = total + Element.from_monomial(gens, field, m, coeff * sign)
            sign, start, star = _SIGNS.get(tok), i + 1, None
    return total


# ---------------------------------------------------------------------------
# The generic endomorphism.


class SymbolicEndomorphism:
    """The generic degree-preserving endomorphism x_i |-> sum_j a_ji x_j.

    ``ctx`` names the unknowns ``a<j><i>`` (row j: target generator, column
    i: source generator) row-major, followed by ``extra``.  The map is never
    applied symbolically: nf(alpha(m)) of a word m is a rational table
    (:meth:`_table`), kept per instance in ``_tables``, and :meth:`apply`
    combines the tables of an element's words.  Normal forms come from
    ``alg.word_form`` and ``alg.product_form``.
    """

    __slots__ = ("alg", "ctx", "_tables")

    def __init__(self, alg, field: FieldSpec, extra: Sequence[str] = ()):
        n = alg.gens.size
        names = tuple(f"a{j + 1}{i + 1}" for j in range(n) for i in range(n))
        self.alg = alg
        self.ctx = ParamContext(field, names + tuple(extra))
        self._tables = {}  # word -> table

    def _table(self, m: Monomial) -> dict:
        """nf(alpha(m)), its unknowns kept symbolic.

        An {exponent tuple: {basis monomial: int or Fraction}} dict: the tuple
        counts the unknowns a_ji at index j*n + i, their order in ``ctx``.  A
        leaf x_i gives sum over j of a_ji nf(x_j); a product (l r) gives
        nf(alpha(l) alpha(r)), which is the normal form of the product of the
        two child tables because the identities form an ideal.  Words above
        the truncation have an empty table.  The tables do not depend on the
        field, so one instance serves every element of a job.
        """
        hit = self._tables.get(m)
        if hit is not None:
            return hit
        alg = self.alg
        out = {}
        if m.degree > alg.bound:
            pass  # above the truncation: the empty table
        elif m.is_leaf:
            n = alg.gens.size
            for j in range(n):
                form = alg.word_form(alg.gens.generator(j))
                if form:
                    e = [0] * (n * n)
                    e[j * n + m.index] = 1
                    out[tuple(e)] = form
        else:
            # exponent -> the pairs of child forms whose exponents add up to it
            factors = {}
            right = self._table(m.right).items()
            for e1, p in self._table(m.left).items():
                for e2, q in right:
                    factors.setdefault(tuple(map(add, e1, e2)), []).append((p, q))
            for e, pairs in factors.items():
                form = alg.product_form(pairs)
                if form:
                    out[e] = form
        self._tables[m] = out
        return out

    def apply(self, el: Element) -> Element:
        """nf(alpha(el)) over ``ctx``.

        Each word's table is scaled by the word's coefficient once per term,
        and the terms are summed into one Scalar per basis monomial and
        exponent; the extra unknowns get exponent 0.
        """
        alg, ctx = self.alg, self.ctx
        if el.gens != alg.gens or el.domain != ctx.field:
            raise ContextMismatch("element lives over a different context")
        acc = {}
        for m, c in el.terms.items():
            for e, form in self._table(m).items():
                for b, q in form.items():
                    target = acc.setdefault(b, {})
                    t = c * q
                    s = target.get(e)
                    target[e] = t if s is None else s + t
        pad = (0,) * (ctx.size - alg.gens.size ** 2)
        return Element(
            alg.gens,
            ctx,
            {
                b: ParamPoly(ctx, {e + pad: s for e, s in poly.items()})
                for b, poly in acc.items()
            },
        )
