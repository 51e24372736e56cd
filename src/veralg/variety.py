"""Varieties of linear algebras and their truncated relatively-free algebras.

A variety is presented by identity schemes: elements of a free algebra on
slot variables y1, y2, ... with rational coefficients, each understood as a
law that must vanish under every substitution.  Building the truncated
relatively-free algebra on a generator set amounts to spanning the ideal
of consequences degree by degree and row-reducing each multihomogeneous
component; the surviving earliest monomials form the basis and every other
monomial gets a rewrite rule.

Identity schemes need not be multilinear: over a field of characteristic
zero every scheme is replaced by its full polarisation, which generates the
same ideal of consequences and makes monomial substitution exhaustive.
"""

from __future__ import annotations

import itertools
import re
from typing import Optional, Sequence

from .freealg import (
    Element,
    GeneratorSet,
    Monomial,
    enumerate_monomials,
    monomials_of_multidegree,
    parse_element,
)
from .scalars import FieldSpec, Scalar

__all__ = [
    "IdentityScheme",
    "RATIONALS",
    "RowReducer",
    "TruncatedAlgebra",
    "VarietyPresentation",
    "build_truncated",
    "builtin_variety",
    "builtin_variety_names",
    "polarize",
]

RATIONALS = FieldSpec(())  # the prime field: no transcendentals


class IdentityScheme:
    """A polynomial law on slot variables y1..y<arity>, required to vanish."""

    __slots__ = ("arity", "ygens", "element", "_key")

    def __init__(self, arity: int, element: Element):
        if element.is_zero:
            raise ValueError("the zero element is not a usable identity")
        self.arity = arity
        self.ygens = element.gens
        self.element = element
        self._key = (
            arity,
            tuple(
                (m.sort_key, element.terms[m].as_fraction())
                for m in element.support()
            ),
        )

    @staticmethod
    def from_string(text: str, arity: Optional[int] = None) -> "IdentityScheme":
        used = [int(s) for s in re.findall(r"\by(\d+)\b", text)]
        if arity is None:
            arity = max(used, default=0)
        if arity < 1:
            raise ValueError(f"no slot variables found in {text!r}")
        ygens = _slot_gens(arity)
        return IdentityScheme(arity, parse_element(text, ygens, RATIONALS))

    @property
    def is_multilinear(self) -> bool:
        target = (1,) * self.arity
        return all(m.multidegree == target for m in self.element.terms)

    def substitute(self, images: Sequence[Monomial], gens: GeneratorSet) -> dict:
        """The instance at a tuple of monomials, as {monomial: coefficient}."""
        if len(images) != self.arity:
            raise ValueError("one image per slot variable is required")
        out = {}
        for m, c in self.element.terms.items():
            g = _graft(m, images, gens)
            f = out.get(g, 0) + c.as_fraction()
            if f:
                out[g] = f
            else:
                out.pop(g, None)
        return out

    def key(self):
        return self._key

    def encode(self) -> str:
        return self.element.encode()

    def __eq__(self, other):
        if not isinstance(other, IdentityScheme):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"IdentityScheme({self.encode()!r})"


def _slot_gens(arity: int) -> GeneratorSet:
    return GeneratorSet(tuple(f"y{i + 1}" for i in range(arity)))


def _graft(m: Monomial, images: Sequence[Monomial], gens: GeneratorSet) -> Monomial:
    if m.is_leaf:
        return images[m.index]
    return gens.pair(_graft(m.left, images, gens), _graft(m.right, images, gens))


def _relabel(m: Monomial, labels: Sequence[int], gens: GeneratorSet) -> Monomial:
    pos = 0

    def rec(node):
        nonlocal pos
        if node.is_leaf:
            out = gens.generator(labels[pos])
            pos += 1
            return out
        left = rec(node.left)
        right = rec(node.right)
        return gens.pair(left, right)

    return rec(m)


def polarize(scheme: IdentityScheme) -> tuple:
    """Full char-0 polarisation: multilinear schemes with the same consequences.

    Each multihomogeneous component is linearised separately: a slot of
    degree d is spread over d fresh slots, summing over all d! assignments
    of its occurrences.
    """
    out = []
    for mdeg, comp in scheme.element.split_multidegree().items():
        total = sum(mdeg)
        ygens = _slot_gens(total)
        offsets = [0]
        for d in mdeg:
            offsets.append(offsets[-1] + d)
        active = [i for i, d in enumerate(mdeg) if d]
        acc = {}
        for m, c in comp.terms.items():
            cf = c.as_fraction()
            word = m.word
            positions = {
                i: [p for p, g in enumerate(word) if g == i] for i in active
            }
            for perms in itertools.product(
                *(itertools.permutations(range(mdeg[i])) for i in active)
            ):
                labels = [0] * len(word)
                for i, perm in zip(active, perms):
                    for j, p in enumerate(positions[i]):
                        labels[p] = offsets[i] + perm[j]
                g = _relabel(m, labels, ygens)
                f = acc.get(g, 0) + cf
                if f:
                    acc[g] = f
                else:
                    acc.pop(g, None)
        if not acc:
            continue
        element = Element(
            ygens,
            RATIONALS,
            {m: Scalar.from_fraction(RATIONALS, f) for m, f in acc.items()},
        )
        out.append(IdentityScheme(total, element))
    seen = set()
    unique = []
    for s in out:
        if s.key() not in seen:
            seen.add(s.key())
            unique.append(s)
    return tuple(unique)


class VarietyPresentation:
    """A named variety of linear algebras given by identity schemes."""

    __slots__ = ("name", "schemes", "power_family", "_key")

    def __init__(self, name: str, schemes: Sequence[IdentityScheme], power_family: bool = False):
        self.name = name
        self.schemes = tuple(schemes)
        # one-generated subalgebras are associative and commutative, so
        # every bracketing of a power collapses to the straight power
        self.power_family = power_family
        self._key = tuple(s.key() for s in self.schemes)

    def key(self):
        return self._key

    def multilinear(self) -> tuple:
        cached = _POLARIZE_MEMO.get(self._key)
        if cached is None:
            out = []
            seen = set()
            for s in self.schemes:
                for p in polarize(s):
                    if p.key() not in seen:
                        seen.add(p.key())
                        out.append(p)
            cached = tuple(out)
            _POLARIZE_MEMO[self._key] = cached
        return cached

    def __eq__(self, other):
        if not isinstance(other, VarietyPresentation):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"VarietyPresentation({self.name!r}, {len(self.schemes)} schemes)"


_POLARIZE_MEMO = {}


def _make_builtins():
    commutative = IdentityScheme.from_string("(y1 y2) - (y2 y1)")
    anticommutative = IdentityScheme.from_string("(y1 y2) + (y2 y1)")
    jacobi = IdentityScheme.from_string(
        "((y1 y2) y3) + ((y2 y3) y1) + ((y3 y1) y2)"
    )
    jordan = IdentityScheme.from_string(
        "(((y1 y1) y2) y1) - ((y1 y1) (y2 y1))"
    )
    left_alt = IdentityScheme.from_string("((y1 y1) y2) - (y1 (y1 y2))")
    right_alt = IdentityScheme.from_string("(y2 (y1 y1)) - ((y2 y1) y1)")
    third_power = IdentityScheme.from_string("(y1 (y1 y1)) - ((y1 y1) y1)")
    fourth_power = IdentityScheme.from_string(
        "((y1 y1) (y1 y1)) - ((y1 (y1 y1)) y1)"
    )
    return {
        "AllLinear": VarietyPresentation("AllLinear", ()),
        "Commutative": VarietyPresentation(
            "Commutative", (commutative,), power_family=True
        ),
        "Anticommutative": VarietyPresentation(
            "Anticommutative", (anticommutative,)
        ),
        "Lie": VarietyPresentation("Lie", (anticommutative, jacobi)),
        "Jordan": VarietyPresentation(
            "Jordan", (commutative, jordan), power_family=True
        ),
        "Alternative": VarietyPresentation(
            "Alternative", (left_alt, right_alt), power_family=True
        ),
        "PowerAssociative": VarietyPresentation(
            "PowerAssociative", (third_power, fourth_power), power_family=True
        ),
    }


_BUILTINS = _make_builtins()

_ALIASES = {
    "alllinear": "AllLinear",
    "all": "AllLinear",
    "linear": "AllLinear",
    "free": "AllLinear",
    "commutative": "Commutative",
    "anticommutative": "Anticommutative",
    "lie": "Lie",
    "jordan": "Jordan",
    "alternative": "Alternative",
    "powerassociative": "PowerAssociative",
    "powerassoc": "PowerAssociative",
}


def builtin_variety_names() -> tuple:
    return tuple(_BUILTINS)


def builtin_variety(name: str) -> VarietyPresentation:
    norm = re.sub(r"[-_\s]", "", name).lower()
    if norm not in _ALIASES:
        raise ValueError(
            f"unknown variety {name!r}; choose from {', '.join(_BUILTINS)}"
        )
    return _BUILTINS[_ALIASES[norm]]


# ---------------------------------------------------------------------------
# Row reduction.


class RowReducer:
    """Incremental reduced row echelon form over an exact coefficient type.

    Rows are sparse dicts {column: value}.  Each pivot sits on its row's
    largest column and is kept fully back-eliminated, so the non-pivot
    (earliest independent) columns are exactly the surviving basis and every
    pivot row reads as: pivot monomial = combination of basis monomials.
    """

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots = {}  # pivot column -> row dict, row[pivot] == 1

    def reduce(self, row: dict) -> dict:
        """The row modulo the span: every pivot column eliminated.

        Row values may be any exact type the pivot values multiply into:
        Fractions, Scalars, or ParamPolys with unknowns in them.
        """
        r = dict(row)
        out = {}
        while r:
            c = max(r)
            p = self.pivots.get(c)
            if p is None:
                out[c] = r.pop(c)
                continue
            coef = r.pop(c)
            for k, v in p.items():
                if k == c:
                    continue
                s = r.get(k, 0) - coef * v
                if not s:
                    r.pop(k, None)
                else:
                    r[k] = s
        return out

    def insert(self, row: dict) -> bool:
        """Reduce and add the row; False when it was already in the span."""
        r = self.reduce(row)
        if not r:
            return False
        c = max(r)
        inv = 1 / r[c]
        new = {k: v * inv for k, v in r.items()}
        for pr in self.pivots.values():
            coef = pr.get(c)
            if coef is None:
                continue
            del pr[c]
            for k, v in new.items():
                if k == c:
                    continue
                s = pr.get(k, 0) - coef * v
                if not s:
                    pr.pop(k, None)
                else:
                    pr[k] = s
        self.pivots[c] = new
        return True

    def contains(self, row: dict) -> bool:
        return not self.reduce(row)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def equals(self, other: "RowReducer") -> bool:
        return self.pivots == other.pivots


# ---------------------------------------------------------------------------
# Truncated relatively-free algebras.


def _multidegrees(size: int, degree: int) -> tuple:
    """All multidegrees with the given total, in descending lex order."""
    if size == 1:
        return ((degree,),)
    out = []
    for first in range(degree, -1, -1):
        for rest in _multidegrees(size - 1, degree - first):
            out.append((first,) + rest)
    return tuple(out)


def _compositions(parts: int, total: int):
    """All tuples of `parts` positive integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(parts - 1, total - first):
            yield (first,) + rest


class TruncatedAlgebra:
    """A relatively-free algebra truncated above a degree bound."""

    __slots__ = (
        "variety",
        "gens",
        "bound",
        "components",
        "rewrite",
        "_basis_index",
        "_sigma_memo",
        "_op2_memo",
    )

    def __init__(self, variety, gens, bound, components, rewrite):
        self.variety = variety
        self.gens = gens
        self.bound = bound
        self.components = components  # multidegree -> (monomials, basis)
        self.rewrite = rewrite  # pivot monomial -> ((basis monomial, coeff), ...)
        self._basis_index = None
        self._sigma_memo = {}
        self._op2_memo = {}

    def key(self):
        return (self.variety.key(), self.gens.names, self.bound)

    # -- basis views

    def multidegrees(self, degree: int) -> tuple:
        return tuple(
            md
            for md in _multidegrees(self.gens.size, degree)
            if md in self.components
        )

    def basis_of_multidegree(self, mdeg) -> tuple:
        comp = self.components.get(tuple(mdeg))
        return comp[1] if comp else ()

    def basis_of_degree(self, degree: int) -> tuple:
        out = []
        for md in self.multidegrees(degree):
            out.extend(self.components[md][1])
        out.sort(key=lambda m: m.sort_key)
        return tuple(out)

    def all_basis(self) -> tuple:
        out = []
        for d in range(1, self.bound + 1):
            out.extend(self.basis_of_degree(d))
        return tuple(out)

    def basis_index(self) -> dict:
        if self._basis_index is None:
            self._basis_index = {m: i for i, m in enumerate(self.all_basis())}
        return self._basis_index

    def dims(self) -> dict:
        return {
            d: len(self.basis_of_degree(d)) for d in range(1, self.bound + 1)
        }

    def dims_by_multidegree(self) -> dict:
        out = {}
        for d in range(1, self.bound + 1):
            for md in self.multidegrees(d):
                out[md] = len(self.components[md][1])
        return out

    def is_basis_monomial(self, m: Monomial) -> bool:
        return m.degree <= self.bound and m not in self.rewrite

    # -- normal forms

    def normal_form(self, el: Element) -> Element:
        acc = {}
        for m, c in el.terms.items():
            if m.degree > self.bound:
                continue
            rw = self.rewrite.get(m)
            if rw is None:
                s = acc.get(m)
                acc[m] = c if s is None else s + c
            else:
                for b, f in rw:
                    s = acc.get(b)
                    t = c.scale_fraction(f)
                    acc[b] = t if s is None else s + t
        return Element(el.gens, el.domain, acc)

    def multiply(self, u: Element, v: Element) -> Element:
        return self.normal_form((u * v).truncate(self.bound))

    def check_identity(self, scheme: IdentityScheme) -> bool:
        """Does the scheme vanish on this algebra (up to the truncation)?"""
        basis = self.all_basis()
        for s in polarize(scheme):
            slots = [
                [m for m in basis if m.degree <= self.bound - s.arity + 1]
            ] * s.arity
            for combo in itertools.product(*slots):
                if sum(m.degree for m in combo) > self.bound:
                    continue
                inst = s.substitute(combo, self.gens)
                el = Element(
                    self.gens,
                    RATIONALS,
                    {
                        m: Scalar.from_fraction(RATIONALS, f)
                        for m, f in inst.items()
                    },
                )
                if not self.normal_form(el).is_zero:
                    return False
        return True

    def __repr__(self):
        return (
            f"TruncatedAlgebra({self.variety.name}, "
            f"gens={self.gens.names}, bound={self.bound})"
        )


_BUILD_MEMO = {}


def build_truncated(
    variety: VarietyPresentation, gens: GeneratorSet, bound: int
) -> TruncatedAlgebra:
    """The truncated relatively-free algebra of a variety on given generators.

    The result is field-agnostic: rewrite coefficients are rational, and
    normal forms accept elements over any scalar field.  Builds are memoised
    on (variety laws, generator names, bound).
    """
    if bound < 1:
        raise ValueError("the degree bound must be at least 1")
    memo_key = (variety.key(), gens.names, bound)
    cached = _BUILD_MEMO.get(memo_key)
    if cached is not None:
        return cached

    schemes = variety.multilinear()
    rows = {}  # multidegree -> list of index rows
    mono_lists = {}
    index = {}
    for d in range(1, bound + 1):
        for md in _multidegrees(gens.size, d):
            ms = monomials_of_multidegree(gens, md)
            mono_lists[md] = ms
            index[md] = {m: i for i, m in enumerate(ms)}
            rows[md] = []

    for s in schemes:
        if s.arity > bound:
            continue
        for total in range(s.arity, bound + 1):
            for degs in _compositions(s.arity, total):
                pools = [enumerate_monomials(gens, d) for d in degs]
                for combo in itertools.product(*pools):
                    inst = s.substitute(combo, gens)
                    if not inst:
                        continue
                    md = next(iter(inst)).multidegree
                    idx = index[md]
                    rows[md].append({idx[m]: f for m, f in inst.items()})

    reducers = {}
    for d in range(1, bound + 1):
        for md in _multidegrees(gens.size, d):
            red = RowReducer()
            reducers[md] = red
            for row in rows[md]:
                red.insert(row)
            if d == bound or not red.pivots:
                continue
            monos = mono_lists[md]
            pivot_elements = [
                tuple((monos[k], v) for k, v in prow.items())
                for prow in red.pivots.values()
            ]
            for pel in pivot_elements:
                for k in range(1, bound - d + 1):
                    for u in enumerate_monomials(gens, k):
                        left = {}
                        right = {}
                        for m, v in pel:
                            left[gens.pair(u, m)] = v
                            right[gens.pair(m, u)] = v
                        for prod in (left, right):
                            pmd = next(iter(prod)).multidegree
                            idx = index[pmd]
                            rows[pmd].append({idx[m]: v for m, v in prod.items()})

    components = {}
    rewrite = {}
    for md, monos in mono_lists.items():
        red = reducers[md]
        basis = tuple(
            monos[i] for i in range(len(monos)) if i not in red.pivots
        )
        components[md] = (monos, basis)
        for c, prow in red.pivots.items():
            rewrite[monos[c]] = tuple(
                (monos[k], -v) for k, v in sorted(prow.items()) if k != c
            )

    out = TruncatedAlgebra(variety, gens, bound, components, rewrite)
    _BUILD_MEMO[memo_key] = out
    return out
