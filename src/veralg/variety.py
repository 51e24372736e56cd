"""Varieties of linear algebras and their truncated relatively-free algebras.

A variety is presented by identity schemes: elements of a free algebra on
slot variables y1, y2, ... with rational coefficients, each understood as a
law that must vanish under every substitution.  Building the truncated
relatively-free algebra on a generator set amounts to spanning the ideal
of consequences degree by degree and row-reducing each multihomogeneous
component; the surviving earliest monomials form the basis and every other
monomial gets a rewrite rule.

Each degree is built from the one below it.  Only the products (b b') of
basis monomials already built can reach the basis: a monomial (l r) is
congruent to phi((l r)) = nf(l) nf(r), a combination of such products.  So
the columns of a component are those products (the pair space), and its
rows are phi of the identity instances at tuples of basis monomials.  The
reduced rows give the basis and the rewrite rule of every other product;
the normal form of any other monomial (l r) is computed when it is asked
for, as the reduced product of nf(l) and nf(r).

Identity schemes need not be multilinear: over a field of characteristic
zero every scheme is replaced by its full polarisation, which generates the
same ideal of consequences and makes monomial substitution exhaustive.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import gcd, lcm
from operator import sub
from typing import Optional, Sequence

from .freealg import Element, GeneratorSet, Monomial, parse_element
from .scalars import FieldSpec, Scalar, _div, _exact

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
    "slot_symmetries",
]

RATIONALS = FieldSpec(())  # the prime field: no transcendentals


class IdentityScheme:
    """A polynomial law on slot variables y1..y<arity>, required to vanish."""

    __slots__ = ("arity", "ygens", "element", "_terms", "_key")

    def __init__(self, arity: int, element: Element):
        if element.is_zero:
            raise ValueError("the zero element is not a usable identity")
        self.arity = arity
        self.ygens = element.gens
        self.element = element
        self._terms = tuple((m, c.as_fraction()) for m, c in element.terms.items())
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

    def substitute(self, images: Sequence[Monomial], gens: GeneratorSet) -> dict:
        """The instance at a tuple of monomials, as {monomial: coefficient}."""
        if len(images) != self.arity:
            raise ValueError("one image per slot variable is required")
        return _substitute(self._terms, images, gens)

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


def _substitute(terms, images: Sequence[Monomial], gens: GeneratorSet) -> dict:
    """The sum of c * m(images) over pairs (m, c), c rational or a Scalar."""
    out = {}
    for m, c in terms:
        g = _graft(m, images, gens)
        s = out.get(g)
        f = c if s is None else s + c
        if f:
            out[g] = f
        else:
            out.pop(g, None)
    return out


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


def slot_symmetries(scheme: IdentityScheme) -> tuple:
    """The slot permutations that fix a scheme up to sign, identity first.

    A permutation p fixes the scheme when putting y<p[i]+1> in slot i, for
    every i, maps the law to plus or minus itself; then the instance at
    fillers f is plus or minus the instance at (f[p[0]], f[p[1]], ...).
    They form a group, listed in lexicographic order.  Memoised per scheme.
    """
    return _slot_plan(scheme)[1]


def _slot_plan(scheme: IdentityScheme) -> tuple:
    """(terms, symmetries, signs, steps, extra) of a multilinear scheme, memoised.

    ``terms`` are the scheme's (slot trees of the two factors, coefficient)
    pairs, ``symmetries`` its slot symmetries and ``signs[i]`` the sign,
    1 or -1, that ``symmetries[i]`` maps the law to.  The transpositions
    among these join the slots into blocks, and they generate the full
    symmetric group of each block (a polarised scheme's blocks hold at least
    the slots of one variable it was polarised in); the transpositions of
    one block are conjugate, so they share one sign.  The other symmetries
    are found by trying one permutation per coset of that subgroup, the one
    that increases on every block.  A filler tuple is the least of its
    orbit exactly when it increases weakly along each pair of ``steps``
    (neighbouring slots of one block) and no permutation in ``extra`` (the
    symmetries that move a slot out of its block) makes it smaller.
    """
    key = scheme.key()
    plan = _SLOT_MEMO.get(key)
    if plan is not None:
        return plan
    n = scheme.arity
    own = {(m.shape, m.word): c for m, c in scheme._terms}
    neg = {k: -c for k, c in own.items()}

    def sign(perm) -> int:
        """1 or -1 when perm maps the law to that multiple of itself, else 0."""
        image = {
            (shape, tuple(perm[i] for i in word)): c
            for (shape, word), c in own.items()
        }
        return 1 if image == own else -1 if image == neg else 0

    block = list(range(n))  # slot -> the least slot of its block
    block_sign = [1] * n  # least slot of a block -> the sign of its transpositions
    for i, j in itertools.combinations(range(n), 2):
        perm = list(range(n))
        perm[i], perm[j] = j, i
        if block[i] != block[j] and (s := sign(perm)):
            old, new = sorted((block[i], block[j]))
            block = [old if b == new else b for b in block]
            block_sign[old] = s
    blocks = [[i for i in range(n) if block[i] == b] for b in sorted(set(block))]
    steps = tuple(pair for b in blocks for pair in zip(b, b[1:]))
    within = []  # (a permutation of slots inside their blocks, its sign)
    for parts in itertools.product(*(itertools.permutations(b) for b in blocks)):
        h = list(range(n))
        s = 1
        for b, part in zip(blocks, parts):
            for i, v in zip(b, part):
                h[i] = v
            if block_sign[b[0]] < 0:
                s *= (-1) ** sum(x > y for x, y in itertools.combinations(part, 2))
        within.append((h, s))
    symmetries = []
    extra = []
    for c in itertools.permutations(range(n)):
        if any(c[i] > c[j] for i, j in steps):
            continue
        inside = all(block[v] == block[i] for i, v in enumerate(c))
        s = 1 if inside else sign(c)
        if s:
            coset = [(tuple(c[i] for i in h), s * t) for h, t in within]
            symmetries.extend(coset)
            if not inside:
                extra.extend(p for p, _ in coset)
    symmetries.sort()
    terms = tuple((_tree(m), f) for m, f in scheme._terms)
    plan = _SLOT_MEMO[key] = (
        terms,
        tuple(p for p, _ in symmetries),
        tuple(s for _, s in symmetries),
        steps,
        tuple(extra),
    )
    return plan


_SLOT_MEMO = {}


class VarietyPresentation:
    """A named variety of linear algebras given by identity schemes."""

    __slots__ = ("name", "schemes", "power_family", "_key")

    def __init__(self, name: str, schemes: Sequence[IdentityScheme], power_family: bool = False):
        self.name = name
        self.schemes = tuple(schemes)
        # one-generated subalgebras are commutative, so on them the changed
        # product a(uv) + b(vu) is (a + b)(uv)
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

    Rational rows are eliminated fraction-free (Bareiss, Math. Comp. 1968).
    A row of ints and Fractions is cleared to ints over one denominator, and
    a stored rational row is primitive (its entries have gcd 1) with a
    positive pivot entry d: it stands for itself divided by d.  A row r
    whose entry at the pivot column of a stored row p is c becomes
    (d/g) r - (c/g) p, with g = gcd(c, d), and each row that back-elimination
    changes is made primitive again, so no Fraction is formed inside the
    class.  ``pivots`` and ``reduce`` divide on the way out, giving an int
    where the value is integral and a Fraction only where it is not.  A row
    with any other value (a Scalar or a ParamPoly) is divided by its pivot
    entry when it is stored: it is the d = 1 case of the same step, and its
    values never reach ``gcd``.
    """

    __slots__ = ("_rows",)

    def __init__(self):
        self._rows = {}  # pivot column -> stored row, d at the pivot column

    @property
    def pivots(self) -> dict:
        """{pivot column: its row divided by the pivot entry}, as new dicts."""
        out = {}
        for c, row in self._rows.items():
            d = row[c]
            if type(d) is int and d != 1:  # a primitive int row
                out[c] = {k: _div(v, d) for k, v in row.items()}
            else:
                out[c] = {k: _exact(v) for k, v in row.items()}
        return out

    def _reduce(self, row: dict) -> tuple:
        """(r, den): the row modulo the span is r / den, for an int den."""
        r, den = _cleared(row)
        out = {}
        rows = self._rows
        while r:
            c = max(r)
            e = r.pop(c)
            p = rows.get(c)
            if p is None:
                out[c] = e
                continue
            a = _eliminate(r, p, c, e)
            if a != 1:
                den *= a
                for k in out:
                    out[k] *= a
        return out, den

    def reduce(self, row: dict) -> dict:
        """The row modulo the span: every pivot column eliminated.

        Row values may be any exact type the pivot values multiply into:
        ints and Fractions, Scalars, or ParamPolys with unknowns in them.
        """
        r, den = self._reduce(row)
        if den == 1:
            return {k: _exact(v) for k, v in r.items()}
        return {k: _over(v, den) for k, v in r.items()}

    def insert(self, row: dict) -> bool:
        """Reduce and add the row; False when it was already in the span."""
        r = self._reduce(row)[0]
        if not r:
            return False
        c = max(r)
        new = _stored(r, c)
        rows = self._rows
        for cp, pr in rows.items():
            e = pr.pop(c, None)
            if e is None:
                continue
            a = _eliminate(pr, new, c, e)
            # a row with an int pivot entry is made primitive again, or is
            # divided by that entry if it took a Scalar; a Scalar pivot
            # entry stays one unless the row was scaled
            if a != 1 or type(pr[cp]) is int:
                rows[cp] = _stored(pr, cp)
        rows[c] = new
        return True

    def contains(self, row: dict) -> bool:
        return not self._reduce(row)[0]

    @property
    def rank(self) -> int:
        return len(self._rows)


def _cleared(row: dict) -> tuple:
    """(ints, den) with row = ints / den for a row of ints and Fractions;
    a row with any other value as a copy, over 1."""
    den = 1
    ints = True
    for v in row.values():
        if type(v) is not int:
            if type(v) is not Fraction:
                return dict(row), 1
            ints = False
            den = lcm(den, v.denominator)
    if ints:
        return dict(row), 1
    return {
        k: v * den if type(v) is int else v.numerator * (den // v.denominator)
        for k, v in row.items()
    }, den


def _over(v, d: int):
    """v / d for an int d > 0: an int where integral, else a Fraction, or a
    Scalar or ParamPoly scaled by 1/d."""
    return _div(v, d) if type(v) is int else _exact(v * Fraction(1, d))


def _eliminate(r: dict, p: dict, c, e) -> int:
    """Cancel the entry e, popped from r, at the pivot column c of p.

    r becomes a r - b p: with p's pivot entry d an int other than 1 and e an
    int, a = d/g and b = e/g for g = gcd(e, d); otherwise a = 1 and b = e/d
    (b = e when p was divided by its pivot entry).  Returns a.
    """
    d = p[c]
    if type(d) is not int or d == 1:
        a, b = 1, e
    elif type(e) is int:
        g = gcd(e, d)
        a, b = d // g, e // g
        if a != 1:
            for k in r:
                r[k] *= a
    else:
        a, b = 1, _over(e, d)
    for k, v in p.items():
        if k == c:
            continue
        s = r.get(k, 0) - b * v
        if s:
            r[k] = s
        else:
            r.pop(k, None)
    return a


def _stored(row: dict, c) -> dict:
    """The row as it is kept, pivot at c: primitive ints with a positive
    pivot entry, or any other row divided by its pivot entry."""
    x = row[c]
    if x == 1:
        return row
    values = row.values()
    if all(type(v) is int for v in values):
        g = gcd(*values)
        if x < 0:
            g = -g
        return row if g == 1 else {k: v // g for k, v in row.items()}
    inv = _div(1, x)
    return {k: _exact(v * inv) for k, v in row.items()}


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
    """A relatively-free algebra truncated above a degree bound.

    ``components`` maps each built multidegree to (its pair monomials, its
    basis): in degree 1 the generators, above it the products (b b') of
    basis monomials b, b' of lower degree, both in canonical order.
    ``rewrite`` maps each pair monomial outside the basis to its normal
    form, ((basis monomial, coefficient), ...) in canonical order with
    rational coefficients.  That is all a product of two basis monomials
    needs.  The normal form of any other monomial of a built multidegree is
    computed on demand by :meth:`word_form`; a monomial of a multidegree
    that was not built is its own normal form.  Only :meth:`word_form`,
    :meth:`product_form` and the build read ``rewrite``.
    """

    __slots__ = (
        "variety",
        "gens",
        "bound",
        "components",
        "rewrite",
        "_basis_index",
        "_word_forms",
        "_sigma_memo",
    )

    def __init__(self, variety, gens, bound, components, rewrite):
        self.variety = variety
        self.gens = gens
        self.bound = bound
        self.components = components  # multidegree -> (pair monomials, basis)
        self.rewrite = rewrite  # pivot pair monomial -> ((basis monomial, coeff), ...)
        self._basis_index = None
        self._word_forms = {}  # monomial -> its normal form, once asked for
        # monomial, or a law of the free algebra -> its rational sigma parts
        self._sigma_memo = {}

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

    # -- normal forms

    def normal_form(self, el: Element) -> Element:
        basis = self.basis_index()
        acc = {}
        for m, c in el.terms.items():
            if m in basis:
                s = acc.get(m)
                acc[m] = c if s is None else s + c
            elif m.degree <= self.bound:
                for b, f in self.word_form(m).items():
                    s = acc.get(b)
                    t = c * f
                    acc[b] = t if s is None else s + t
        return Element(el.gens, el.domain, acc)

    def word_form(self, m: Monomial) -> dict:
        """nf(m) as {basis monomial: rational} in canonical order.

        m is within the bound.  A monomial in ``rewrite`` has its row, and a
        generator that is not is a basis monomial, its own form.  Any other
        word (l r) of a built multidegree has the product form of nf(l) and
        nf(r), which is (l r) itself for a basis monomial, as l and r are
        basis monomials; a word of a multidegree that was not built is left
        as it is.  Forms are memoised in ``_word_forms`` and shared, so a
        caller must not change one.
        """
        form = self._word_forms.get(m)
        if form is None:
            rw = self.rewrite.get(m)
            if rw is not None:
                form = dict(rw)
            elif m.is_leaf or m.multidegree not in self.components:
                form = {m: _ONE}
            else:
                pair = (self.word_form(m.left), self.word_form(m.right))
                acc = self.product_form((pair,))
                form = {b: acc[b] for b in sorted(acc, key=lambda b: b.sort_key)}
            self._word_forms[m] = form
        return form

    def product_form(self, factors) -> dict:
        """The normal form of the sum of p q over the pairs (p, q) of factors.

        p and q are normal forms, {basis monomial: value}, whose degrees add
        up to at most the bound, and so is the result, with zero values
        dropped and integral ones ints.  The values are rational (sigma's
        parts, the alpha tables) or Scalars (the span of an ideal).  The
        product of two basis monomials is a pair monomial, so its normal
        form is itself or its rewrite row.  The sum is formed first and made
        exact once.
        """
        pair = self.gens.pair
        acc = {}
        for p, q in factors:
            for u, x in p.items():
                for v, y in q.items():
                    c = x * y
                    w = pair(u, v)
                    rw = self.rewrite.get(w)
                    # a sum starts at its first term, not at 0, so that a
                    # Scalar is not coerced from 0 once per monomial
                    if rw is None:
                        s = acc.get(w)
                        acc[w] = c if s is None else s + c
                    else:
                        for b, f in rw:
                            s = acc.get(b)
                            t = c * f
                            acc[b] = t if s is None else s + t
        return {b: _exact(c) for b, c in acc.items() if c}

    def failing_tuple(self, law: Element) -> Optional[tuple]:
        """The first tuple of basis monomials at which a multilinear law fails.

        The law is an element on slot generators, one per argument, with
        coefficients in any field.  Tuples are tried by total degree, then
        by the degrees of their entries, then in basis order; each is
        substituted into the law and reduced to normal form.  None when the
        law vanishes on every tuple up to the bound.
        """
        arity = law.gens.size
        pools = {d: self.basis_of_degree(d) for d in range(1, self.bound + 1)}
        for total in range(arity, self.bound + 1):
            for degs in _compositions(arity, total):
                for combo in itertools.product(*(pools[d] for d in degs)):
                    inst = _substitute(law.terms.items(), combo, self.gens)
                    value = self.normal_form(Element(self.gens, law.domain, inst))
                    if not value.is_zero:
                        return combo
        return None

    def __repr__(self):
        return (
            f"TruncatedAlgebra({self.variety.name}, "
            f"gens={self.gens.names}, bound={self.bound})"
        )


_BUILD_MEMO = {}
_ONE = 1


class _Products(dict):
    """(number of nf(l), number of nf(r)) -> the number of nf((l r)).

    Normal forms below the bound are numbered.  ``forms[n]`` is the form of
    number n, ((number of a basis monomial, coefficient), ...): a basis
    monomial has its own number, and any other form gets one when it first
    appears (``numbered``).  The build enters the product of every two
    basis numbers as it numbers a degree; the product of any other two
    forms is multiplied out over those entries when it is first asked for.
    """

    __slots__ = ("forms", "numbered")

    def __init__(self):
        super().__init__()
        self.forms = []
        self.numbered = {}  # form of no basis monomial -> its number

    def basis_number(self) -> int:
        n = len(self.forms)
        self.forms.append(((n, _ONE),))
        return n

    def number(self, form: tuple) -> int:
        n = self.numbered.get(form)
        if n is None:
            n = self.numbered[form] = len(self.forms)
            self.forms.append(form)
        return n

    def __missing__(self, key):
        forms = self.forms
        acc = {}
        for bi, x in forms[key[0]]:
            for bj, y in forms[key[1]]:
                xy = x * y
                for b, z in forms[self[bi, bj]]:
                    acc[b] = acc.get(b, 0) + xy * z
        n = self[key] = self.number(
            tuple((b, _exact(acc[b])) for b in sorted(acc) if acc[b])
        )
        return n


def _tree(m: Monomial):
    """A slot monomial as nested pairs with slot indices at the leaves."""
    return m.index if m.is_leaf else (_tree(m.left), _tree(m.right))


def _number(tree, leaves: Sequence[int], prod: dict) -> int:
    """The number of the normal form of a slot tree at numbered fillers."""
    if type(tree) is int:
        return leaves[tree]
    return prod[_number(tree[0], leaves, prod), _number(tree[1], leaves, prod)]


def _instance(terms, leaves: Sequence[int], prod: dict) -> dict:
    """A multilinear scheme's instance at numbered fillers, on form numbers.

    ``terms`` are the scheme's (slot tree, coefficient) pairs, each tree a
    product, and ``leaves`` the numbers of the fillers' normal forms.  The
    result maps (number of nf(l), number of nf(r)) to the summed
    coefficient of the terms that give (l r).
    """
    out = {}
    for (left, right), f in terms:
        key = (_number(left, leaves, prod), _number(right, leaves, prod))
        v = out.get(key)
        out[key] = f if v is None else v + f
    return out


def _pairs(gens: GeneratorSet, md: tuple, components: dict, form_of: dict) -> list:
    """The products (b b') of built basis monomials in multidegree md.

    Each as (monomial, (number of b, number of b')), in canonical order.
    """
    degree = sum(md)
    pair = gens.pair
    out = []
    for lmd in itertools.product(*(range(e + 1) for e in md)):
        if not 0 < sum(lmd) < degree:
            continue
        right = components.get(tuple(map(sub, md, lmd)))
        left = components.get(lmd)
        if left is None or right is None:
            continue
        right = [(v, form_of[v]) for v in right[1]]
        for u in left[1]:
            i = form_of[u]
            out.extend((pair(u, v), (i, j)) for v, j in right)
    out.sort(key=lambda t: t[0].sort_key)
    return out


def build_truncated(
    variety: VarietyPresentation,
    gens: GeneratorSet,
    bound: int,
    *,
    multilinear: bool = False,
) -> TruncatedAlgebra:
    """The truncated relatively-free algebra of a variety on given generators.

    The result is field-agnostic: rewrite coefficients are rational (an int
    where integral, else a Fraction), and normal forms accept elements over
    any scalar field.  Builds are memoised on (variety laws, generator
    names, bound, mode).

    Every multidegree up to the bound is built, or with ``multilinear=True``
    only those whose entries are all at most 1.  Degrees are built in
    increasing order.  The columns of a multidegree of degree d > 1 are its
    pair space P: the products (b b') of basis monomials b, b' already
    built, in canonical order (in degree 1, the generator).  No other
    monomial of degree d is formed.  A monomial c = (l r) maps to
    phi(c) = nf(l) nf(r), expanded over P; phi fixes P and c - phi(c) lies
    in the ideal, so phi is a projection onto P whose kernel lies in the
    ideal I, and I meets P in phi(I).  The ideal component is spanned by
    the identity instances at tuples of monomials and by the products with
    the ideal in lower degrees, and modulo the kernel of phi an instance at
    any fillers is a combination of instances at basis fillers, since the
    schemes are multilinear.  So the rows of a multidegree are phi of every
    identity instance at a tuple of basis fillers whose multidegrees add up
    to it (a tuple is skipped before it is substituted when that
    multidegree is not built), and their reduced row echelon form over P
    gives the basis, the earliest independent pair columns, and the
    rewrite row of every other pair monomial.  ``components[md]`` is
    (pair monomials, basis), and ``rewrite`` holds the pivot pair rows.
    The normal form of any other monomial is computed on demand by
    :meth:`TruncatedAlgebra.normal_form`.  Every basis monomial is a product
    of basis monomials.  Row reduction over every monomial gives the same
    basis exactly when its own basis has that property (as it has for every
    built-in variety on 1, 2 and 3 generators up to degrees 8, 6 and 5);
    otherwise the basis here is another basis of the same algebra.

    Identity instances are computed on the numbers of normal forms (see
    ``_Products``), and no monomial is built for them.  The table ``prod``
    maps the numbers of nf(l) and nf(r) to the number of nf((l r)); the
    products of basis numbers are entered from the pair columns of each
    degree below the bound, and any other product is multiplied out over
    them when an instance first needs it.  At a tuple of fillers, a slot of
    a scheme term maps to its filler's number, an inner node to ``prod`` of
    its factors' numbers, and the top node to the pair of numbers that phi
    takes; coefficients are summed per pair.  A scheme's instances are
    computed once per orbit of its slot symmetries (``slot_symmetries``):
    a permutation that maps the law to plus or minus itself maps the
    instance at fillers f to plus or minus the instance at f permuted, so
    of the tuples in one orbit only the least (by basis numbers) is
    computed, and the span is the same.  When a symmetry of sign -1 fixes
    that tuple, the instance there equals its own negative, so it is zero
    and is not computed either.  Two numbers can name one form (a
    basis monomial, and a pair monomial that rewrites to it alone), but phi
    reads only the forms, so either number gives the same row.  A law of
    arity 1 acts in degree 1 only, where its instances are substituted as
    monomials.
    """
    if bound < 1:
        raise ValueError("the degree bound must be at least 1")
    memo_key = (variety.key(), gens.names, bound, multilinear)
    cached = _BUILD_MEMO.get(memo_key)
    if cached is not None:
        return cached

    schemes = variety.multilinear()
    components = {}
    rewrite = {}
    numbers = {}  # degree -> the numbers of its basis monomials, canonical order
    mdeg_of = {}  # number of a basis monomial -> its multidegree
    form_of = {}  # basis monomial below the bound -> its number
    prod = _Products()
    forms = prod.forms
    for d in range(1, bound + 1):
        mss = {}  # built multidegree -> its pair monomials
        keys = {}  # built multidegree -> the basis numbers of their factors
        pair_col = {}  # pair of basis numbers -> column of their product
        for md in _multidegrees(gens.size, d):
            if multilinear and max(md) > 1:
                continue
            if d == 1:
                mss[md] = (gens.generator(md.index(1)),)
                continue
            pairs = _pairs(gens, md, components, form_of)
            mss[md] = tuple(m for m, _ in pairs)
            keys[md] = [key for _, key in pairs]
            for c, key in enumerate(keys[md]):
                pair_col[key] = c

        def phi(terms):
            """phi of the sum of f (l r) over ((nf(l), nf(r)) numbers, f)."""
            acc = {}
            for (i, j), f in terms:
                for bi, x in forms[i]:
                    fx = f * x
                    for bj, y in forms[j]:
                        v = fx if y is _ONE else fx * y
                        k = pair_col[bi, bj]
                        s = acc.get(k)
                        acc[k] = v if s is None else s + v
            return {k: v for k, v in acc.items() if v}

        reducers = {md: RowReducer() for md in mss}
        for s in schemes:
            if s.arity > d or (s.arity == 1 and d > 1):
                continue
            if d == 1:
                # a law of arity 1 kills degree 1, and with it every product
                for md, fillers in mss.items():
                    inst = s.substitute(fillers, gens)
                    reducers[md].insert({0: f for f in inst.values()})
                continue
            terms, group, signs, steps, extra = _slot_plan(s)
            odd = [p for p, sign in zip(group, signs) if sign < 0]
            for degs in _compositions(s.arity, d):
                if any(degs[i] > degs[j] for i, j in steps):
                    continue  # numbers grow with degree: no tuple here is least
                for leaves in itertools.product(*(numbers[k] for k in degs)):
                    # one instance per orbit of the slot symmetries: the least,
                    # unless a symmetry of sign -1 fixes it and it is zero
                    if (
                        any(leaves[i] > leaves[j] for i, j in steps)
                        or any(tuple(leaves[i] for i in p) < leaves for p in extra)
                        or any(tuple(leaves[i] for i in p) == leaves for p in odd)
                    ):
                        continue
                    md = tuple(map(sum, zip(*(mdeg_of[n] for n in leaves))))
                    red = reducers.get(md)
                    if red is not None:
                        red.insert(phi(_instance(terms, leaves, prod).items()))

        degree_basis = []
        for md, ms in mss.items():
            pivots = reducers.pop(md).pivots  # freed once its rows are read
            basis = tuple(m for c, m in enumerate(ms) if c not in pivots)
            components[md] = (ms, basis)
            degree_basis.extend(basis)
            for c, prow in pivots.items():
                rewrite[ms[c]] = tuple(
                    (ms[k], -v) for k, v in sorted(prow.items()) if k != c
                )
            if d < bound:
                for b in basis:
                    form_of[b] = n = prod.basis_number()
                    mdeg_of[n] = md
                for key, m in zip(keys.get(md, ()), ms):
                    rw = rewrite.get(m)
                    prod[key] = (
                        form_of[m]
                        if rw is None
                        else prod.number(tuple((form_of[b], f) for b, f in rw))
                    )
        if d < bound:
            degree_basis.sort(key=lambda m: m.sort_key)
            numbers[d] = tuple(form_of[b] for b in degree_basis)

    out = TruncatedAlgebra(variety, gens, bound, components, rewrite)
    _BUILD_MEMO[memo_key] = out
    return out
