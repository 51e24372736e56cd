"""Exact scalar arithmetic over rational-function fields.

A :class:`Scalar` is an element of Q(t_1, ..., t_m): a quotient of
multivariate polynomials with rational coefficients, kept in lowest terms
with a monic denominator so that structural equality is semantic equality.
:class:`ParamPoly` layers named solver unknowns on top of a scalar field,
with the exact-division, reduction and factor-extraction operations the
case solver is built from.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Mapping, Optional, Sequence

__all__ = [
    "CyclicSubstitution",
    "FieldAutomorphism",
    "FieldSpec",
    "ParamContext",
    "ParamPoly",
    "Scalar",
    "ZeroInversion",
    "check_elimination_order",
    "check_next_substitution",
    "factor_for_branching",
    "parampoly_reduce",
    "parse_parampoly",
    "parse_scalar",
    "substitute_in_order",
]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
# one token of input text; white space between tokens matches nothing
_TOKEN_RE = re.compile(
    r"(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<int>\d+)|(?P<op>[-+*/^()])|(?P<bad>\S)"
)
# a coefficient or denominator text printed without parentheses
_ATOM_RE = re.compile(r"[A-Za-z_0-9]+(\^\d+)?")

# The largest |k| accepted in an input power x^k, and the largest degree of
# the power (the degree of x times |k|), so that nested powers are bounded
# too.  Powers are taken by repeated multiplication, so this bounds the work
# one power can ask for.
MAX_EXPONENT = 100

# The most terms an input power x^k may have in its numerator or its
# denominator, counted before it is taken: a part of n terms has at most
# C(n + |k| - 1, |k|) terms in its |k|-th power, so a power of one term is
# never refused.
MAX_POWER_TERMS = 500

# The deepest parenthesis nesting accepted in an input text.  The readers
# recurse once per level, so this keeps them far from the recursion limit.
MAX_NESTING = 100


class ZeroInversion(ArithmeticError):
    """Raised when a zero scalar would have to be inverted."""


class CyclicSubstitution(ValueError):
    """Raised when an image mentions an unknown substituted at or before it."""


# ---------------------------------------------------------------------------
# Raw polynomial layer.
#
# A polynomial in m commuting variables is a dict {exponent tuple: value}
# with no zero values; the zero polynomial is the empty dict.  A rational
# value is an int where it is integral and a Fraction only where it is not;
# sums and products may leave an integral Fraction, which compares and
# hashes like the int.  Monomials are ordered graded-lexicographically.  The
# arithmetic helpers only need +, -, *, truthiness and the exact division
# _div of the values, so ParamPoly runs them on Scalar values (and Element's
# _p_add/_p_neg on monomial keys with either coefficient type).


def _grlex(e):
    return (sum(e), e)


def _exact(v):
    """A rational value as an int when it is integral, else unchanged."""
    return v.numerator if type(v) is Fraction and v.denominator == 1 else v


def _rational(value):
    """An int or Fraction value as an exact rational, an int if integral."""
    return value if type(value) is int else _exact(Fraction(value))


def _div(a, b):
    """The exact quotient a/b: an int when it is integral.

    Every division of the raw layer goes through here.  Two ints never meet
    a bare ``/``, which would give a float; other values (Fractions, or the
    Scalar values of a ParamPoly) divide as their type does.
    """
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _exact(a / b)


def _p_div(p, c):
    """p with every value divided by the nonzero c."""
    return {e: _div(v, c) for e, v in p.items()}


def _p_add(p, q):
    out = dict(p)
    for e, c in q.items():
        s = out.get(e)
        s = c if s is None else s + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _p_neg(p):
    return {e: -c for e, c in p.items()}


def _p_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            c = c1 * c2
            s = out.get(e)
            s = c if s is None else s + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _p_lead(p):
    e = max(p, key=_grlex)
    return e, p[e]


def _p_is_const(p):
    return not p or (len(p) == 1 and not any(next(iter(p))))


def _p_divexact(p, d):
    """Exact quotient p/d, or None when d does not divide p."""
    if not p:
        return {}
    de, dc = _p_lead(d)
    q = {}
    r = dict(p)
    while r:
        re_, rc = _p_lead(r)
        e = tuple(a - b for a, b in zip(re_, de))
        if any(x < 0 for x in e):
            return None
        c = _div(rc, dc)
        q[e] = c
        r = _p_add(r, _p_neg(_p_mul({e: c}, d)))
    return q


def _p_monic(p):
    if not p:
        return p
    _, c = _p_lead(p)
    return p if c == 1 else _p_div(p, c)


def _split_last(p):
    """View p in R[x_m] with R = Q[x_1..x_{m-1}]: dict {degree: coefficient}."""
    out = {}
    for e, c in p.items():
        out.setdefault(e[-1], {})[e[:-1]] = c
    return out


def _join_last(coeffs):
    out = {}
    for d, q in coeffs.items():
        for e, c in q.items():
            out[e + (d,)] = c
    return out


def _content(coeffs):
    g = {}
    for q in coeffs:
        g = _p_gcd(g, q)
    return g


def _uni_pp(coeffs):
    """The primitive part, scaled so that its leading coefficient is 1."""
    c = _content(coeffs.values())
    if not _p_is_const(c):
        coeffs = {d: _p_divexact(q, c) for d, q in coeffs.items()}
    # unscaled, the constant left by each pseudo-remainder compounds
    _, lc = _p_lead(coeffs[max(coeffs)])
    return coeffs if lc == 1 else {d: _p_div(q, lc) for d, q in coeffs.items()}


def _uni_prem(f, g):
    """A pseudo-remainder of f by g, univariate over a polynomial ring."""
    dg = max(g)
    lg = g[dg]
    r = dict(f)
    while r and max(r) >= dg:
        dr = max(r)
        lr = r.pop(dr)
        r = {d: _p_mul(lg, c) for d, c in r.items()}
        for d, c in g.items():
            if d == dg:
                continue
            e = d + dr - dg
            s = _p_add(r.get(e, {}), _p_neg(_p_mul(lr, c)))
            if s:
                r[e] = s
            else:
                r.pop(e, None)
    return r


def _proportional(p, q):
    """Is p = r*q for a rational r?  Both must be nonzero."""
    if len(p) != len(q):
        return False
    items = iter(q.items())
    e0, c0 = next(items)
    p0 = p.get(e0)
    if p0 is None:
        return False
    # p[e]/c = p0/c0 for every term, cross-multiplied to stay in ints
    for e, c in items:
        v = p.get(e)
        if v is None or v * c0 != c * p0:
            return False
    return True


def _p_gcd(p, q):
    """A gcd in Q[x_1..x_m], monic in graded-lex order.

    Two cases have a known answer and skip the primitive PRS: when either
    argument is a single term (a constant included), the gcd is the
    monomial of the componentwise least exponents; when p = r*q for a
    rational r, it is q made monic.  Otherwise the primitive PRS runs, and
    its recursion into contents takes the same shortcuts.
    """
    if not p:
        return _p_monic(q)
    if not q:
        return _p_monic(p)
    if len(p) == 1 or len(q) == 1:
        return {tuple(map(min, zip(*p, *q))): 1}
    if _proportional(p, q):
        return _p_monic(q)
    fs, gs = _split_last(p), _split_last(q)
    c = _p_gcd(_content(fs.values()), _content(gs.values()))
    f, g = _uni_pp(fs), _uni_pp(gs)
    if max(f) < max(g):
        f, g = g, f
    while g:
        r = _uni_prem(f, g)
        if r:
            r = _uni_pp(r)
        f, g = g, r
    f = _uni_pp(f)
    return _p_monic(_join_last({d: _p_mul(q_, c) for d, q_ in f.items()}))


def _cancel(p, q):
    """p and q divided by their gcd g, which is monic.

    Two cases skip the gcd.  When p = r*q for a rational r, g is q made
    monic and the parts are the constants lc(p) = r*lc(q) and lc(q).  When
    the shorter argument (by terms; by leading monomial on a tie) has two
    terms or more and divides the longer one exactly, g is the shorter one
    made monic: its part is its lc, and the other part is the quotient
    times that lc.  Otherwise the gcd is taken (``_p_gcd``) and both are
    divided by it.
    """
    zero = (0,) * len(next(iter(p)))
    if _proportional(p, q):
        return {zero: _exact(_p_lead(p)[1])}, {zero: _exact(_p_lead(q)[1])}
    # a divisor's leading monomial divides the dividend's, so of two
    # arguments with as many terms only the one with the larger lead can
    # be the dividend
    swap = len(p) < len(q) or (
        len(p) == len(q) and _grlex(_p_lead(p)[0]) < _grlex(_p_lead(q)[0])
    )
    big, small = (q, p) if swap else (p, q)
    if len(small) > 1:
        s = _p_divexact(big, small)
        if s is not None:
            _, lc = _p_lead(small)
            big = {e: _exact(c * lc) for e, c in s.items()}
            small = {zero: _exact(lc)}
            return (small, big) if swap else (big, small)
    g = _p_gcd(p, q)
    if _p_is_const(g):
        return p, q
    return _p_divexact(p, g), _p_divexact(q, g)


def _monic_den(num, den):
    """num/den scaled so that den has leading coefficient 1."""
    _, lc = _p_lead(den)
    if lc == 1:
        return num, den
    return _p_div(num, lc), _p_div(den, lc)


# ---------------------------------------------------------------------------
# Fields and scalars.


def _check_names(names, what: str) -> None:
    """Raise ValueError on the first name that is not an identifier or repeats."""
    seen = set()
    for n in names:
        if not _NAME_RE.fullmatch(n):
            raise ValueError(f"bad {what} name {n!r}")
        if n in seen:
            raise ValueError(f"duplicate {what} name {n!r}")
        seen.add(n)


@dataclass(frozen=True)
class FieldSpec:
    """The rational-function field Q(names[0], ..., names[-1]).

    A field memoises two things for as long as it lives, each keyed by
    value: ``_products``, the product of two non-rational scalars
    (``Scalar.__mul__``), and ``_texts``, the text of a scalar or of a
    polynomial over the field (``_Exact.encode``).  A falsify job makes one
    field, so its memos die with the job; their values refer back to the
    field, and the cyclic collector frees them.  The memos are not
    constructor arguments and take no part in ``==``, hashing or ``repr``.
    A memoised product is shared by every caller, which is safe because no
    code writes into a scalar's ``num`` or ``den``.
    """

    names: tuple = ()
    _products: dict = field(
        default_factory=dict, init=False, compare=False, hash=False, repr=False
    )
    _texts: dict = field(
        default_factory=dict, init=False, compare=False, hash=False, repr=False
    )

    def __post_init__(self):
        _check_names(self.names, "transcendental")

    def __eq__(self, other):
        # a job compares its one field with itself nearly every time
        if self is other:
            return True
        if other.__class__ is not FieldSpec:
            return NotImplemented
        return self.names == other.names

    @staticmethod
    def default(count: int = 2) -> "FieldSpec":
        return FieldSpec(tuple(f"t{i + 1}" for i in range(count)))

    @property
    def size(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        if name not in self.names:
            have = ", ".join(self.names) or "none"
            raise ValueError(
                f"unknown transcendental {name!r}; the field has {have}"
            )
        return self.names.index(name)


class _Exact:
    """The operators and caches Scalar and ParamPoly share, written once for both.

    A subclass gives ``_key()``, the tuple its hash is taken of,
    ``_format()``, its text, and ``_field()``, the field it lives over.  The
    value never changes, so ``_hash`` and ``_text`` keep both once computed;
    each ``__init__`` sets them to None.  Equal values built apart share
    their text through the field's ``_texts`` memo, so each distinct value
    is formatted once per field.  A subclass that defines ``__eq__`` must
    bind ``__hash__ = _Exact.__hash__``, as Python sets ``__hash__`` to None
    on such a class.
    """

    __slots__ = ("_hash", "_text")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self._key())
            object.__setattr__(self, "_hash", h)
        return h

    def encode(self) -> str:
        text = self._text
        if text is None:
            texts = self._field()._texts
            text = texts.get(self)
            if text is None:
                text = texts[self] = self._format()
            object.__setattr__(self, "_text", text)
        return text

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __str__(self):
        return self.encode()

    def __repr__(self):
        return f"{type(self).__name__}({self.encode()!r})"


class Scalar(_Exact):
    """An element of Q(t_1..t_m), stored as num/den in lowest terms.

    The denominator is monic in graded-lex order, which pins the
    representation uniquely; two scalars are equal iff their parts match.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: FieldSpec, num, den=None, _canonical=False):
        m = field.size
        if den is None:
            den = {(0,) * m: 1}
        if not _canonical:
            if not den:
                raise ZeroInversion("scalar with zero denominator")
            if not num:
                num, den = {}, {(0,) * m: 1}
            else:
                num, den = _monic_den(*_cancel(num, den))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_text", None)

    # -- constructors

    @staticmethod
    def zero(field: FieldSpec) -> "Scalar":
        return Scalar(field, {}, None, _canonical=True)

    @staticmethod
    def one(field: FieldSpec) -> "Scalar":
        return Scalar.from_fraction(field, 1)

    @staticmethod
    def from_fraction(field: FieldSpec, value) -> "Scalar":
        c = _rational(value)
        num = {(0,) * field.size: c} if c else {}
        return Scalar(field, num, None, _canonical=True)

    @staticmethod
    def transcendental(field: FieldSpec, name: str) -> "Scalar":
        i = field.index(name)
        e = tuple(1 if j == i else 0 for j in range(field.size))
        return Scalar(field, {e: 1}, None, _canonical=True)

    # -- predicates

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self):
        return bool(self.num)

    @property
    def is_one(self) -> bool:
        # in lowest terms with a monic denominator, 1 is stored as 1/1
        return self.num == self.den

    def as_fraction(self):
        """The value as a rational number, or None if transcendentals occur.

        The value is exact: an int when it is integral, else a Fraction.
        """
        if not self.num:
            return 0
        if _p_is_const(self.num) and _p_is_const(self.den):
            return _div(next(iter(self.num.values())), next(iter(self.den.values())))
        return None

    # -- arithmetic

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise ValueError("scalar field mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar.from_fraction(self.field, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            num = _p_add(self.num, o.num)
            if _p_is_const(self.den):
                # over the unit denominator a sum is in lowest terms; as
                # _cancel would, a constant one gets an exact value over 1
                if _p_is_const(num):
                    num = {e: _exact(v) for e, v in num.items()}
                    return Scalar(self.field, num, None, _canonical=True)
                return Scalar(self.field, num, self.den, _canonical=True)
            return Scalar(self.field, num, dict(self.den))
        num = _p_add(_p_mul(self.num, o.den), _p_mul(o.num, self.den))
        return Scalar(self.field, num, _p_mul(self.den, o.den))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.field, _p_neg(self.num), self.den, _canonical=True)

    def __mul__(self, other):
        if type(other) is int or type(other) is Fraction:
            return self._scaled(other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        f = o.as_fraction()
        if f is not None:
            return self._scaled(f)
        f = self.as_fraction()
        if f is not None:
            return o._scaled(f)
        memo = self.field._products
        key = (self, o)
        out = memo.get(key)
        if out is None:
            # each factor is in lowest terms, so only a numerator and the
            # other factor's denominator can share a factor
            n1, d2 = _cancel(self.num, o.den)
            n2, d1 = _cancel(o.num, self.den)
            num, den = _monic_den(_p_mul(n1, n2), _p_mul(d1, d2))
            out = memo[key] = Scalar(self.field, num, den, _canonical=True)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = Scalar.one(self.field)
        for _ in range(n):
            out = out * self
        return out

    def inverse(self) -> "Scalar":
        if not self.num:
            raise ZeroInversion("inverting the zero scalar")
        # num and den are coprime, so only the scale needs normalising
        num, den = _monic_den(dict(self.den), dict(self.num))
        return Scalar(self.field, num, den, _canonical=True)

    def _scaled(self, value) -> "Scalar":
        """self times a rational: no gcd pass is needed."""
        c = _rational(value)
        if not c or not self.num:
            return Scalar.zero(self.field)
        if c == 1:
            return self
        num = {e: _exact(v * c) for e, v in self.num.items()}
        return Scalar(self.field, num, self.den, _canonical=True)

    # -- identity

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar.from_fraction(self.field, other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return (
            self.field == other.field
            and self.num == other.num
            and self.den == other.den
        )

    __hash__ = _Exact.__hash__

    def _key(self):
        return self.field, frozenset(self.num.items()), frozenset(self.den.items())

    def _field(self):
        return self.field

    # -- text form

    def _format(self) -> str:
        if not self.num:
            return "0"
        num, den = self._int_normalized()
        ns = _format_poly(num, self.field.names, _signed_int)
        if _p_is_const(den) and next(iter(den.values())) == 1:
            return ns
        ds = _format_poly(den, self.field.names, _signed_int)
        if len(num) > 1:
            ns = f"({ns})"
        if not _ATOM_RE.fullmatch(ds):
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def _int_normalized(self):
        coeffs = list(self.num.values()) + list(self.den.values())
        mult = lcm(*(c.denominator for c in coeffs))
        div = gcd(*((c * mult).numerator for c in coeffs))

        def scaled(p):
            return {e: (c * mult).numerator // div for e, c in p.items()}

        return scaled(self.num), scaled(self.den)


def _format_poly(p, names, signed):
    """The terms of p, largest first; signed(c) is (c < 0, text of |c|).

    A coefficient text that is not a single atom is wrapped in parentheses
    before its monomial.  The zero polynomial prints as 0.
    """
    terms = []
    for e in sorted(p, key=_grlex, reverse=True):
        mono = "*".join(n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k)
        neg, cs = signed(p[e])
        if mono and cs == "1":
            body = mono
        elif mono:
            if not _ATOM_RE.fullmatch(cs):
                cs = f"({cs})"
            body = f"{cs}*{mono}"
        else:
            body = cs
        terms.append((neg, body))
    return _join_signed(terms) or "0"


def _join_signed(terms) -> str:
    """(negative, body) terms joined as a + b - c, the first with a bare -."""
    parts = []
    for neg, body in terms:
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"{' - ' if neg else ' + '}{body}")
    return "".join(parts)


def _signed_int(c: int):
    return c < 0, str(abs(c))


@dataclass(frozen=True)
class FieldAutomorphism:
    """A field automorphism permuting the transcendentals.

    ``perm`` sends ``names[i]`` to ``names[perm[i]]``.
    """

    field: FieldSpec
    perm: tuple

    def __post_init__(self):
        if sorted(self.perm) != list(range(self.field.size)):
            raise ValueError("perm is not a permutation of the transcendentals")

    @staticmethod
    def identity(field: FieldSpec) -> "FieldAutomorphism":
        return FieldAutomorphism(field, tuple(range(field.size)))

    @staticmethod
    def swap(field: FieldSpec, i: int = 0, j: int = 1) -> "FieldAutomorphism":
        if not (0 <= i < field.size and 0 <= j < field.size):
            raise ValueError(
                f"swap needs transcendentals {i + 1} and {j + 1}, but the field"
                f" has {field.size}"
            )
        p = list(range(field.size))
        p[i], p[j] = p[j], p[i]
        return FieldAutomorphism(field, tuple(p))

    @staticmethod
    def from_images(field: FieldSpec, images: Sequence[str]) -> "FieldAutomorphism":
        return FieldAutomorphism(field, tuple(field.index(n) for n in images))

    @property
    def is_identity(self) -> bool:
        return all(i == k for i, k in enumerate(self.perm))

    def apply(self, s: Scalar) -> Scalar:
        if s.field != self.field:
            raise ValueError("scalar field mismatch")
        if self.is_identity:
            return s
        # a permutation of the transcendentals keeps num and den coprime, but
        # it can change which monomial of den leads
        num, den = _monic_den(self._permute(s.num), self._permute(s.den))
        return Scalar(self.field, num, den, _canonical=True)

    def _permute(self, p):
        out = {}
        for e, c in p.items():
            ne = [0] * len(e)
            for i, k in enumerate(e):
                ne[self.perm[i]] = k
            out[tuple(ne)] = c
        return out

    def encode(self) -> str:
        if self.is_identity:
            return "id"
        n = self.field.size
        if n >= 2 and self.perm == (1, 0) + tuple(range(2, n)):
            return "swap"
        return "perm:" + ",".join(self.field.names[self.perm[i]] for i in range(n))

    @staticmethod
    def parse(text: str, field: FieldSpec) -> "FieldAutomorphism":
        if text == "id":
            return FieldAutomorphism.identity(field)
        if text == "swap":
            return FieldAutomorphism.swap(field)
        if text.startswith("perm:"):
            return FieldAutomorphism.from_images(field, text[5:].split(","))
        raise ValueError(f"cannot parse field automorphism {text!r}")


# ---------------------------------------------------------------------------
# Polynomials in solver unknowns.


@dataclass(frozen=True)
class ParamContext:
    """Named solver unknowns over a coefficient field."""

    field: FieldSpec
    names: tuple

    def __post_init__(self):
        _check_names(self.names, "unknown")
        for n in self.names:
            if n in self.field.names:
                raise ValueError(
                    f"transcendental {n!r} has the name of a solver unknown;"
                    f" the unknowns are {', '.join(self.names)}"
                )

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not ParamContext:
            return NotImplemented
        return self.field == other.field and self.names == other.names

    @property
    def size(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)


class ParamPoly(_Exact):
    """A polynomial in the unknowns of a ParamContext with Scalar coefficients."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: ParamContext, terms: Mapping = (), _canonical=False):
        # _canonical: terms is a dict of nonzero coefficients no caller keeps
        clean = (
            terms
            if _canonical
            else {e: c for e, c in dict(terms).items() if not c.is_zero}
        )
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_text", None)

    # -- constructors

    @staticmethod
    def zero(ctx: ParamContext) -> "ParamPoly":
        return ParamPoly(ctx)

    @staticmethod
    def constant(ctx: ParamContext, value: Scalar) -> "ParamPoly":
        return ParamPoly(ctx, {(0,) * ctx.size: value})

    @staticmethod
    def variable(ctx: ParamContext, name: str) -> "ParamPoly":
        i = ctx.index(name)
        e = tuple(1 if j == i else 0 for j in range(ctx.size))
        return ParamPoly(ctx, {e: Scalar.one(ctx.field)})

    # -- predicates and views

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def constant_value(self) -> Optional[Scalar]:
        """The value as a Scalar, or None when an unknown occurs."""
        if not self.terms:
            return Scalar.zero(self.ctx.field)
        if len(self.terms) == 1:
            e, c = next(iter(self.terms.items()))
            if not any(e):
                return c
        return None

    def variables(self) -> tuple:
        present = [False] * self.ctx.size
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    present[i] = True
        return tuple(n for n, p in zip(self.ctx.names, present) if p)

    def leading(self):
        """(exponent tuple, coefficient) of the graded-lex largest term."""
        return _p_lead(self.terms)

    # -- arithmetic

    def _coerce(self, other):
        if isinstance(other, ParamPoly):
            if other.ctx != self.ctx:
                raise ValueError("parameter context mismatch")
            return other
        if isinstance(other, Scalar):
            return ParamPoly.constant(self.ctx, other)
        if isinstance(other, (int, Fraction)):
            return ParamPoly.constant(
                self.ctx, Scalar.from_fraction(self.ctx.field, other)
            )
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ParamPoly(self.ctx, _p_add(self.terms, o.terms))

    __radd__ = __add__

    def __neg__(self):
        return ParamPoly(self.ctx, _p_neg(self.terms))

    def __mul__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            return ParamPoly(self.ctx, {e: c * other for e, c in self.terms.items()})
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ParamPoly(self.ctx, _p_mul(self.terms, o.terms))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = ParamPoly.constant(self.ctx, Scalar.one(self.ctx.field))
        for _ in range(n):
            out = out * self
        return out

    def monic(self) -> "ParamPoly":
        """self scaled to leading coefficient 1; zero is returned unchanged."""
        if not self.terms:
            return self
        _, lc = self.leading()
        return self if lc.is_one else self * lc.inverse()

    # -- substitution and evaluation

    def substitute(self, mapping: Mapping[str, "ParamPoly"]) -> "ParamPoly":
        """Replace unknowns by polynomials (simultaneously).

        An unknown with a zero image drops the terms that mention it; when
        every image is zero that filter is the whole pass, with no power or
        product.  Otherwise one pass over the remaining terms splits off
        each term's exponents of the mapped unknowns and replaces them by
        the product of the images' powers, each power computed once per
        call, and adds the result into a single accumulator.
        """
        mapped = []
        zero = []
        for i, name in enumerate(self.ctx.names):
            image = mapping.get(name)
            if image is None or not any(e[i] for e in self.terms):
                continue
            if image.ctx != self.ctx:
                raise ValueError("parameter context mismatch")
            if image.terms:
                mapped.append((i, image.terms))
            else:
                zero.append(i)
        if not mapped and not zero:
            return self
        terms = self.terms
        if zero:
            terms = {
                e: c for e, c in terms.items() if not any(e[i] for i in zero)
            }
            if not mapped:
                return ParamPoly(self.ctx, terms, _canonical=True)
        powers = {}
        out = {}
        for e, c in terms.items():
            rest = list(e)
            for i, _ in mapped:
                rest[i] = 0
            term = {tuple(rest): c}
            for i, image in mapped:
                k = e[i]
                if not k:
                    continue
                power = powers.get((i, k))
                if power is None:
                    power = image
                    for _ in range(k - 1):
                        power = _p_mul(power, image)
                    powers[(i, k)] = power
                term = _p_mul(term, power)
            for te, tc in term.items():
                s = out.get(te)
                s = tc if s is None else s + tc
                if s:
                    out[te] = s
                else:
                    out.pop(te, None)
        return ParamPoly(self.ctx, out, _canonical=True)

    def evaluate(self, assignment: Mapping[str, Scalar]) -> Scalar:
        """Evaluate at a full assignment of the occurring unknowns."""
        total = Scalar.zero(self.ctx.field)
        for e, c in self.terms.items():
            val = c
            for i, k in enumerate(e):
                if not k:
                    continue
                name = self.ctx.names[i]
                if name not in assignment:
                    raise KeyError(f"no value for unknown {name!r}")
                val = val * assignment[name] ** k
            total = total + val
        return total

    # -- division

    def divide_exact(self, divisor: "ParamPoly") -> Optional["ParamPoly"]:
        """Exact quotient self/divisor, or None when it does not divide."""
        if divisor.is_zero:
            raise ZeroInversion("division by the zero polynomial")
        quo = _p_divexact(self.terms, divisor.terms)
        return None if quo is None else ParamPoly(self.ctx, quo)

    def reduce_by(self, divisors: Sequence["ParamPoly"]) -> "ParamPoly":
        """Multivariate division remainder modulo the divisors.

        The division runs in place on one dict of terms.  Each step takes
        the leading term: when the leading monomial of a divisor divides
        it, the first such divisor's multiple is subtracted term by term,
        and the leading term, which it cancels, is dropped; otherwise the
        term moves to the remainder.
        """
        lead = [(d.terms, *d.leading()) for d in divisors if d.terms]
        p = dict(self.terms)
        rem = {}
        while p:
            e = max(p, key=_grlex)
            c = p.pop(e)
            for terms, de, dc in lead:
                if all(a >= b for a, b in zip(e, de)):
                    q = tuple(a - b for a, b in zip(e, de))
                    f = c / dc
                    for te, tc in terms.items():
                        if te == de:
                            continue
                        k = tuple(a + b for a, b in zip(q, te))
                        v = f * tc
                        s = p.get(k)
                        if s is None:
                            p[k] = -v
                        else:
                            s = s - v
                            if s:
                                p[k] = s
                            else:
                                del p[k]
                    break
            else:
                rem[e] = c
        return ParamPoly(self.ctx, rem, _canonical=True)

    # -- identity

    def __eq__(self, other):
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    __hash__ = _Exact.__hash__

    def _key(self):
        return self.ctx, frozenset(self.terms.items())

    def _field(self):
        return self.ctx.field

    # -- text form

    def _format(self) -> str:
        return _format_poly(self.terms, self.ctx.names, _signed_coeff)


def _signed_coeff(c: Scalar):
    """Split a scalar into (is_negative, printable absolute value).

    A rational scalar prints from its value, as ``Scalar.encode`` would
    print it, without a negated copy.
    """
    v = c.as_fraction()
    if v is not None:
        return v < 0, str(abs(v))
    _, lc = _p_lead(c.num)
    if lc < 0:
        return True, (-c).encode()
    return False, c.encode()


# ---------------------------------------------------------------------------
# Reduction modulo branch data.


def check_next_substitution(
    earlier: Sequence[str], name: str, image: ParamPoly
) -> None:
    """Raise CyclicSubstitution unless the pair may follow the earlier names.

    In elimination order an image mentions neither its own unknown nor one
    substituted before it.
    """
    early = {name, *earlier}.intersection(image.variables())
    if early:
        raise CyclicSubstitution(
            f"the image of {name!r} mentions {min(early)!r},"
            " which is substituted at or before it"
        )


def check_elimination_order(substitutions: Mapping[str, ParamPoly]) -> None:
    """Raise CyclicSubstitution unless the substitutions are in elimination order.

    Each image may mention only unknowns substituted after it, as in the
    elimination order of ``solve_cases``; this covers cycles and
    self-reference.
    """
    done = []
    for name, image in substitutions.items():
        check_next_substitution(done, name, image)
        done.append(name)


def substitute_in_order(
    p: ParamPoly, substitutions: Mapping[str, ParamPoly]
) -> ParamPoly:
    """Apply substitutions in elimination order, one pass each.

    The order is not checked (``check_elimination_order`` does that once
    per chain); when it holds, the result mentions no substituted unknown.
    Each substitution is one ``ParamPoly.substitute`` pass over the terms,
    and a zero image only drops the terms that mention its unknown.  A
    pass whose unknown does not occur in p returns p itself, so on a p
    already reduced by all but the last pair only the last pass does work;
    ``solve_cases`` makes just that pass at each node.
    """
    for name, image in substitutions.items():
        p = p.substitute({name: image})
    return p


def parampoly_reduce(
    p: ParamPoly,
    substitutions: Optional[Mapping[str, ParamPoly]] = None,
    vanishing: Sequence[ParamPoly] = (),
) -> ParamPoly:
    """Reduce p by ordered substitutions, then modulo a vanishing set.

    The order is checked first (``check_elimination_order``, which raises
    CyclicSubstitution); then p and each vanishing polynomial are
    substituted (``substitute_in_order``), and p is divided by the nonzero
    results (``ParamPoly.reduce_by``).  The result contains no term
    divisible by the leading monomial of any (substituted) vanishing
    polynomial; applying the same reduction again is the identity.
    ``solve_cases`` grows its chains one pair at a time: it checks each new
    pair alone (``check_next_substitution``) and substitutes only that pair
    into polynomials that the rest of the chain has already reduced, with
    the same result.  ``kernel_contains`` walks the tree it builds the same
    way, and divides by a solved leaf's residuals as they stand, since the
    leaf's chain leaves them fixed.
    """
    substitutions = substitutions or {}
    check_elimination_order(substitutions)
    p = substitute_in_order(p, substitutions)
    divisors = [
        v for v in (substitute_in_order(v, substitutions) for v in vanishing) if v
    ]
    return p.reduce_by(divisors) if divisors else p


def factor_for_branching(
    p: ParamPoly, hints: Sequence[ParamPoly] = ()
) -> list:
    """Split p into branch-ready factors, each up to a unit.

    Returned in order: one factor per unknown dividing every term (with
    multiplicity), then each hint as often as it exactly divides, then the
    remaining cofactor as it stands (omitted when it is a nonzero scalar).
    The unknowns are monic, and so is each hint that ``solve_cases``
    passes; the cofactor keeps its scalar, and a caller that needs it
    monic, to branch on it or to compare it with a monic polynomial,
    makes it so (``ParamPoly.monic``).
    """
    if p.is_zero:
        return []
    ctx = p.ctx
    out = []
    mins = [min(e[i] for e in p.terms) for i in range(ctx.size)]
    if any(mins):
        p = ParamPoly(
            ctx,
            {
                tuple(a - b for a, b in zip(e, mins)): c
                for e, c in p.terms.items()
            },
        )
        for name, k in zip(ctx.names, mins):
            if k:
                out.extend([ParamPoly.variable(ctx, name)] * k)
    for h in hints:
        if h.constant_value() is not None:
            continue
        while True:
            q = p.divide_exact(h)
            if q is None:
                break
            out.append(h)
            p = q
    if p.constant_value() is None:
        out.append(p)
    return out


# ---------------------------------------------------------------------------
# Text input.
#
# Every reader runs on the tokens of _tokenize (names, integers and the
# operators + - * / ^ ( ), white space ignored), which refuses a bad
# character and nesting deeper than MAX_NESTING.  The grammars:
#
#   parse_scalar, parse_parampoly (_ExprParser):
#     expr     := term (('+' | '-') term)*
#     term     := factor (('*' | '/') factor)*
#     factor   := ('-' | '+')* atom ('^' ('-')? INT)?
#     atom     := NAME | INT | '(' expr ')'
#   freealg.parse_monomial:
#     monomial := GENERATOR | '(' monomial monomial ')'
#   freealg.parse_element, where a top-level + or - is binary after a name,
#   an integer or ')', and a term's coefficient ends at its last top-level *:
#     element  := '0' | ('+' | '-')? eterm (('+' | '-') eterm)*
#     eterm    := (term '*')? monomial
#
# Expressions are evaluated in the fraction field over all names at once and
# the result is sorted into parameter monomials afterwards, so inputs like
# (a11 - 1)*(a11 + 1) or (t1*a11 + 1)/(t1 + 1) work; unknowns must cancel
# out of every denominator.

_END = ("end", "")


def _tokenize(text: str):
    toks = []
    depth = 0
    for m in _TOKEN_RE.finditer(text):
        kind, val = m.lastgroup, m.group()
        if kind == "bad":
            raise ValueError(f"bad character {val!r} in {text!r}")
        if val == "(":
            depth += 1
            if depth > MAX_NESTING:
                raise ValueError(
                    "parentheses nested too deep: at most"
                    f" MAX_NESTING = {MAX_NESTING} levels"
                )
        elif val == ")":
            depth -= 1
        toks.append((kind, val))
    toks.append(_END)
    return toks


class _ExprParser:
    def __init__(self, toks, field: FieldSpec):
        self.toks = toks
        self.pos = 0
        self.field = field

    def take(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def accept(self, *ops):
        """If the next token is one of the operators ops, take it and return it."""
        kind, val = self.toks[self.pos]
        if kind == "op" and val in ops:
            self.pos += 1
            return val
        return None

    def parse(self) -> Scalar:
        v = self.expr()
        kind, val = self.toks[self.pos]
        if kind != "end":
            raise ValueError(f"unexpected {val!r} after expression")
        return v

    def expr(self):
        v = self.term()
        while op := self.accept("+", "-"):
            t = self.term()
            v = v + t if op == "+" else v - t
        return v

    def term(self):
        v = self.factor()
        while op := self.accept("*", "/"):
            f = self.factor()
            if op == "*":
                v = v * f
            else:
                if f.is_zero:
                    raise ZeroInversion("division by zero in expression")
                v = v / f
        return v

    def factor(self):
        # a run of signs is read in a loop: it is not nesting
        negate = False
        while op := self.accept("-", "+"):
            negate ^= op == "-"
        v = self.atom()
        if self.accept("^"):
            sign = -1 if self.accept("-") else 1
            kind, val = self.take()
            if kind != "int":
                raise ValueError("exponent must be an integer")
            k = sign * int(val)
            if abs(k) > MAX_EXPONENT:
                raise ValueError(
                    f"exponent {k} is out of range: its absolute value must be"
                    f" at most MAX_EXPONENT = {MAX_EXPONENT}"
                )
            degree = abs(k) * max(sum(e) for part in (v.num, v.den) for e in part)
            if degree > MAX_EXPONENT:
                raise ValueError(
                    f"power of degree {degree} is out of range: the degree of"
                    " the base times the exponent's absolute value must be at"
                    f" most MAX_EXPONENT = {MAX_EXPONENT}"
                )
            n = max(len(v.num), len(v.den))
            terms = comb(n + abs(k) - 1, abs(k))
            if terms > MAX_POWER_TERMS:
                raise ValueError(
                    f"power of up to {terms} terms is out of range: a"
                    f" numerator or denominator of {n} terms to the power"
                    f" {abs(k)} may have C({n} + {abs(k)} - 1, {abs(k)}) terms,"
                    f" and at most MAX_POWER_TERMS = {MAX_POWER_TERMS} are"
                    " accepted"
                )
            v = v**k
        return -v if negate else v

    def atom(self):
        kind, val = self.take()
        if kind == "int":
            return Scalar.from_fraction(self.field, int(val))
        if kind == "name":
            if val not in self.field.names:
                raise ValueError(f"unknown name {val!r}")
            return Scalar.transcendental(self.field, val)
        if (kind, val) == ("op", "("):
            v = self.expr()
            if not self.accept(")"):
                found = self.toks[self.pos][1] or "end of input"
                raise ValueError(f"expected ')', found {found!r}")
            return v
        raise ValueError(f"unexpected {val or 'end of input'!r}")


def parse_parampoly(text: str, ctx: ParamContext) -> ParamPoly:
    ext = FieldSpec(ctx.field.names + ctx.names)
    val = _ExprParser(_tokenize(text), ext).parse()
    mf = ctx.field.size
    for e in val.den:
        if any(e[mf:]):
            raise ValueError(f"unknowns in denominator of {text!r}")
    den = {e[:mf]: c for e, c in val.den.items()}
    groups = {}
    for e, c in val.num.items():
        groups.setdefault(e[mf:], {})[e[:mf]] = c
    terms = {
        ep: Scalar(ctx.field, num, dict(den)) for ep, num in groups.items()
    }
    return ParamPoly(ctx, terms)


def parse_scalar(text: str, field: FieldSpec) -> Scalar:
    return _ExprParser(_tokenize(text), field).parse()
