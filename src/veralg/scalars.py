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
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Optional, Sequence

__all__ = [
    "CyclicSubstitution",
    "FieldAutomorphism",
    "FieldSpec",
    "ParamContext",
    "ParamPoly",
    "Scalar",
    "ZeroInversion",
    "factor_for_branching",
    "parampoly_reduce",
    "parse_parampoly",
    "parse_scalar",
]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class ZeroInversion(ArithmeticError):
    """Raised when a zero scalar would have to be inverted."""


class CyclicSubstitution(ValueError):
    """Raised when substitution rules form a dependency cycle."""


# ---------------------------------------------------------------------------
# Raw polynomial layer.
#
# A polynomial in m commuting variables is a dict {exponent tuple: Fraction}
# with no zero values; the zero polynomial is the empty dict.  Monomials are
# ordered graded-lexicographically.  The arithmetic helpers only need +, -,
# *, / and truthiness of the values, so ParamPoly runs them on Scalar values
# (and Element's _p_add/_p_neg on monomial keys with either coefficient type).


def _grlex(e):
    return (sum(e), e)


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


def _p_scale(p, c):
    if not c:
        return {}
    return {e: c * v for e, v in p.items()}


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
        c = rc / dc
        q[e] = c
        r = _p_add(r, _p_neg(_p_mul({e: c}, d)))
    return q


def _p_monic(p):
    if not p:
        return p
    _, c = _p_lead(p)
    return p if c == 1 else _p_scale(p, 1 / c)


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
    c = _content(coeffs.values())
    if _p_is_const(c):
        return coeffs
    return {d: _p_divexact(q, c) for d, q in coeffs.items()}


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


def _p_gcd(p, q):
    """A gcd in Q[x_1..x_m], monic in graded-lex order (primitive PRS)."""
    if not p:
        return _p_monic(q)
    if not q:
        return _p_monic(p)
    if _p_is_const(p) or _p_is_const(q):
        m = len(next(iter(p)))
        return {(0,) * m: Fraction(1)}
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


# ---------------------------------------------------------------------------
# Fields and scalars.


@dataclass(frozen=True)
class FieldSpec:
    """The rational-function field Q(names[0], ..., names[-1])."""

    names: tuple = ()

    def __post_init__(self):
        seen = set()
        for n in self.names:
            if not _NAME_RE.fullmatch(n):
                raise ValueError(f"bad transcendental name {n!r}")
            if n in seen:
                raise ValueError(f"duplicate transcendental name {n!r}")
            seen.add(n)

    @staticmethod
    def default(count: int = 2) -> "FieldSpec":
        return FieldSpec(tuple(f"t{i + 1}" for i in range(count)))

    @property
    def size(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)


class Scalar:
    """An element of Q(t_1..t_m), stored as num/den in lowest terms.

    The denominator is monic in graded-lex order, which pins the
    representation uniquely; two scalars are equal iff their parts match.
    """

    __slots__ = ("field", "num", "den", "_hash")

    def __init__(self, field: FieldSpec, num, den=None, _canonical=False):
        m = field.size
        if den is None:
            den = {(0,) * m: Fraction(1)}
        if not _canonical:
            if not den:
                raise ZeroInversion("scalar with zero denominator")
            if not num:
                num, den = {}, {(0,) * m: Fraction(1)}
            else:
                g = _p_gcd(num, den)
                if not _p_is_const(g):
                    num = _p_divexact(num, g)
                    den = _p_divexact(den, g)
                _, lc = _p_lead(den)
                if lc != 1:
                    num = _p_scale(num, 1 / lc)
                    den = _p_scale(den, 1 / lc)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- constructors

    @staticmethod
    def zero(field: FieldSpec) -> "Scalar":
        return Scalar(field, {}, None, _canonical=True)

    @staticmethod
    def one(field: FieldSpec) -> "Scalar":
        return Scalar.from_fraction(field, Fraction(1))

    @staticmethod
    def from_fraction(field: FieldSpec, value) -> "Scalar":
        c = Fraction(value)
        num = {(0,) * field.size: c} if c else {}
        return Scalar(field, num, None, _canonical=True)

    @staticmethod
    def transcendental(field: FieldSpec, name: str) -> "Scalar":
        i = field.index(name)
        e = tuple(1 if j == i else 0 for j in range(field.size))
        return Scalar(field, {e: Fraction(1)}, None, _canonical=True)

    @classmethod
    def parse(cls, text: str, field: FieldSpec) -> "Scalar":
        return parse_scalar(text, field)

    # -- predicates

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self):
        return bool(self.num)

    @property
    def is_one(self) -> bool:
        return self == Scalar.one(self.field)

    def as_fraction(self) -> Optional[Fraction]:
        """The value as a rational number, or None if transcendentals occur."""
        if not self.num:
            return Fraction(0)
        if _p_is_const(self.num) and _p_is_const(self.den):
            return next(iter(self.num.values())) / next(iter(self.den.values()))
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
            return Scalar(self.field, _p_add(self.num, o.num), dict(self.den))
        num = _p_add(_p_mul(self.num, o.den), _p_mul(o.num, self.den))
        return Scalar(self.field, num, _p_mul(self.den, o.den))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.field, _p_neg(self.num), self.den, _canonical=True)

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

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        f = o.as_fraction()
        if f is not None:
            return self.scale_fraction(f)
        f = self.as_fraction()
        if f is not None:
            return o.scale_fraction(f)
        return Scalar(self.field, _p_mul(self.num, o.num), _p_mul(self.den, o.den))

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
        return Scalar(self.field, dict(self.den), dict(self.num))

    def scale_fraction(self, value) -> "Scalar":
        """Fast multiply by a rational: no gcd pass is needed."""
        c = Fraction(value)
        if not c or not self.num:
            return Scalar.zero(self.field)
        return Scalar(self.field, _p_scale(self.num, c), self.den, _canonical=True)

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

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(
                (
                    self.field,
                    frozenset(self.num.items()),
                    frozenset(self.den.items()),
                )
            )
            object.__setattr__(self, "_hash", h)
        return h

    # -- text form

    def encode(self) -> str:
        if not self.num:
            return "0"
        num, den = self._int_normalized()
        ns = _format_poly(num, self.field.names)
        if _p_is_const(den) and next(iter(den.values())) == 1:
            return ns
        ds = _format_poly(den, self.field.names)
        if len(num) > 1:
            ns = f"({ns})"
        if not re.fullmatch(r"[A-Za-z_0-9]+(\^\d+)?", ds):
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def _int_normalized(self):
        coeffs = list(self.num.values()) + list(self.den.values())
        mult = lcm(*(c.denominator for c in coeffs))
        div = gcd(*((c * mult).numerator for c in coeffs))
        f = Fraction(mult, div)
        return _p_scale(self.num, f), _p_scale(self.den, f)

    def __str__(self):
        return self.encode()

    def __repr__(self):
        return f"Scalar({self.encode()!r})"


def _format_poly(p, names):
    parts = []
    for e in sorted(p, key=_grlex, reverse=True):
        c = p[e]
        mono = "*".join(
            n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k
        )
        mag = abs(c)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{' + ' if c > 0 else ' - '}{body}")
    return "".join(parts)


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
        p = list(range(field.size))
        p[i], p[j] = p[j], p[i]
        return FieldAutomorphism(field, tuple(p))

    @staticmethod
    def from_images(field: FieldSpec, images: Sequence[str]) -> "FieldAutomorphism":
        return FieldAutomorphism(field, tuple(field.index(n) for n in images))

    @property
    def is_identity(self) -> bool:
        return all(i == k for i, k in enumerate(self.perm))

    def image(self, name: str) -> str:
        return self.field.names[self.perm[self.field.index(name)]]

    def apply(self, s: Scalar) -> Scalar:
        if s.field != self.field:
            raise ValueError("scalar field mismatch")
        if self.is_identity:
            return s
        return Scalar(self.field, self._permute(s.num), self._permute(s.den))

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
        seen = set(self.field.names)
        for n in self.names:
            if not _NAME_RE.fullmatch(n):
                raise ValueError(f"bad unknown name {n!r}")
            if n in seen:
                raise ValueError(f"unknown name {n!r} collides")
            seen.add(n)

    @property
    def size(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)


class ParamPoly:
    """A polynomial in the unknowns of a ParamContext with Scalar coefficients."""

    __slots__ = ("ctx", "terms", "_hash")

    def __init__(self, ctx: ParamContext, terms: Mapping = ()):
        clean = {e: c for e, c in dict(terms).items() if not c.is_zero}
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("ParamPoly is immutable")

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

    @classmethod
    def parse(cls, text: str, ctx: ParamContext) -> "ParamPoly":
        return parse_parampoly(text, ctx)

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

    def __mul__(self, other):
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

    def scale(self, value: Scalar) -> "ParamPoly":
        return ParamPoly(self.ctx, _p_scale(self.terms, value))

    def scale_fraction(self, value) -> "ParamPoly":
        f = Fraction(value)
        if not f:
            return ParamPoly.zero(self.ctx)
        return ParamPoly(
            self.ctx, {e: c.scale_fraction(f) for e, c in self.terms.items()}
        )

    # -- substitution and evaluation

    def substitute(self, mapping: Mapping[str, "ParamPoly"]) -> "ParamPoly":
        """Replace unknowns by polynomials (simultaneously)."""
        if not mapping or not any(n in mapping for n in self.variables()):
            return self
        out = ParamPoly.zero(self.ctx)
        for e, c in self.terms.items():
            term = ParamPoly.constant(self.ctx, c)
            for i, k in enumerate(e):
                if not k:
                    continue
                name = self.ctx.names[i]
                base = mapping.get(name)
                if base is None:
                    base = ParamPoly.variable(self.ctx, name)
                term = term * base**k
            out = out + term
        return out

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
        """Multivariate division remainder modulo the divisors."""
        lead = [(d, d.leading()) for d in divisors if not d.is_zero]
        rem = ParamPoly.zero(self.ctx)
        p = self
        while not p.is_zero:
            e, c = p.leading()
            for d, (de, dc) in lead:
                q = tuple(a - b for a, b in zip(e, de))
                if all(x >= 0 for x in q):
                    p = p - ParamPoly(self.ctx, {q: c / dc}) * d
                    break
            else:
                t = ParamPoly(self.ctx, {e: c})
                rem = rem + t
                p = p - t
        return rem

    # -- identity

    def __eq__(self, other):
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.ctx, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    # -- text form

    def encode(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_grlex, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                n if k == 1 else f"{n}^{k}"
                for n, k in zip(self.ctx.names, e)
                if k
            )
            neg, cs = _signed_coeff(c)
            if mono and cs == "1":
                body = mono
            elif mono:
                if not re.fullmatch(r"[A-Za-z_0-9]+(\^\d+)?", cs):
                    cs = f"({cs})"
                body = f"{cs}*{mono}"
            else:
                body = cs
            if not parts:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"{' - ' if neg else ' + '}{body}")
        return "".join(parts)

    def __str__(self):
        return self.encode()

    def __repr__(self):
        return f"ParamPoly({self.encode()!r})"


def _signed_coeff(c: Scalar):
    """Split a scalar into (is_negative, printable absolute value)."""
    _, lc = _p_lead(c.num)
    if lc < 0:
        return True, (-c).encode()
    return False, c.encode()


# ---------------------------------------------------------------------------
# Reduction modulo branch data.


def _substitution_order(subs: Mapping[str, ParamPoly]):
    """Names in dependency-respecting order; cycles are an error."""
    deps = {n: set(p.variables()) & set(subs) for n, p in subs.items()}
    order, state = [], {}

    def visit(n):
        if state.get(n) == 2:
            return
        if state.get(n) == 1:
            raise CyclicSubstitution(f"substitution cycle through {n!r}")
        state[n] = 1
        for m in deps[n]:
            visit(m)
        state[n] = 2
        order.append(n)

    for n in subs:
        visit(n)
    return order  # every name after the names its image mentions


def parampoly_reduce(
    p: ParamPoly,
    substitutions: Optional[Mapping[str, ParamPoly]] = None,
    vanishing: Sequence[ParamPoly] = (),
) -> ParamPoly:
    """Reduce p by acyclic substitutions, then modulo a vanishing set.

    The result contains no substituted unknown and no term divisible by the
    leading monomial of any (substituted) vanishing polynomial; applying the
    same reduction again is the identity.
    """
    subs = dict(substitutions or {})
    if subs:
        resolved = {}
        for n in _substitution_order(subs):
            img = subs[n]
            resolved[n] = img.substitute(resolved) if resolved else img
        p = p.substitute(resolved)
        vanishing = [v.substitute(resolved) for v in vanishing]
    divisors = [v for v in vanishing if not v.is_zero]
    if divisors:
        p = p.reduce_by(divisors)
    return p


def factor_for_branching(
    p: ParamPoly, hints: Sequence[ParamPoly] = ()
) -> list:
    """Split p into branch-ready factors, dropping the unit in front.

    Returned in order: one factor per unknown dividing every term (with
    multiplicity), then each hint as often as it exactly divides, then the
    remaining cofactor normalised to leading coefficient 1 (omitted when it
    is a nonzero scalar).
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
        _, lc = p.leading()
        out.append(p.scale(lc.inverse()))
    return out


# ---------------------------------------------------------------------------
# Expression parsing.
#
# One grammar covers scalars and parameter polynomials:
#
#   expr   := term (('+' | '-') term)*
#   term   := factor (('*' | '/') factor)*
#   factor := ('-' | '+') factor | atom ('^' ('-')? INT)?
#   atom   := NAME | INT | '(' expr ')'
#
# Expressions are evaluated in the fraction field over all names at once and
# the result is sorted into parameter monomials afterwards, so inputs like
# (a11 - 1)*(a11 + 1) or (t1*a11 + 1)/(t1 + 1) work; unknowns must cancel
# out of every denominator.


def _tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            toks.append(("op", ch))
            i += 1
            continue
        m = _NAME_RE.match(text, i)
        if m:
            toks.append(("name", m.group()))
            i = m.end()
            continue
        m = re.match(r"\d+", text[i:])
        if m:
            toks.append(("int", m.group()))
            i += m.end()
            continue
        raise ValueError(f"bad character {ch!r} in expression")
    toks.append(("end", ""))
    return toks


class _ExprParser:
    def __init__(self, toks, field: FieldSpec):
        self.toks = toks
        self.pos = 0
        self.field = field

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect_op(self, ch):
        kind, val = self.take()
        if kind != "op" or val != ch:
            raise ValueError(f"expected {ch!r}, found {val or 'end of input'!r}")

    def parse(self) -> Scalar:
        v = self.expr()
        kind, val = self.peek()
        if kind != "end":
            raise ValueError(f"unexpected {val!r} after expression")
        return v

    def expr(self):
        v = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.take()
            t = self.term()
            v = v + t if op == "+" else v - t
        return v

    def term(self):
        v = self.factor()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.take()
            f = self.factor()
            if op == "*":
                v = v * f
            else:
                if f.is_zero:
                    raise ZeroInversion("division by zero in expression")
                v = v / f
        return v

    def factor(self):
        if self.peek() == ("op", "-"):
            self.take()
            return -self.factor()
        if self.peek() == ("op", "+"):
            self.take()
            return self.factor()
        v = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            sign = 1
            if self.peek() == ("op", "-"):
                self.take()
                sign = -1
            kind, val = self.take()
            if kind != "int":
                raise ValueError("exponent must be an integer")
            return v ** (sign * int(val))
        return v

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
            self.expect_op(")")
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
    p = parse_parampoly(text, ParamContext(field, ()))
    return p.constant_value()
