"""Exact coefficient field: rational functions in v = q^(1/2) over Q.

Representation: a pair of Laurent dicts (numerator, denominator) in
canonical form.
Canonical form: the denominator is a polynomial dict with nonzero
constant term normalized to 1, and gcd(numerator, denominator) = 1
(after factoring a v-power out of the numerator).  Zero is ({}, {0: 1}).
A coefficient is an int exactly when it is integral and a Fraction only
when it is not, so a Laurent polynomial over Z, which is what the
algebra layers multiply, never touches Fraction arithmetic; every
division of coefficients goes through Fraction, never int / int.
Fraction(3) == 3 and hash(Fraction(3)) == hash(3), so the coefficient
type changes neither equality, hashing nor any printed text.
"""

from __future__ import annotations

from fractions import Fraction

from .laurent import (
    lp_add,
    lp_eval,
    lp_ints,
    lp_mul,
    lp_neg,
    lp_scale,
    lp_shift,
    lp_sub,
    plist_divmod,
    plist_gcd,
)
from .errors import DenominatorVanishes
from .quadext import QuadExt


def _one_poly():
    return {0: 1}


def _lp_to_list(p):
    """Laurent dict with min exponent 0 -> dense list."""
    deg = max(p)
    out = [0] * (deg + 1)
    for e, c in p.items():
        out[e] = c
    return out


def _list_to_lp(lst):
    return lp_ints({e: c for e, c in enumerate(lst) if c})


def _rf_norm(num, den):
    """Canonicalize a numerator/denominator pair of Laurent dicts."""
    if not num:
        return {}, _one_poly()
    dmin = min(den)
    if dmin:
        den = lp_shift(den, -dmin)
        num = lp_shift(num, -dmin)
    if len(den) == 1:
        c = den[0]
        if c != 1:
            num = lp_scale(num, Fraction(1) / c)
        return num, _one_poly()
    nmin = min(num)
    npoly = lp_shift(num, -nmin) if nmin else num
    g = plist_gcd(_lp_to_list(npoly), _lp_to_list(den))
    if len(g) > 1:
        nq, _ = plist_divmod(_lp_to_list(npoly), g)
        dq, _ = plist_divmod(_lp_to_list(den), g)
        npoly = _list_to_lp(nq)
        den = _list_to_lp(dq)
        num = lp_shift(npoly, nmin) if nmin else npoly
        dmin = min(den)
        if dmin:
            den = lp_shift(den, -dmin)
            num = lp_shift(num, -dmin)
        if len(den) == 1:
            c = den[0]
            if c != 1:
                num = lp_scale(num, Fraction(1) / c)
            return num, _one_poly()
    c = den[0]
    if c != 1:
        inv = Fraction(1) / c
        num = lp_scale(num, inv)
        den = lp_scale(den, inv)
    return num, den


def _rf_add(p1, p2):
    n1, d1 = p1
    n2, d2 = p2
    if d1 == d2:
        if len(d1) == 1:
            return lp_add(n1, n2), _one_poly()
        return _rf_norm(lp_add(n1, n2), d1)
    return _rf_norm(lp_add(lp_mul(n1, d2), lp_mul(n2, d1)), lp_mul(d1, d2))


def _rf_sub(p1, p2):
    n1, d1 = p1
    n2, d2 = p2
    if d1 == d2:
        if len(d1) == 1:
            return lp_sub(n1, n2), _one_poly()
        return _rf_norm(lp_sub(n1, n2), d1)
    return _rf_norm(lp_sub(lp_mul(n1, d2), lp_mul(n2, d1)), lp_mul(d1, d2))


def _rf_mul(p1, p2):
    n1, d1 = p1
    n2, d2 = p2
    if len(d1) == 1 and len(d2) == 1:
        return lp_mul(n1, n2), _one_poly()
    return _rf_norm(lp_mul(n1, n2), lp_mul(d1, d2))


def _rf_neg(p):
    return lp_neg(p[0]), p[1]


def _rf_inv(p):
    num, den = p
    if not num:
        raise ZeroDivisionError("division by zero field element")
    # gcd(num, den) = 1 already; only reshift and rescale.
    return _rf_norm(den, num)


def _rf_is_zero(p):
    return not p[0]


_RF_ZERO = ({}, _one_poly())
_RF_ONE = ({0: 1}, _one_poly())


class FieldElem:
    """Element of Q(v): one canonical numerator/denominator pair."""

    __slots__ = ("base",)

    def __init__(self, base):
        self.base = base

    # -- constructors ------------------------------------------------
    @classmethod
    def one(cls) -> "FieldElem":
        return _ONE_ELEM

    @classmethod
    def from_rational(cls, r) -> "FieldElem":
        return cls.monomial(r, 0)

    @classmethod
    def monomial(cls, coeff, vexp: int) -> "FieldElem":
        coeff = Fraction(coeff)
        if not coeff:
            return _ZERO_ELEM
        return cls((lp_ints({vexp: coeff}), _one_poly()))

    @classmethod
    def v_pow(cls, k: int) -> "FieldElem":
        return cls.monomial(1, k)

    # -- structure ---------------------------------------------------
    @staticmethod
    def _coerce(x) -> "FieldElem":
        if isinstance(x, FieldElem):
            return x
        if isinstance(x, (int, Fraction)):
            return FieldElem.from_rational(x)
        return NotImplemented

    def __bool__(self):
        return not _rf_is_zero(self.base)

    def as_monomial(self):
        """(coeff, exponent) when self is coeff * v^exponent with a
        rational coeff, else None."""
        num, den = self.base
        if len(num) != 1 or len(den) != 1:
            return None
        (e, c), = num.items()
        return c, e

    # -- arithmetic --------------------------------------------------
    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElem(_rf_add(self.base, o.base))

    __radd__ = __add__

    def __neg__(self):
        return FieldElem(_rf_neg(self.base))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElem(_rf_sub(self.base, o.base))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is _ONE_ELEM:
            return self
        if self is _ONE_ELEM:
            return o
        return FieldElem(_rf_mul(self.base, o.base))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElem":
        return FieldElem(_rf_inv(self.base))

    def shift(self, k: int) -> "FieldElem":
        """self * v^k: the numerator's exponents move by k and the
        denominator, whose constant term is untouched, stays canonical."""
        if not k:
            return self
        num, den = self.base
        return FieldElem(({e + k: c for e, c in num.items()}, den))

    def bar(self) -> "FieldElem":
        """The automorphism v |-> 1/v of Q(v)."""
        num, den = self.base
        num = {-e: c for e, c in num.items()}
        if len(den) == 1:  # a Laurent polynomial stays canonical
            return FieldElem((num, den))
        return FieldElem(_rf_norm(num, {-e: c for e, c in den.items()}))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        if other == 1:  # a pivot's 1 / c costs what inverse() costs
            return self.inverse()
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _rf_is_zero(_rf_sub(self.base, o.base))

    def __hash__(self):
        num, den = self.base
        return hash((tuple(sorted(num.items())), tuple(sorted(den.items()))))

    # -- evaluation --------------------------------------------------
    def eval_v(self, v0) -> Fraction:
        """Exact value at v = v0."""
        v0 = Fraction(v0)
        if not v0:
            raise DenominatorVanishes("v = 0 is outside the domain")
        den = lp_eval(self.base[1], v0)
        if not den:
            raise DenominatorVanishes(f"denominator vanishes at v = {v0}")
        return lp_eval(self.base[0], v0) / den

    def eval_mod(self, s: int, p: int) -> int | None:
        """Image in F_p under v |-> s, for a prime p and a unit s mod p.

        None when a coefficient denominator or the value's denominator
        vanishes mod p: the element then has no image, and the caller
        must use an exact evaluation instead."""
        num, den = self.base

        def ev(poly):
            acc = 0
            for e, c in poly.items():
                d = c.denominator % p
                if not d:
                    return None
                acc += c.numerator * pow(d, -1, p) * pow(s, e, p)
            return acc % p

        n, d = ev(num), ev(den)
        if n is None or not d:
            return None
        return n * pow(d, -1, p) % p

    def eval_sqrtq(self, q0) -> QuadExt:
        """Exact value at v = sqrt(q0) for rational q0 > 0: v^e is
        q0^(e/2) for even e and q0^((e-1)/2) sqrt(q0) for odd e."""
        q0 = Fraction(q0)
        if q0 <= 0:
            raise DenominatorVanishes("need q0 > 0")
        parts = []
        for poly in self.base:
            rat = irr = Fraction(0)
            for e, c in poly.items():
                if e % 2:
                    irr += c * q0 ** (e // 2)
                else:
                    rat += c * q0 ** (e // 2)
            parts.append(QuadExt(rat, irr, q0))
        num, den = parts
        if not den:
            raise DenominatorVanishes(f"denominator vanishes at v = sqrt({q0})")
        return num / den

    def sign_at_sqrtq(self, q0) -> int:
        """Exact sign at v = sqrt(q0) > 0."""
        return self.eval_sqrtq(q0).sign()

    # -- formatting --------------------------------------------------
    @staticmethod
    def _fmt_poly(p):
        if not p:
            return "0"
        parts = []
        for e in sorted(p, reverse=True):
            c = p[e]
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "v" if e == 1 else f"v^{e}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def to_text(self) -> str:
        num, den = self.base
        if not num:
            return "0"
        shift = min(0, min(num))
        if shift:
            num = lp_shift(num, -shift)
            den = lp_shift(den, -shift)
        if len(den) == 1 and den.get(0) == 1:
            return self._fmt_poly(num)
        return f"({self._fmt_poly(num)})/({self._fmt_poly(den)})"

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"FieldElem({self.to_text()})"


_ZERO_ELEM = FieldElem(_RF_ZERO)
_ONE_ELEM = FieldElem(_RF_ONE)

ZERO = _ZERO_ELEM
ONE = _ONE_ELEM


def qint(k: int, t: FieldElem) -> FieldElem:
    """The q-integer (k)_t = 1 + t + ... + t^(k-1)."""
    if k < 0:
        raise ValueError("qint needs k >= 0")
    result = ZERO
    for _ in range(k):
        result = result * t + ONE
    return result


def sym_qint(m: int, vexp: int) -> FieldElem:
    """Symmetric quantum integer [m] for q_i = v^vexp:
    (q_i^m - q_i^-m)/(q_i - q_i^-1) as a Laurent polynomial."""
    if m < 0:
        return -sym_qint(-m, vexp)
    num = {}
    for j in range(m):
        num[vexp * (m - 1 - 2 * j)] = 1
    return FieldElem((num, _one_poly())) if num else ZERO


def sym_qbinom(m: int, k: int, vexp: int) -> FieldElem:
    """Symmetric Gaussian binomial [m choose k] for q_i = v^vexp."""
    if k < 0 or k > m:
        return ZERO
    result = ONE
    for j in range(1, k + 1):
        result = result * sym_qint(m - k + j, vexp) / sym_qint(j, vexp)
    return result
