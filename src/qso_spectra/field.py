"""Exact coefficient field: rational functions in v = q^(1/2) over Q,
extended by the square-root adjoint c with c^2 = v + v^(-1).

Representation: a pair of Laurent dicts (numerator, denominator) in
canonical form, plus an optional second pair multiplying the adjoint.
Canonical form: the denominator is a polynomial dict with nonzero
constant term normalized to 1, and gcd(numerator, denominator) = 1
(after factoring a v-power out of the numerator).  Zero is ({}, {0: 1}).
"""

from __future__ import annotations

from fractions import Fraction

from .laurent import (
    lp_add,
    lp_eval,
    lp_mul,
    lp_neg,
    lp_scale,
    lp_shift,
    lp_sub,
    plist_divmod,
    plist_gcd,
)
from .errors import AdjointNotRational, DenominatorVanishes
from .quadext import QuadExt, sign_with_adjoint

_F0 = Fraction(0)
_F1 = Fraction(1)


def _one_poly():
    return {0: _F1}


def _lp_to_list(p):
    """Laurent dict with min exponent 0 -> dense list."""
    deg = max(p)
    out = [_F0] * (deg + 1)
    for e, c in p.items():
        out[e] = c
    return out


def _list_to_lp(lst):
    return {e: c for e, c in enumerate(lst) if c}


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
            num = lp_scale(num, 1 / c)
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
                num = lp_scale(num, 1 / c)
            return num, _one_poly()
    c = den[0]
    if c != 1:
        inv = 1 / c
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
_RF_ONE = ({0: _F1}, _one_poly())


# c^2 = v + v^(-1), the one normalization under which the short-root E/F
# entries of the odd-N vector representation satisfy the E-F commutator
_C_SQ = ({1: _F1, -1: _F1}, _one_poly())


class FieldElem:
    """Element a + b*c of Q(v) extended by the adjoint c."""

    __slots__ = ("base", "extp")

    def __init__(self, base, extp=None):
        self.base = base
        self.extp = None if extp is None or _rf_is_zero(extp) else extp

    # -- constructors ------------------------------------------------
    @classmethod
    def zero(cls) -> "FieldElem":
        return _ZERO_ELEM

    @classmethod
    def one(cls) -> "FieldElem":
        return _ONE_ELEM

    @classmethod
    def from_rational(cls, r) -> "FieldElem":
        r = Fraction(r)
        if not r:
            return _ZERO_ELEM
        return cls(({0: r}, _one_poly()))

    @classmethod
    def monomial(cls, coeff, vexp: int) -> "FieldElem":
        coeff = Fraction(coeff)
        if not coeff:
            return _ZERO_ELEM
        return cls(({vexp: coeff}, _one_poly()))

    @classmethod
    def v_pow(cls, k: int) -> "FieldElem":
        return cls.monomial(1, k)

    @classmethod
    def adjoint(cls) -> "FieldElem":
        """The adjoint c itself."""
        return cls(_RF_ZERO, _RF_ONE)

    # -- structure ---------------------------------------------------
    def _parts(self):
        return self.base, (self.extp if self.extp is not None else _RF_ZERO)

    @staticmethod
    def _coerce(x) -> "FieldElem":
        if isinstance(x, FieldElem):
            return x
        if isinstance(x, (int, Fraction)):
            return FieldElem.from_rational(x)
        return NotImplemented

    def __bool__(self):
        return not _rf_is_zero(self.base) or self.extp is not None

    # -- arithmetic --------------------------------------------------
    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.extp is None and o.extp is None:
            return FieldElem(_rf_add(self.base, o.base))
        a1, b1 = self._parts()
        a2, b2 = o._parts()
        return FieldElem(_rf_add(a1, a2), _rf_add(b1, b2))

    __radd__ = __add__

    def __neg__(self):
        return FieldElem(
            _rf_neg(self.base),
            _rf_neg(self.extp) if self.extp is not None else None,
        )

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.extp is None and o.extp is None:
            return FieldElem(_rf_sub(self.base, o.base))
        a1, b1 = self._parts()
        a2, b2 = o._parts()
        return FieldElem(_rf_sub(a1, a2), _rf_sub(b1, b2))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.extp is None and o.extp is None:
            return FieldElem(_rf_mul(self.base, o.base))
        a1, b1 = self._parts()
        a2, b2 = o._parts()
        base = _rf_add(_rf_mul(a1, a2), _rf_mul(_rf_mul(b1, b2), _C_SQ))
        extp = _rf_add(_rf_mul(a1, b2), _rf_mul(b1, a2))
        return FieldElem(base, extp)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElem":
        if self.extp is None:
            return FieldElem(_rf_inv(self.base))
        a, b = self._parts()
        norm = _rf_sub(_rf_mul(a, a), _rf_mul(_rf_mul(b, b), _C_SQ))
        inv_norm = _rf_inv(norm)
        return FieldElem(_rf_mul(a, inv_norm), _rf_neg(_rf_mul(b, inv_norm)))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result = _ONE_ELEM
        square = self
        while k:
            if k & 1:
                result = result * square
            square = square * square
            k >>= 1
        return result

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a1, b1 = self._parts()
        a2, b2 = o._parts()
        return _rf_is_zero(_rf_sub(a1, a2)) and _rf_is_zero(_rf_sub(b1, b2))

    def __hash__(self):
        b = tuple(sorted(self.base[0].items())), tuple(sorted(self.base[1].items()))
        if self.extp is None:
            return hash(b)
        e = tuple(sorted(self.extp[0].items())), tuple(sorted(self.extp[1].items()))
        return hash((b, e))

    # -- evaluation --------------------------------------------------
    def eval_v(self, v0) -> Fraction:
        """Exact value at v = v0 of an element without adjoint part."""
        v0 = Fraction(v0)
        if not v0:
            raise DenominatorVanishes("v = 0 is outside the domain")
        den = lp_eval(self.base[1], v0)
        if not den:
            raise DenominatorVanishes(f"denominator vanishes at v = {v0}")
        if self.extp is not None:
            raise AdjointNotRational(
                "element involves the adjoint c, which has no rational value")
        return lp_eval(self.base[0], v0) / den

    def eval_mod(self, s: int, p: int) -> int | None:
        """Image in F_p under v |-> s, for a prime p and a unit s mod p.

        None when a coefficient denominator or the value's denominator
        vanishes mod p, or when the element carries the adjoint part:
        the element then has no image, and the caller must use an exact
        evaluation instead."""
        if self.extp is not None:
            return None
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

    def _rf_eval_sqrtq(self, rf, q0: Fraction) -> QuadExt:
        out = QuadExt(0, 0, q0)
        num, den = rf
        for e, c in num.items():
            half, odd = divmod(e, 2)
            term = c * q0 ** half
            out = out + (QuadExt(0, term, q0) if odd else QuadExt(term, 0, q0))
        dval = QuadExt(0, 0, q0)
        for e, c in den.items():
            half, odd = divmod(e, 2)
            term = c * q0 ** half
            dval = dval + (QuadExt(0, term, q0) if odd else QuadExt(term, 0, q0))
        if not dval:
            raise DenominatorVanishes(f"denominator vanishes at v = sqrt({q0})")
        return out / dval

    def eval_sqrtq(self, q0) -> tuple[QuadExt, QuadExt]:
        """Value at v = sqrt(q0): returns (A, B) with total value A + B*c."""
        q0 = Fraction(q0)
        if q0 <= 0:
            raise DenominatorVanishes("need q0 > 0")
        a = self._rf_eval_sqrtq(self.base, q0)
        if self.extp is None:
            return a, QuadExt(0, 0, q0)
        return a, self._rf_eval_sqrtq(self.extp, q0)

    def sign_at_sqrtq(self, q0) -> int:
        """Exact sign at v = sqrt(q0) > 0 (adjoint c taken positive)."""
        q0 = Fraction(q0)
        a, b = self.eval_sqrtq(q0)
        if not b:
            return a.sign()
        c_sq = self._rf_eval_sqrtq(_C_SQ, q0)
        return sign_with_adjoint(a, b, c_sq)

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

    @staticmethod
    def _fmt_rf(rf) -> str:
        num, den = rf
        if not num:
            return "0"
        shift = min(0, min(num))
        if shift:
            num = lp_shift(num, -shift)
            den = lp_shift(den, -shift)
        if len(den) == 1 and den.get(0) == 1:
            return FieldElem._fmt_poly(num)
        return f"({FieldElem._fmt_poly(num)})/({FieldElem._fmt_poly(den)})"

    def to_text(self) -> str:
        base = self._fmt_rf(self.base)
        if self.extp is None:
            return base
        extp = self._fmt_rf(self.extp)
        if base == "0":
            return f"({extp})*c"
        return f"{base} + ({extp})*c"

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
        num[vexp * (m - 1 - 2 * j)] = _F1
    return FieldElem((num, _one_poly())) if num else ZERO


def sym_qbinom(m: int, k: int, vexp: int) -> FieldElem:
    """Symmetric Gaussian binomial [m choose k] for q_i = v^vexp."""
    if k < 0 or k > m:
        return ZERO
    result = ONE
    for j in range(1, k + 1):
        result = result * sym_qint(m - k + j, vexp) / sym_qint(j, vexp)
    return result
