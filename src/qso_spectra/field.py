"""Exact coefficient field: rational functions in v = q^(1/2) over Q.

A Laurent polynomial in v is a dict {exponent: coefficient} with no zero
values; the lp_* kernels below are its arithmetic.  A coefficient is an
int exactly when it is integral and a Fraction only when it is not
(``lp_ints``), so a Laurent polynomial over Z, which is what the algebra
layers multiply, never touches Fraction arithmetic.  int / int is a
float, so every division of coefficients goes through Fraction.
Fraction(3) == 3 and hash(Fraction(3)) == hash(3), so the coefficient
type changes neither equality, hashing nor any printed text.  A dense
polynomial is a list of coefficients indexed by exponent (trailing
zeros stripped, [] is the zero polynomial).

An element of Q(v) is a pair of Laurent dicts (numerator, denominator)
in canonical form: the denominator is a polynomial dict with nonzero
constant term normalized to 1, and gcd(numerator, denominator) = 1
after factoring a v-power out of the numerator.  Zero is ({}, {0: 1}).
Every rational function has exactly one such pair, so ``==`` and
``hash`` read the pair and do no arithmetic.  An element whose v-powers
are all even lies in Q(q): eval_q and eval_mod evaluate it at a point q0
or a residue of q, and raise ValueError on an odd v-power rather than
take a square root.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as igcd

from .errors import DenominatorVanishes
from .quadext import QuadExt

# -- Laurent polynomials ----------------------------------------------------


def lp_ints(a):
    """a with every integral coefficient stored as an int.  The sum of
    the coefficients is an int exactly when every one of them is, and
    sum() adds ints in C, so the all-int case costs one pass in C."""
    if sum(a.values()).__class__ is int:
        return a
    return {e: c.numerator if c.denominator == 1 else c for e, c in a.items()}


def lp_add(a, b):
    """Sum of two Laurent dicts."""
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return lp_ints(out)


def lp_mul(a, b):
    if not a or not b:
        return {}
    if len(a) == 1:
        (ea, ca), = a.items()
        return lp_ints({ea + e: ca * c for e, c in b.items()})
    if len(b) == 1:
        (eb, cb), = b.items()
        return lp_ints({eb + e: cb * c for e, c in a.items()})
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return lp_ints(out)


def lp_scale(a, c):
    if not c:
        return {}
    return lp_ints({e: co * c for e, co in a.items()})


def lp_shift(a, k):
    """Multiply by v**k."""
    if not k:
        return dict(a)
    return {e + k: c for e, c in a.items()}


def plist_divmod(a, b):
    """Quotient and remainder of dense polynomial lists (b nonzero)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    db = len(b) - 1
    lb = b[db]
    q = [0] * max(len(r) - db, 0)
    while len(r) - 1 >= db:
        dr = len(r) - 1
        if not r[dr]:
            r.pop()
            continue
        f = Fraction(r[dr]) / lb
        q[dr - db] = f
        for i in range(db + 1):
            r[dr - db + i] -= f * b[i]
        r.pop()
    while r and not r[-1]:
        r.pop()
    while q and not q[-1]:
        q.pop()
    return q, r


def _primitive(p):
    """Rescale to int coefficients with content 1 (keeps Euclid's
    intermediate fractions small)."""
    if not p:
        return p
    den = 1
    for c in p:
        den = den * c.denominator // igcd(den, c.denominator)
    g = 0
    ints = []
    for c in p:
        n = int(c * den)
        ints.append(n)
        g = igcd(g, n)
    if g > 1:
        ints = [n // g for n in ints]
    return ints


def plist_gcd(a, b):
    """Monic gcd of dense polynomial lists."""
    x, y = _primitive(list(a)), _primitive(list(b))
    while y:
        _, r = plist_divmod(x, y)
        x, y = y, _primitive(r)
    if x:
        lead = x[-1]
        if lead != 1:
            x = [Fraction(c) / lead for c in x]
    return x


# -- canonical pairs --------------------------------------------------------


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
    if len(den) > 1:
        nmin = min(num)
        npoly = lp_shift(num, -nmin) if nmin else num
        g = plist_gcd(_lp_to_list(npoly), _lp_to_list(den))
        if len(g) > 1:
            # g divides den, whose constant term is nonzero, so the
            # quotient's constant term is nonzero too: no v-power to shift
            nq, _ = plist_divmod(_lp_to_list(npoly), g)
            dq, _ = plist_divmod(_lp_to_list(den), g)
            num = lp_shift(_list_to_lp(nq), nmin)
            den = _list_to_lp(dq)
    c = den[0]
    if c != 1:
        inv = Fraction(1) / c
        num = lp_scale(num, inv)
        den = lp_scale(den, inv)
    return num, den


# -- the field --------------------------------------------------------------


class FieldElem:
    """Element of Q(v): one canonical numerator/denominator pair."""

    __slots__ = ("base",)

    def __init__(self, base):
        self.base = base

    # -- constructors ------------------------------------------------
    @classmethod
    def from_rational(cls, r) -> "FieldElem":
        return cls.monomial(r, 0)

    @classmethod
    def monomial(cls, coeff, vexp: int) -> "FieldElem":
        coeff = Fraction(coeff)
        if not coeff:
            return ZERO
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
        return bool(self.base[0])

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
        n1, d1 = self.base
        n2, d2 = o.base
        if d1 == d2:
            if len(d1) == 1:
                return FieldElem((lp_add(n1, n2), _one_poly()))
            return FieldElem(_rf_norm(lp_add(n1, n2), d1))
        return FieldElem(_rf_norm(lp_add(lp_mul(n1, d2), lp_mul(n2, d1)),
                                  lp_mul(d1, d2)))

    __radd__ = __add__

    def __neg__(self):
        num, den = self.base
        return FieldElem(({e: -c for e, c in num.items()}, den))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is ONE:
            return self
        if self is ONE:
            return o
        n1, d1 = self.base
        n2, d2 = o.base
        if len(d1) == 1 and len(d2) == 1:
            return FieldElem((lp_mul(n1, n2), _one_poly()))
        return FieldElem(_rf_norm(lp_mul(n1, n2), lp_mul(d1, d2)))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElem":
        """den/num, canonical without a gcd: the pair is already
        coprime, so only the numerator's v-power moves to the new
        numerator and its lowest coefficient is divided out."""
        num, den = self.base
        if not num:
            raise ZeroDivisionError("division by zero field element")
        k = min(num)
        num, den = lp_shift(den, -k), lp_shift(num, -k)
        c = den[0]
        if c != 1:
            inv = Fraction(1) / c
            num, den = lp_scale(num, inv), lp_scale(den, inv)
        return FieldElem((num, den))

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
        return self.base == o.base

    def __hash__(self):
        num, den = self.base
        return hash((tuple(sorted(num.items())), tuple(sorted(den.items()))))

    # -- evaluation --------------------------------------------------
    @staticmethod
    def _value(pair, x0, var: str) -> Fraction:
        """Exact value of the (numerator, denominator) pair at var = x0."""
        x0 = Fraction(x0)
        if not x0:
            raise DenominatorVanishes(f"{var} = 0 is outside the domain")
        num, den = (sum(c * x0 ** e for e, c in p.items()) for p in pair)
        if not den:
            raise DenominatorVanishes(f"denominator vanishes at {var} = {x0}")
        return num / den

    def eval_v(self, v0) -> Fraction:
        """Exact value at v = v0."""
        return self._value(self.base, v0, "v")

    def _in_q(self):
        """The pair as Laurent dicts in q = v^2; ValueError on an odd
        v-power, which puts self outside Q(q)."""
        if any(e % 2 for poly in self.base for e in poly):
            raise ValueError(f"{self.to_text()} has an odd power of v")
        return [{e // 2: c for e, c in poly.items()} for poly in self.base]

    def eval_q(self, q0) -> Fraction:
        """Exact value at q = v^2 = q0 of an element of Q(q)."""
        return self._value(self._in_q(), q0, "q")

    def eval_mod(self, r: int, p: int) -> int | None:
        """Image in F_p under q |-> r of an element of Q(q), for a prime p
        and a unit r mod p.

        None when a coefficient denominator or the value's denominator
        vanishes mod p: the element then has no image, and the caller
        must use an exact evaluation instead.  ValueError on an odd
        v-power, as eval_q."""
        num, den = self._in_q()

        def ev(poly):
            acc = 0
            for e, c in poly.items():
                d = c.denominator % p
                if not d:
                    return None
                acc += c.numerator * pow(d, -1, p) * pow(r, e, p)
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


ZERO = FieldElem(({}, _one_poly()))
ONE = FieldElem(({0: 1}, _one_poly()))


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
