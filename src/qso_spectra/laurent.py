"""Kernels for Laurent polynomial arithmetic over Q.

A Laurent polynomial in the variable v is a dict {exponent: coefficient}
with no zero values.  A coefficient is an int exactly when it is
integral and a Fraction only when it is not, so a polynomial over Z
runs on int arithmetic alone; every kernel returning a dict keeps that
rule (``lp_ints``).  Python's numeric tower keeps int/Fraction mixing
exact, but int / int is a float, so every division of coefficients goes
through Fraction.  A dense polynomial is a list of coefficients indexed
by exponent (trailing zeros stripped, [] is the zero polynomial).
"""

from fractions import Fraction
from math import gcd as igcd

_ZERO = 0


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
        s = out.get(e, _ZERO) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return lp_ints(out)


def lp_neg(a):
    return {e: -c for e, c in a.items()}


def lp_sub(a, b):
    if not b:
        return dict(a)
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, _ZERO) - c
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
            s = out.get(e, _ZERO) + ca * cb
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


def lp_eval(a, x):
    """Evaluate at a nonzero rational x."""
    total = _ZERO
    for e, c in a.items():
        total += c * x ** e
    return total


def plist_divmod(a, b):
    """Quotient and remainder of dense polynomial lists (b nonzero)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    db = len(b) - 1
    lb = b[db]
    q = [_ZERO] * max(len(r) - db, 0)
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
