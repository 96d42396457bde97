"""Kernels for Laurent polynomial arithmetic over Q.

A Laurent polynomial in the variable v is a dict {exponent: Fraction}
with no zero values.  A dense polynomial is a list of Fractions indexed
by exponent (trailing zeros stripped, [] is the zero polynomial).
"""

from fractions import Fraction

_ZERO = Fraction(0)


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
    return out


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
    return out


def lp_mul(a, b):
    if not a or not b:
        return {}
    if len(a) == 1:
        (ea, ca), = a.items()
        return {ea + e: ca * c for e, c in b.items()}
    if len(b) == 1:
        (eb, cb), = b.items()
        return {eb + e: cb * c for e, c in a.items()}
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            s = out.get(e, _ZERO) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def lp_scale(a, c):
    if not c:
        return {}
    return {e: co * c for e, co in a.items()}


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
        f = r[dr] / lb
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
    """Rescale to integer coefficients with content 1 (keeps Euclid's
    intermediate fractions small)."""
    if not p:
        return p
    from math import gcd as igcd

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
    return [Fraction(n) for n in ints]


def plist_gcd(a, b):
    """Monic gcd of dense polynomial lists."""
    x, y = _primitive(list(a)), _primitive(list(b))
    while y:
        _, r = plist_divmod(x, y)
        x, y = y, _primitive(r)
    if x:
        lead = x[-1]
        if lead != 1:
            x = [c / lead for c in x]
    return x
