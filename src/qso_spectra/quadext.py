"""Exact arithmetic in a real quadratic extension Q(sqrt(d)).

Used to evaluate coefficients at v = sqrt(q0) for rational q0 > 0 that
is not a perfect square, and to decide signs exactly.
"""

from __future__ import annotations

from fractions import Fraction


def _sign_fraction(x: Fraction) -> int:
    return (x > 0) - (x < 0)


class QuadExt:
    """The number a + b*sqrt(d) with a, b, d exact rationals, d > 0."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.d = Fraction(d)
        if self.d <= 0:
            raise ValueError("QuadExt requires d > 0")

    def _coerce(self, other) -> "QuadExt":
        if isinstance(other, QuadExt):
            if other.b and self.b and other.d != self.d:
                raise ValueError("mixed quadratic extensions")
            return other
        return QuadExt(other, 0, self.d)

    def _join_d(self, other: "QuadExt") -> Fraction:
        if self.b:
            return self.d
        if other.b:
            return other.d
        return self.d

    def __add__(self, other):
        o = self._coerce(other)
        return QuadExt(self.a + o.a, self.b + o.b, self._join_d(o))

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        d = self._join_d(o)
        return QuadExt(
            self.a * o.a + self.b * o.b * d,
            self.a * o.b + self.b * o.a,
            d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        norm = self.a * self.a - self.b * self.b * self.d
        if not norm:
            if not self.a and not self.b:
                raise ZeroDivisionError("QuadExt division by zero")
            raise ZeroDivisionError("d is a rational square; norm vanishes")
        return QuadExt(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except (ValueError, TypeError):
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b, self.d if self.b else 0))

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(d)."""
        if not self.b:
            return _sign_fraction(self.a)
        if not self.a:
            return _sign_fraction(self.b)
        sa, sb = _sign_fraction(self.a), _sign_fraction(self.b)
        if sa == sb:
            return sa
        # |a| vs |b|*sqrt(d): compare a^2 with b^2*d.
        cmp = self.a * self.a - self.b * self.b * self.d
        if cmp > 0:
            return sa
        if cmp < 0:
            return sb
        return 0

    def __repr__(self):
        return f"QuadExt({self.a}, {self.b}, sqrt={self.d})"

