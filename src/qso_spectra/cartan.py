"""Root-system data for the orthogonal series B_n (N = 2n+1 odd) and
D_n (N = 2n even) in epsilon coordinates.

Weights and roots are length-n tuples of Fractions in the orthogonal
basis (eps_1, ..., eps_n).  The invariant bilinear form is
(eps_i, eps_j) = delta_ij for both series, so long roots have length
squared 2 and the short B_n root alpha_n = eps_n has length squared 1
(d_n = 1/2, q_n = q^(1/2) = v).  This is the normalization under which
the R-matrix entries q^(delta_ij - delta_ij') arise from the vector
representation, and pairings (x, y) against root-lattice elements give
v-monomials q^(x, y) = v^(2(x, y)).

Roots have integer coordinates and 2*lam is integral for every weight
lam, so the Weyl dimension formula runs over integers on 2*lam and
2*rho (Humphreys, Introduction to Lie Algebras and Representation
Theory, 24.3).  Every root is eps_i, eps_i - eps_j or eps_i + eps_j, so
it has at most two nonzero coordinates; weyl_dim pairs against each
root through its (index, coefficient) support only, so a pairing costs
at most two products instead of n.

CartanData is fixed by N: cartan_data(N) builds it once per process
and returns the shared, read-only object.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import prod

from .errors import NonDominantWeight


class CartanData:
    """Cartan matrix, simple roots, fundamental weights, positive
    roots and the Weyl dimension formula for so_N."""

    __slots__ = (
        "N", "series", "n", "simple_roots", "fundamental_weights",
        "cartan_matrix", "d", "positive_roots", "simple_support",
        "positive_support", "rho2", "weyl_den",
    )

    def __init__(self, N: int):
        if N < 5:
            raise ValueError("N >= 5 required")
        self.N = N
        if N % 2:
            self.series = "B"
            self.n = (N - 1) // 2
        else:
            self.series = "D"
            self.n = N // 2
        n = self.n

        def eps(i, c=1):
            w = [Fraction(0)] * n
            w[i - 1] = Fraction(c)
            return tuple(w)

        def add(x, y):
            return tuple(a + b for a, b in zip(x, y))

        def sub(x, y):
            return tuple(a - b for a, b in zip(x, y))

        roots = [sub(eps(i), eps(i + 1)) for i in range(1, n)]
        if self.series == "B":
            roots.append(eps(n))
        else:
            roots.append(add(eps(n - 1), eps(n)))
        self.simple_roots = roots

        if self.series == "B":
            fw = [tuple(Fraction(1) if j < i else Fraction(0) for j in range(n))
                  for i in range(1, n)]
            fw.append(tuple(Fraction(1, 2) for _ in range(n)))
        else:
            fw = [tuple(Fraction(1) if j < i else Fraction(0) for j in range(n))
                  for i in range(1, n - 1)]
            fw.append(tuple(Fraction(1, 2) if j < n - 1 else Fraction(-1, 2)
                            for j in range(n)))
            fw.append(tuple(Fraction(1, 2) for _ in range(n)))
        self.fundamental_weights = fw

        self.d = [self.pair(a, a) / 2 for a in roots]
        self.cartan_matrix = [
            [int(2 * self.pair(ai, aj) / self.pair(ai, ai)) for aj in roots]
            for ai in roots
        ]

        pos = []
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                pos.append(sub(eps(i), eps(j)))
                pos.append(add(eps(i), eps(j)))
        if self.series == "B":
            for i in range(1, n + 1):
                pos.append(eps(i))
        self.positive_roots = pos

        # integer (index, coefficient) supports for weyl_dim, which works
        # with 2*lam and 2*rho
        self.simple_support = [_support(a) for a in roots]
        self.positive_support = [_support(a) for a in pos]
        self.rho2 = tuple(int(2 * sum(c)) for c in zip(*fw))
        self.weyl_den = prod(_pair_support(a, self.rho2)
                             for a in self.positive_support)

    # -- bilinear form -------------------------------------------------
    def pair(self, x, y) -> Fraction:
        """Invariant form (x, y)."""
        return sum(a * b for a, b in zip(x, y))

    def pair2(self, x, y) -> int:
        """2(x, y) as an exact integer (v-exponent of q^(x,y))."""
        t = 2 * self.pair(x, y)
        if t.denominator != 1:
            raise ValueError(f"pairing 2({x},{y}) is not an integer")
        return int(t)

    def coroot_pair(self, i: int, y) -> Fraction:
        """(alpha_i^vee, y) = 2 (alpha_i, y) / (alpha_i, alpha_i)."""
        a = self.simple_roots[i - 1]
        return 2 * self.pair(a, y) / self.pair(a, a)

    # -- lattice helpers -----------------------------------------------
    def weight(self, coeffs) -> tuple:
        """Integer combination sum_i coeffs[i] * fundamental_weights[i]."""
        out = [Fraction(0)] * self.n
        for c, w in zip(coeffs, self.fundamental_weights):
            for k in range(self.n):
                out[k] += c * w[k]
        return tuple(out)

    def weyl_dim(self, lam) -> int:
        """Dimension of the irreducible module of highest weight lam:
        prod over positive roots a of (2 lam + 2 rho, a) / (2 rho, a),
        all in integers."""
        lam2 = []
        for x in lam:
            num, den = 2 * x.numerator, x.denominator
            if num % den:
                raise ValueError(f"{lam} is not a weight: 2*lam is not integral")
            lam2.append(num // den)
        if any(_pair_support(a, lam2) < 0 for a in self.simple_support):
            raise NonDominantWeight(f"{lam} is not dominant")
        shifted = [a + b for a, b in zip(lam2, self.rho2)]
        num = prod(_pair_support(a, shifted) for a in self.positive_support)
        dim, rem = divmod(num, self.weyl_den)
        if rem:
            raise ValueError("Weyl dimension is not an integer")
        return dim


def _support(root) -> tuple:
    """The (index, coefficient) pairs of a root's nonzero coordinates,
    as integers."""
    return tuple((i, int(c)) for i, c in enumerate(root) if c)


def _pair_support(support, x) -> int:
    """(root, x) for a root given by its support and an integer vector x."""
    total = 0
    for i, c in support:
        total += c * x[i]
    return total


@cache
def cartan_data(N: int) -> CartanData:
    """The CartanData of so_N, built once per process.  The returned
    object is shared by every caller and is read-only."""
    return CartanData(N)
