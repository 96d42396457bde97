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
at most two products instead of n.  The supports come first: d, the
Cartan matrix and the coordinates of the simple roots are read off
them, and the positive roots are kept as supports only, so the build
is quadratic in the rank.

vector_weights gives the basis weights of the vector representation,
y_weight the highest weight lam_y of y; actions and spectrum read both.

CartanData is fixed by N: cartan_data(N) builds it once per process
and returns the shared, read-only object.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import prod

from .errors import NonDominantWeight


class CartanData:
    """Cartan matrix, simple roots, fundamental weights, the supports
    of the positive roots and the Weyl dimension formula for so_N."""

    __slots__ = (
        "N", "series", "n", "simple_roots", "fundamental_weights",
        "cartan_matrix", "d", "simple_support", "positive_support",
        "rho2", "weyl_den",
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

        # integer (index, coefficient) supports of the simple roots;
        # weyl_dim works with 2*lam and 2*rho against these
        simple = [((i, 1), (i + 1, -1)) for i in range(n - 1)]
        if self.series == "B":
            simple.append(((n - 1, 1),))
        else:
            simple.append(((n - 2, 1), (n - 1, 1)))
        self.simple_support = simple
        self.simple_roots = [_root(n, a) for a in simple]

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

        # (alpha_i, alpha_j) over the supports, at most two products each
        sparse = [dict(a) for a in simple]
        gram = [[sum(c * b.get(i, 0) for i, c in a) for b in sparse] for a in simple]
        self.d = [Fraction(g[i], 2) for i, g in enumerate(gram)]
        self.cartan_matrix = [[2 * x // g[i] for x in g] for i, g in enumerate(gram)]

        pos = []
        for i in range(n):
            for j in range(i + 1, n):
                pos.append(((i, 1), (j, -1)))
                pos.append(((i, 1), (j, 1)))
        if self.series == "B":
            pos.extend(((i, 1),) for i in range(n))
        self.positive_support = pos
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


def _root(n: int, support) -> tuple:
    """The Fraction coordinates of a root given by its support."""
    w = [Fraction(0)] * n
    for i, c in support:
        w[i] = Fraction(c)
    return tuple(w)


def _pair_support(support, x) -> int:
    """(root, x) for a root given by its support and an integer vector x."""
    total = 0
    for i, c in support:
        total += c * x[i]
    return total


def vector_weights(cartan: CartanData) -> list:
    """The weights of v_1, ..., v_N: -eps_j for j <= n, eps_(N+1-j) for
    N + 1 - j <= n, 0 at the middle index of odd N."""
    N, n = cartan.N, cartan.n
    return [_root(n, ((j - 1, -1),) if j <= n else
                  ((N - j, 1),) if N - j < n else ())
            for j in range(1, N + 1)]


def y_weight(cartan: CartanData) -> tuple:
    """lam_y = 2 w_1 - alpha_1 in epsilon coordinates."""
    return tuple(2 * w - a for w, a in zip(cartan.fundamental_weights[0],
                                           cartan.simple_roots[0]))


@cache
def cartan_data(N: int) -> CartanData:
    """The CartanData of so_N, built once per process.  The returned
    object is shared by every caller and is read-only."""
    return CartanData(N)
