"""Dolbeault-Laplacian eigenvalues on zero forms, exact and rational.

The zero-form algebra decomposes multiplicity-freely over pairs
(k, l) of nonnegative integers (powers y^k z^l of the two spherical
generators); on the (k, l) component the Laplacian acts by

    lam(k, l) = theta (k)_{q^2} (k-1)_{q^-2} + (k)_{q^2} mu_y
              + (l)_{q^2} (k)_{q^2} theta1 + (l)_{q^-2} (k)_{q^-2} theta2
              + (l)_{q^-2} mu_z + (l)_{q^-2} (l-1)_{q^2} theta3,

with (m)_t = 1 + t + ... + t^{m-1}.  The six constants are inputs: the
admissible region is mu_y > 0, mu_z > 0, theta1 > 0, theta3 > 0 and
theta >= -(1 - q^-2) mu_y (boundary allowed), theta2 unconstrained.
The eigenspace multiplicity is the Weyl dimension of the highest
weight 2l*w_1 + k*lam_y with lam_y = 2*w_1 - alpha_1 (cartan.y_weight).

Each formula has one evaluator: lam(k, l) is computed only by
_QintTable, as an integer over the common denominator of its shell
k + l, and the multiplicity only by CartanData.weyl_dim.  The
multiplicity and the printed weight depend on N, k and l alone, not on
q or the constants, so _component computes them once per process per
(CartanData, k, l), and spectrum_table and check_divergence read them
from there.

One turn per shell.  On the shell k + l = m write t = q^2 and x = t^k,
so t^l = t^m / x.  Every q-integer in lam is affine in x or in 1/x:
(k)_t = (x - 1)/(t - 1) and (l)_{1/t} = (1 - x/t^m)/(1 - 1/t) in x,
(k-1)_{1/t}, (k)_{1/t}, (l)_t and (l-1)_t in 1/x.  Each product in lam
pairs a factor in x with a factor in 1/x, so

    lam(k, l) = U t^k + W t^-k + D

with U, W and D depending only on m and the constants.  Its first
difference in k is (t - 1) t^-k (U t^(2k) - W/t); the last factor is
monotone in k, so the differences change sign at most once along a
shell (for t = 1, lam is a quadratic in k and its difference is
linear).  The shell minimum is therefore s(0) or s(m) of
s(l) = lam(m - l, l), unless s(1) < s(0) and s(m-1) < s(m); then the
differences turn from negative to nonnegative once, and the minimum is
s at the first l with s(l+1) >= s(l), which bisection finds.
check_divergence uses this to read each shell minimum from O(log m)
exact integer evaluations.

Integer comparisons.  spectrum_table sorts on
value * scale(kmax + lmax), an integer because every shell scale
divides the largest one.  check_divergence tests lam <= p/r as
scaled * r <= p * scale(m), cross-multiplied.  An eigenvalue becomes a
Fraction only where the report prints it: the table's values and the
divergence report's shell minima.  The weights are Fractions,
2l*w_1 + k*lam_y with w_1 and lam_y read from cartan (for so_N,
w_1 = eps_1 and lam_y = eps_1 + eps_2).
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from functools import cache
from math import lcm

from .cartan import CartanData, y_weight
from .errors import BoundNotCleared, ParamsNotValidated


class _QintTable:
    """lam(k, l) for k, l <= mmax through integer numerators; the only
    evaluator of the formula.

    With q^2 = a/b in lowest terms, (m)_{q^2} = S(m)/b^(m-1) and
    (m)_{q^-2} = S(m)/a^(m-1), where S(m) = sum_i a^i b^(m-1-i).  So on
    the shell k + l = n, scale(n) * lam(k, l) is an integer, where
    scale(n) = a^n b^n L and L is the common denominator of the six
    constants."""

    def __init__(self, p: SpectralParams, mmax: int):
        q2 = p.q * p.q
        a, b = q2.numerator, q2.denominator
        consts = (p.theta, p.mu_y, p.theta1, p.theta2, p.mu_z, p.theta3)
        L = self.L = lcm(*(c.denominator for c in consts))
        (self.theta, self.mu_y, self.theta1, self.theta2, self.mu_z,
         self.theta3) = (c.numerator * (L // c.denominator) for c in consts)
        self.apow = [1] * (2 * mmax + 3)
        self.bpow = [1] * (2 * mmax + 3)
        for i in range(1, 2 * mmax + 3):
            self.apow[i] = self.apow[i - 1] * a
            self.bpow[i] = self.bpow[i - 1] * b
        self.s = [0] * (mmax + 2)
        for m in range(1, mmax + 2):
            self.s[m] = self.s[m - 1] * a + self.bpow[m - 1]

    def scale(self, n: int) -> int:
        return self.apow[n] * self.bpow[n] * self.L

    def scaled(self, k: int, l: int) -> int:
        """scale(k + l) * lam(k, l)."""
        A, B, S = self.apow, self.bpow, self.s
        n = k + l
        sk, sl = S[k], S[l]
        total = 0
        if k:
            total += self.mu_y * sk * A[n] * B[l + 1]
            if k > 1:
                total += self.theta * sk * S[k - 1] * A[l + 2] * B[l + 1]
        if l:
            total += self.mu_z * sl * A[k + 1] * B[n]
            if l > 1:
                total += self.theta3 * sl * S[l - 1] * A[k + 1] * B[k + 2]
            if k:
                total += (self.theta1 * A[n - 2]
                          + self.theta2 * B[n - 2]) * sl * sk * A[2] * B[2]
        return total

    def value(self, k: int, l: int) -> Fraction:
        """lam(k, l) from the precomputed tables."""
        return Fraction(self.scaled(k, l), self.scale(k + l))


class SpectralParams:
    """Exact rational Laplacian constants with a cached validation."""

    __slots__ = ("theta", "theta1", "theta2", "theta3", "mu_y", "mu_z",
                 "q", "validated")

    def __init__(self, theta=0, theta1=1, theta2=0, theta3=1,
                 mu_y=1, mu_z=1, q=Fraction(11, 10)):
        self.theta = Fraction(theta)
        self.theta1 = Fraction(theta1)
        self.theta2 = Fraction(theta2)
        self.theta3 = Fraction(theta3)
        self.mu_y = Fraction(mu_y)
        self.mu_z = Fraction(mu_z)
        self.q = Fraction(q)
        if self.q <= 0:
            raise ValueError("q must be positive")
        self.validated = None

    def as_dict(self) -> dict:
        return {
            "theta": str(self.theta), "theta1": str(self.theta1),
            "theta2": str(self.theta2), "theta3": str(self.theta3),
            "mu_y": str(self.mu_y), "mu_z": str(self.mu_z), "q": str(self.q),
        }


def boundary_theta(p: SpectralParams) -> Fraction:
    """The least admissible theta, -(1 - q^-2) mu_y."""
    return -(1 - 1 / (p.q * p.q)) * p.mu_y


def _warn_unvalidated(p: SpectralParams) -> None:
    if p.validated is None:
        warnings.warn("spectral params used without validate_params",
                      ParamsNotValidated, stacklevel=3)


def validate_params(p: SpectralParams) -> dict:
    """Check the admissible-parameter region; caches the verdict on p.

    The theta lower bound is inclusive: on the boundary the k-lane
    (l = 0) eigenvalues converge to a finite limit instead of
    diverging, which is admissible but changes the divergence
    profile.  theta2 is unconstrained (its terms stay bounded).
    """
    floor = boundary_theta(p)
    checks = [
        ("mu_y > 0", p.mu_y > 0),
        ("mu_z > 0", p.mu_z > 0),
        ("theta1 > 0", p.theta1 > 0),
        ("theta3 > 0", p.theta3 > 0),
        ("theta >= -(1 - q^-2) mu_y", p.theta >= floor),
        ("q > 1", p.q > 1),
    ]
    failures = [name for name, ok in checks if not ok]
    p.validated = not failures
    return {
        "params": p.as_dict(),
        "checks": [{"constraint": name, "status": "pass" if ok else "fail"}
                   for name, ok in checks],
        "failures": failures,
        "boundary_theta": p.theta == floor,
        "status": "verified" if not failures else "failed",
    }


def eigenvalue(k: int, l: int, p: SpectralParams) -> Fraction:
    """Exact eigenvalue lam(k, l); warns when p was never validated."""
    if k < 0 or l < 0:
        raise ValueError("k, l must be nonnegative")
    _warn_unvalidated(p)
    return _QintTable(p, max(k, l)).value(k, l)


@cache
def _component(cartan: CartanData, k: int, l: int) -> tuple:
    """(multiplicity, weight) of the (k, l) eigenspace: the Weyl
    dimension and the Fraction coordinates of 2l*w_1 + k*lam_y, with
    w_1 and lam_y from cartan.  Neither depends on q or the constants,
    so each is computed once per process per (cartan, k, l);
    cartan_data(N) is one object per N."""
    weight = tuple(2 * l * w + k * y for w, y in
                   zip(cartan.fundamental_weights[0], y_weight(cartan)))
    return cartan.weyl_dim(weight), weight


def spectrum_table(p: SpectralParams, cartan: CartanData,
                   kmax: int, lmax: int) -> list:
    """All records with k <= kmax, l <= lmax, sorted by (value, k+l, k).

    Every value times top = scale(kmax + lmax) is an integer, so the
    sort compares integers; the record's weight is printed as Fractions.
    The multiplicity and the weight come from _component, computed once
    per process per (cartan, k, l); only the value depends on p."""
    _warn_unvalidated(p)
    table = _QintTable(p, max(kmax, lmax))
    top = table.scale(kmax + lmax)
    records = []
    for k in range(kmax + 1):
        for l in range(lmax + 1):
            mult, weight = _component(cartan, k, l)
            records.append({
                "k": k,
                "l": l,
                "value": table.value(k, l),
                "multiplicity": mult,
                "weight": weight,
            })
    records.sort(key=lambda r: (
        top // r["value"].denominator * r["value"].numerator,
        r["k"] + r["l"], r["k"]))
    return records


def _shell_minimum(table: _QintTable, m: int, s0: int) -> int:
    """min over k + l = m of table.scaled(k, l), given s0 = scaled(m, 0).

    By the one-turn lemma of the module docstring the first differences
    of s(l) = scaled(m - l, l) change sign at most once, so the minimum
    is s(0) or s(m) unless s(1) < s(0) and s(m-1) < s(m); then it is s
    at the first l with s(l+1) >= s(l), found by integer bisection.
    Every comparison is exact, and it makes O(log m) evaluations."""
    if not m:
        return s0
    vals = {0: s0}

    def s(l):
        if l not in vals:
            vals[l] = table.scaled(m - l, l)
        return vals[l]

    if s(1) >= s0 or s(m - 1) >= s(m):
        return min(s0, s(m))
    # s(lo + 1) < s(lo) and s(hi + 1) >= s(hi): the turn lies in (lo, hi]
    lo, hi = 0, m - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if s(mid + 1) >= s(mid):
            hi = mid
        else:
            lo = mid
    return s(hi)


def _cleared(values: list, cuts: list, den: int):
    """The least m with values[m'] * den > cuts[m'] for every m' >= m,
    None when the last value does not exceed its cut."""
    out = None
    for m in range(len(values) - 1, -1, -1):
        if values[m] * den <= cuts[m]:
            break
        out = m
    return out


def check_divergence(p: SpectralParams, cartan: CartanData,
                     shell_max: int, bound) -> dict:
    """Certify shell divergence of the eigenvalue sequence.

    Computes the shell minima m |-> min_{k+l=m} lam(k, l) for
    m <= shell_max, finds the least m0 past which every shell minimum
    exceeds `bound`, and sums the multiplicities of all eigenvalues
    below `bound` (finite by construction once m0 exists).  The l = 0
    lane is tracked separately: on the boundary
    theta = -(1 - q^-2) mu_y it converges to a finite limit, so a bound
    above that limit is never cleared lane-wise.  Raises
    BoundNotCleared when the full shell minima never exceed the bound;
    warns ParamsNotValidated when p was never validated.

    Each shell minimum is certified, not sampled: one shell shares the
    denominator scale(m), so minima compare integer numerators, and by
    the one-turn lemma (module docstring) the minimum is s(0), s(m) or
    the bisected turning point, from O(log m) evaluations instead of
    m + 1.  Only the shells below m0 are scanned point by point, to
    count the eigenvalues below the bound; each multiplicity comes from
    _component, computed once per process per (cartan, k, l).
    """
    _warn_unvalidated(p)
    bound = Fraction(bound)
    num, den = bound.numerator, bound.denominator
    table = _QintTable(p, shell_max)
    # lam <= bound  <=>  scaled * den <= num * scale(m); only the printed
    # minima become Fractions
    cuts = [num * table.scale(m) for m in range(shell_max + 1)]
    minima = []
    lane_l0 = []
    for m in range(shell_max + 1):
        s0 = table.scaled(m, 0)
        minima.append(_shell_minimum(table, m, s0))
        lane_l0.append(s0)
    m0 = _cleared(minima, cuts, den)
    shown = [str(Fraction(s, table.scale(m))) for m, s in enumerate(minima)]
    if m0 is None:
        raise BoundNotCleared(
            f"shell minima never exceed {bound} within shell_max="
            f"{shell_max}; trajectory tail {shown[-5:]}")
    below_mult = 0
    below_count = 0
    for m in range(m0):
        cut = cuts[m]
        for l in range(m + 1):
            if table.scaled(m - l, l) * den <= cut:
                below_mult += _component(cartan, m - l, l)[0]
                below_count += 1
    return {
        "params": p.as_dict(),
        "bound": str(bound),
        "shell_max": shell_max,
        "m0": m0,
        "shell_minima": shown,
        "eigenvalues_below_bound": below_count,
        "multiplicity_below_bound": below_mult,
        "l0_lane_cleared_at": _cleared(lane_l0, cuts, den),
        "l0_lane_limit_exists": p.theta == boundary_theta(p),
        "status": "verified",
    }
