"""Root-system data and the Weyl dimension formula for so_N."""

import time
from fractions import Fraction
from math import prod

import pytest

from qso_spectra.cartan import CartanData, cartan_data
from qso_spectra.errors import NonDominantWeight


def test_series_and_rank():
    assert CartanData(5).series == "B" and CartanData(5).n == 2
    assert CartanData(6).series == "D" and CartanData(6).n == 3
    assert CartanData(7).series == "B" and CartanData(7).n == 3
    assert CartanData(8).series == "D" and CartanData(8).n == 4
    with pytest.raises(ValueError):
        CartanData(4)


def test_cartan_matrices():
    assert CartanData(5).cartan_matrix == [[2, -1], [-2, 2]]
    assert CartanData(7).cartan_matrix == [
        [2, -1, 0], [-1, 2, -1], [0, -2, 2]]
    assert CartanData(8).cartan_matrix == [
        [2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]


def test_root_lengths():
    # B_n: short last node d_n = 1/2; D_n: all long
    b = CartanData(7)
    assert b.d == [Fraction(1), Fraction(1), Fraction(1, 2)]
    d = CartanData(8)
    assert d.d == [Fraction(1)] * 4


def _positive_roots(c):
    """The dense Fraction coordinates of c's positive roots, in the
    order of c.positive_support."""
    roots = []
    for support in c.positive_support:
        w = [Fraction(0)] * c.n
        for i, x in support:
            w[i] = Fraction(x)
        roots.append(tuple(w))
    return roots


def test_positive_root_count():
    # |Phi^+| = n^2 for B_n, n(n-1) for D_n
    for N in (5, 6, 7, 8):
        c = CartanData(N)
        expect = c.n * c.n if c.series == "B" else c.n * (c.n - 1)
        assert len(_positive_roots(c)) == expect


def test_fundamental_weight_duality():
    for N in (5, 6, 7, 8):
        c = CartanData(N)
        for i in range(1, c.n + 1):
            for j, w in enumerate(c.fundamental_weights, start=1):
                # (alpha_i^vee, w_j) = 2 (alpha_i, w_j) / (alpha_i, alpha_i)
                a = c.simple_roots[i - 1]
                assert 2 * c.pair(a, w) / c.pair(a, a) == (1 if i == j else 0)


def test_weyl_dim_vector_rep():
    # the vector representation of so_N has dimension N
    for N in (5, 6, 7, 8):
        c = CartanData(N)
        assert c.weyl_dim(c.fundamental_weights[0]) == N


def test_weyl_dim_known_values():
    c7 = CartanData(7)  # so_7 = B_3
    assert c7.weyl_dim((Fraction(0),) * 3) == 1
    assert c7.weyl_dim(c7.fundamental_weights[1]) == 21   # adjoint
    assert c7.weyl_dim(c7.fundamental_weights[2]) == 8    # spinor
    c8 = CartanData(8)  # so_8 = D_4
    assert c8.weyl_dim(c8.fundamental_weights[1]) == 28   # adjoint
    assert c8.weyl_dim(c8.fundamental_weights[2]) == 8    # half-spinor
    assert c8.weyl_dim(c8.fundamental_weights[3]) == 8
    c5 = CartanData(5)  # so_5 = B_2
    w1, w2 = c5.fundamental_weights
    assert c5.weyl_dim(tuple(2 * x for x in w1)) == 14
    assert c5.weyl_dim(tuple(2 * x for x in w2)) == 10    # adjoint


def test_nondominant_raises():
    c = CartanData(5)
    with pytest.raises(NonDominantWeight):
        c.weyl_dim((Fraction(-1), Fraction(0)))


def test_pair2_integrality():
    c = CartanData(7)
    for a in c.simple_roots:
        for b in _positive_roots(c):
            assert c.pair2(a, b) == int(2 * c.pair(a, b))
    # spinor weight paired with itself: 2*(3/4) not an integer? 3/2 -> no,
    # but against eps_1 it is 2*(1/2) = 1
    w = c.fundamental_weights[2]
    assert c.pair2(w, c.simple_roots[2]) == 1


def _dense_weyl_dim(c):
    """Humphreys 24.3 over every coordinate of every positive root, with
    rho as the half sum of the positive roots, on doubled integer
    vectors: lam |-> prod (2 lam + 2 rho, a) / prod (2 rho, a)."""
    roots = [[int(x) for x in a] for a in _positive_roots(c)]
    rho2 = [sum(col) for col in zip(*roots)]
    den = prod(sum(r * x for r, x in zip(rho2, a)) for a in roots)

    def dim(lam):
        shifted = [int(2 * x) + r for x, r in zip(lam, rho2)]
        num = prod(sum(s * x for s, x in zip(shifted, a)) for a in roots)
        assert num % den == 0
        return num // den

    return dim


def test_weyl_dim_matches_dense_product_on_spectrum_weights():
    # every eigenspace weight 2l*w_1 + k*lam_y, lam_y = 2 w_1 - alpha_1
    for N in range(5, 21):
        c = CartanData(N)
        dense = _dense_weyl_dim(c)
        w1, a1 = c.fundamental_weights[0], c.simple_roots[0]
        for k in range(13):
            for l in range(13):
                lam = tuple(2 * l * w + k * (2 * w - a) for w, a in zip(w1, a1))
                assert c.weyl_dim(lam) == dense(lam), (N, k, l)


def test_weyl_dim_matches_dense_product_on_fundamental_weights():
    # spin weights (half-integral coordinates) included
    for N in range(5, 21):
        c = CartanData(N)
        dense = _dense_weyl_dim(c)
        for w in c.fundamental_weights:
            assert c.weyl_dim(w) == dense(w), (N, w)


def test_nondominant_raises_at_every_rank():
    for N in (5, 6, 9, 12, 20):
        c = CartanData(N)
        w1, last = c.fundamental_weights[0], c.fundamental_weights[-1]
        for lam in (tuple(-x for x in w1), tuple(-x for x in last),
                    tuple(a - 2 * b for a, b in zip(w1, last))):
            with pytest.raises(NonDominantWeight):
                c.weyl_dim(lam)


def test_cartan_data_is_built_once_per_n():
    assert cartan_data(7) is cartan_data(7)
    assert cartan_data(7) is not cartan_data(8)
    assert cartan_data(7).cartan_matrix == CartanData(7).cartan_matrix


def _dense_reference(N):
    """cartan_matrix, d, positive_roots, rho2 and weyl_den from dense
    Fraction coordinates: pairings of length n and tuple arithmetic."""
    c = CartanData(N)
    n = c.n

    def eps(i):
        return tuple(Fraction(int(j == i - 1)) for j in range(n))

    def pair(x, y):
        return sum(a * b for a, b in zip(x, y))

    roots = [tuple(a - b for a, b in zip(eps(i), eps(i + 1))) for i in range(1, n)]
    roots.append(eps(n) if c.series == "B"
                 else tuple(a + b for a, b in zip(eps(n - 1), eps(n))))
    pos = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            pos.append(tuple(a - b for a, b in zip(eps(i), eps(j))))
            pos.append(tuple(a + b for a, b in zip(eps(i), eps(j))))
    if c.series == "B":
        pos += [eps(i) for i in range(1, n + 1)]
    rho2 = tuple(int(2 * sum(x)) for x in zip(*c.fundamental_weights))
    return {
        "simple_roots": roots,
        "cartan_matrix": [[int(2 * pair(a, b) / pair(a, a)) for b in roots]
                          for a in roots],
        "d": [pair(a, a) / 2 for a in roots],
        "positive_roots": pos,
        "rho2": rho2,
        "weyl_den": prod(int(pair(a, rho2)) for a in pos),
    }


@pytest.mark.parametrize("N", range(5, 31))
def test_cartan_fields_match_the_dense_formulas(N):
    c = CartanData(N)
    fields = {"positive_roots": _positive_roots(c)}
    for name, want in _dense_reference(N).items():
        got = fields[name] if name in fields else getattr(c, name)
        assert got == want, name
    assert [type(x) for x in c.d] == [Fraction] * c.n
    assert all(type(x) is Fraction for r in _positive_roots(c) for x in r)
    assert all(type(x) is int for row in c.cartan_matrix for x in row)


def test_large_rank_builds_within_budget():
    # the supports make the build quadratic in the rank: about 0.2 s at
    # N = 201 (n = 100), where dense Fraction pairings took over 10 s
    start = time.process_time()
    c = CartanData(201)
    assert time.process_time() - start < 4.0
    assert len(_positive_roots(c)) == 100 * 100
    assert c.weyl_dim(c.fundamental_weights[0]) == 201
