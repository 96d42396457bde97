"""Laplacian spectrum: exact eigenvalues, parameter validation,
multiplicities and divergence certification."""

import warnings
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qso_spectra.cartan import CartanData
from qso_spectra.errors import BoundNotCleared, ParamsNotValidated
from qso_spectra.spectrum import (
    SpectralParams,
    _QintTable,
    check_divergence,
    eigen_weight,
    eigenvalue,
    multiplicity,
    spectrum_table,
    validate_params,
    y_weight,
)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def params(**kw):
    p = SpectralParams(**kw)
    validate_params(p)
    return p


def test_base_eigenvalues():
    p = params(theta=Fraction(1, 3), theta1=2, theta2=Fraction(-1, 2),
               theta3=1, mu_y=Fraction(5, 7), mu_z=Fraction(3, 2))
    assert eigenvalue(0, 0, p) == 0
    assert eigenvalue(1, 0, p) == p.mu_y
    assert eigenvalue(0, 1, p) == p.mu_z
    # lam(0, 2) = (2)_{q^-2} mu_z + (2)_{q^-2} theta3
    iq2 = 1 / (p.q * p.q)
    assert eigenvalue(0, 2, p) == (1 + iq2) * (p.mu_z + p.theta3)


def test_eigenvalue_warns_without_validation():
    p = SpectralParams()
    with pytest.warns(ParamsNotValidated):
        eigenvalue(1, 1, p)
    validate_params(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eigenvalue(1, 1, p)


def test_eigenvalue_rejects_negative_indices():
    p = params()
    with pytest.raises(ValueError):
        eigenvalue(-1, 0, p)


def test_validation_failures():
    bad = SpectralParams(theta1=-1)
    out = validate_params(bad)
    assert out["status"] == "failed"
    assert "theta1 > 0" in out["failures"]
    assert bad.validated is False


def test_validation_theta_boundary_inclusive():
    q = Fraction(11, 10)
    mu_y = Fraction(1)
    boundary = -(1 - 1 / (q * q)) * mu_y
    p = SpectralParams(theta=boundary, mu_y=mu_y, q=q)
    out = validate_params(p)
    assert out["status"] == "verified"
    assert out["boundary_theta"] is True
    below = SpectralParams(theta=boundary - Fraction(1, 1000), mu_y=mu_y, q=q)
    assert validate_params(below)["status"] == "failed"


def test_y_weight_and_multiplicities():
    c7 = CartanData(7)
    assert y_weight(c7) == (Fraction(1), Fraction(1), Fraction(0))
    assert multiplicity(0, 0, c7) == 1
    # the k = 1, l = 0 space is the adjoint of so_7
    assert multiplicity(1, 0, c7) == 21
    # l-direction: weight 2l*w_1, symmetric traceless tensors
    assert multiplicity(0, 1, c7) == 27  # dim V_{2 w_1} for so_7


def test_multiplicity_brute_force_oracle():
    # dim V_{2 w_1} for so_N is (N-1)(N+2)/2 (traceless symmetric square)
    for N in (5, 6, 7, 8):
        c = CartanData(N)
        assert multiplicity(0, 1, c) == (N - 1) * (N + 2) // 2


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6))
def test_eigen_weight_additive(k, l):
    c = CartanData(5)
    w = eigen_weight(k, l, c)
    base = tuple(2 * l * a + k * b for a, b in
                 zip(c.fundamental_weights[0], y_weight(c)))
    assert w == base
    assert multiplicity(k, l, c) >= 1


def test_monotone_in_k_and_l():
    p = params(q=Fraction(3, 2))
    for k in range(6):
        for l in range(6):
            assert eigenvalue(k + 1, l, p) > eigenvalue(k, l, p)
            assert eigenvalue(k, l + 1, p) > eigenvalue(k, l, p)


def test_theta2_term_stays_bounded():
    # with only theta2 nonzero the values stay below the convergent
    # product of two geometric series
    p = SpectralParams(theta=0, theta1=0, theta2=1, theta3=0,
                       mu_y=0, mu_z=0, q=Fraction(3, 2))
    q2 = p.q * p.q
    cap = (q2 / (q2 - 1)) ** 2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParamsNotValidated)
        for m in range(0, 30, 7):
            assert 0 <= eigenvalue(m, m, p) < cap


def test_spectrum_table_sorted_and_complete():
    p = params()
    c = CartanData(7)
    table = spectrum_table(p, c, 5, 5)
    assert len(table) == 36
    assert table[0] == {"k": 0, "l": 0, "value": Fraction(0),
                        "multiplicity": 1,
                        "weight": (Fraction(0),) * 3}
    values = [(r["value"], r["k"] + r["l"], r["k"]) for r in table]
    assert values == sorted(values)
    # deterministic
    assert table == spectrum_table(p, c, 5, 5)


def test_check_divergence_reports():
    p = params()
    c = CartanData(7)
    out = check_divergence(p, c, shell_max=60, bound=50)
    assert out["status"] == "verified"
    assert out["m0"] is not None
    assert len(out["shell_minima"]) == 61
    assert out["eigenvalues_below_bound"] >= 1
    assert out["multiplicity_below_bound"] >= out["eigenvalues_below_bound"]
    # every shell at or past m0 clears the bound
    for m in range(out["m0"], 61):
        assert Fraction(out["shell_minima"][m]) > 50


def test_divergence_boundary_lane():
    q = Fraction(11, 10)
    mu_y = Fraction(1)
    p = params(theta=-(1 - 1 / (q * q)) * mu_y, mu_y=mu_y, q=q)
    # l = 0 eigenvalues increase to mu_y q^2/(q^2-1) = 121/21
    limit = mu_y * q * q / (q * q - 1)
    assert limit == Fraction(121, 21)
    vals = [eigenvalue(k, 0, p) for k in range(40)]
    assert all(a < b < limit for a, b in zip(vals, vals[1:]))
    c = CartanData(7)
    with pytest.raises(BoundNotCleared):
        check_divergence(p, c, shell_max=40, bound=6)
    out = check_divergence(p, c, shell_max=40, bound=5)
    assert out["l0_lane_limit_exists"] is True
    assert out["l0_lane_cleared_at"] is not None


QINT_PARAMS = [
    # interior: theta above -(1 - q^-2) mu_y, negative theta2
    (dict(theta=Fraction(2, 5), theta1=Fraction(3), theta2=Fraction(-7, 3),
          theta3=Fraction(1, 2), mu_y=2, mu_z=Fraction(9, 4), q=Fraction(7, 5)),
     False),
    # boundary theta = -(1 - q^-2) mu_y
    (dict(theta=-(1 - 1 / Fraction(121, 100)) * Fraction(3, 2),
          theta2=Fraction(5, 8), mu_y=Fraction(3, 2), mu_z=Fraction(1, 3),
          q=Fraction(11, 10)),
     True),
]


def test_qint_table_matches_direct(monkeypatch):
    # the reference is the closed form (t^m - 1)/(t - 1) of the
    # benchmark's oracle, which does not import the program
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks

    for kw, on_boundary in QINT_PARAMS:
        p = SpectralParams(**kw)
        assert validate_params(p)["boundary_theta"] is on_boundary
        const = {"theta": p.theta, "theta1": p.theta1, "theta2": p.theta2,
                 "theta3": p.theta3, "mu_y": p.mu_y, "mu_z": p.mu_z, "q": p.q}
        table = _QintTable(p, 12)
        for k in range(10):
            for l in range(10):
                want = checks.eigenvalue(k, l, const)
                assert table.value(k, l) == want
                assert eigenvalue(k, l, p) == want


def test_multiplicity_counts_harmonic_polynomials():
    # k = 0 lane: the (0, l) eigenspace has highest weight 2l*w_1, the
    # harmonic polynomials of degree 2l on R^N
    for N in range(5, 21):
        c = CartanData(N)
        for l in range(11):
            harmonic = comb(2 * l + N - 1, N - 1) - comb(2 * l + N - 3, N - 1)
            assert multiplicity(0, l, c) == harmonic, (N, l)


def test_spectrum_table_warns_without_validation():
    p = SpectralParams()
    with pytest.warns(ParamsNotValidated):
        spectrum_table(p, CartanData(5), 1, 1)
    validate_params(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spectrum_table(p, CartanData(5), 1, 1)
