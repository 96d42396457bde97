"""Acceptance suite: one test per criterion, each a single pass/fail line
under ``pytest -v``.  Time budgets are asserted where a criterion has one."""

import time
from fractions import Fraction

import pytest

from qso_spectra import actions, fiber, frt, spectrum
from qso_spectra.cartan import CartanData

OK = {"verified", "excluded"}


def test_criterion_01_commutation_relation_families():
    for N in (5, 6, 7, 8):
        report = frt.verify_lemma_rels(N)
        bad = [r for r in report if r["status"] not in OK]
        assert not bad, (N, bad)


def test_criterion_02_vector_representation_with_serre():
    t0 = time.perf_counter()
    for N in (5, 6, 7, 8):
        report = actions.verify_qea_relations(N)
        bad = [r for r in report if r["status"] != "verified"]
        assert not bad, (N, bad)
        assert any(r["relation"].startswith("Serre") for r in report)
    assert time.perf_counter() - t0 < 10


def test_criterion_03_relation_span_covariance():
    t0 = time.perf_counter()
    for N in range(5, 11):
        out = actions.verify_covariance(N)
        assert out["status"] == "verified", (N, out["failures"])
    assert time.perf_counter() - t0 < 120


def test_criterion_04_spherical_highest_weights():
    from qso_spectra.actions import hw_check, z_poly

    for N in (5, 6, 7, 8):
        rw, eng = frt.rewriter(N), actions.vector_rep(N)
        cartan = eng.cartan
        two_fw1 = tuple(2 * x for x in cartan.fundamental_weights[0])
        lam_y = tuple(2 * x - a for x, a in
                      zip(cartan.fundamental_weights[0],
                          cartan.simple_roots[0]))
        assert hw_check(z_poly(N), two_fw1, eng, rw)["status"] == "verified", N
        y = frt.minor(N, 1, N)
        assert hw_check(y, lam_y, eng, rw)["status"] == "verified", N


def test_criterion_05_degree_four_commutation_identities():
    for N in (5, 6):
        out = actions.verify_spherical(N)
        quartic = [c for c in out["checks"] if "q-commutation" in c["name"]]
        assert quartic, N
        assert all(c["status"] == "verified" for c in quartic), (N, quartic)


def test_criterion_06_kappa_coefficient_laws():
    t0 = time.perf_counter()
    for M in (3, 4, 5, 6, 7):
        out = fiber.verify_f_properties(fiber.ExtAlgParams(M))
        assert out["status"] == "verified", (M, out["failures"])
    assert time.perf_counter() - t0 < 60


def test_criterion_07_lefschetz_bijectivity():
    t0 = time.perf_counter()
    samples = (Fraction(1), Fraction(11, 10), Fraction(101, 100))
    for M in (3, 4, 5):
        params = fiber.ExtAlgParams(M)
        for q0 in samples:
            out = fiber.verify_lefschetz_iso(params, q0)
            assert out["status"] == "verified", (M, str(q0), out["failures"])
    assert time.perf_counter() - t0 < 120


def test_criterion_08_nonprimitive_top_form_and_orbit_terminal():
    for M in (3, 4, 5):
        extra = (Fraction(101, 100),) if M == 4 else ()
        out = fiber.verify_nonprimitive(fiber.ExtAlgParams(M),
                                        extra_samples=extra)
        assert out["status"] == "verified", (M, out["failures"])
    for N in (5, 6, 7):
        scan = actions.orbit_scan(N)
        term = scan["terminal"]
        assert term is not None and term["family"] == "iv'", (N, term)
        assert term["mu_sign_at_11_10"] == -1, (N, term)


def test_criterion_09_spectrum_identities_and_divergence():
    t0 = time.perf_counter()
    p = spectrum.SpectralParams()
    spectrum.validate_params(p)
    assert spectrum.eigenvalue(0, 0, p) == 0
    assert spectrum.eigenvalue(1, 0, p) == p.mu_y
    assert spectrum.eigenvalue(0, 1, p) == p.mu_z
    cartan = CartanData(7)
    out = spectrum.check_divergence(p, cartan, shell_max=500, bound=1000)
    assert out["status"] == "verified"
    assert out["m0"] is not None and out["multiplicity_below_bound"] > 0

    # boundary case: the l = 0 lane converges, so only bounds below its
    # limit are cleared
    q = p.q
    boundary = spectrum.SpectralParams(theta=-(1 - 1 / (q * q)), q=q)
    spectrum.validate_params(boundary)
    limit = q * q / (q * q - 1)
    with pytest.raises(spectrum.BoundNotCleared):
        spectrum.check_divergence(boundary, cartan, shell_max=200,
                                  bound=limit + 1)
    cleared = spectrum.check_divergence(boundary, cartan, shell_max=200,
                                        bound=limit - 1)
    assert cleared["l0_lane_limit_exists"] is True
    assert time.perf_counter() - t0 < 30


def test_criterion_10_hodge_operator_shape():
    from math import factorial

    from qso_spectra.field import ONE, FieldElem
    from qso_spectra.fiber import ExtAlgParams, hodge, kappa_power

    t0 = time.perf_counter()
    params = ExtAlgParams(3)
    star1 = hodge(params, {((), ()): ONE})
    scale = FieldElem.from_rational(Fraction(1, factorial(3)))
    want = {key: c * scale for key, c in kappa_power(params, 3).items()}
    assert star1 == want
    out = fiber.verify_hodge_shape(params, q0=Fraction(11, 10))
    assert out["status"] == "verified", out["failures"]
    assert time.perf_counter() - t0 < 120
