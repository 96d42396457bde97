"""Laplacian spectrum: exact eigenvalues, parameter validation,
multiplicities and divergence certification."""

import copy
import random
import warnings
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qso_spectra import reports, spectrum
from qso_spectra.cartan import CartanData, cartan_data
from qso_spectra.cli import main
from qso_spectra.errors import BoundNotCleared, ParamsNotValidated
from qso_spectra.spectrum import (
    SpectralParams,
    _component,
    _QintTable,
    _shell_minimum,
    boundary_theta,
    check_divergence,
    eigenvalue,
    spectrum_table,
    validate_params,
    y_weight,
)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def params(**kw):
    p = SpectralParams(**kw)
    validate_params(p)
    return p


def _weight_of(k, l, w1, ly):
    """The highest weight 2l*w1 + k*ly, built here independently of
    spectrum._component."""
    return tuple(2 * l * w + k * y for w, y in zip(w1, ly))


def multiplicity(k, l, cartan):
    """Weyl dimension of the (k, l) eigenspace, as check_divergence and
    spectrum_table compute it."""
    return cartan.weyl_dim(_weight_of(k, l, cartan.fundamental_weights[0],
                                      y_weight(cartan)))


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
    w1, ly = c.fundamental_weights[0], y_weight(c)
    assert _weight_of(1, 0, w1, ly) == ly
    assert _weight_of(0, 1, w1, ly) == tuple(2 * a for a in w1)
    assert _weight_of(k, l, w1, ly) == tuple(
        k * a + l * b for a, b in
        zip(_weight_of(1, 0, w1, ly), _weight_of(0, 1, w1, ly)))
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


def _fraction_spectrum_table(p, cartan, kmax, lmax):
    """spectrum_table sorted on the Fraction value: the reference for
    its integer sort key."""
    table = _QintTable(p, max(kmax, lmax))
    w1, ly = cartan.fundamental_weights[0], y_weight(cartan)
    records = []
    for k in range(kmax + 1):
        for l in range(lmax + 1):
            weight = _weight_of(k, l, w1, ly)
            records.append({
                "k": k, "l": l, "value": table.value(k, l),
                "multiplicity": cartan.weyl_dim(weight), "weight": weight,
            })
    records.sort(key=lambda r: (r["value"], r["k"] + r["l"], r["k"]))
    return records


def _same_records(got, want):
    """Equal records in the same order, with the same leaf types."""
    assert got == want
    for g, w in zip(got, want):
        assert list(g) == list(w)
        for key in g:
            assert type(g[key]) is type(w[key]), key
        assert [type(x) for x in g["weight"]] == [type(x) for x in w["weight"]]


def test_spectrum_table_matches_fraction_reference():
    q = Fraction(11, 10)
    cases = [
        params(),  # lam(1, 0) = lam(0, 1) = 1: the tie-break decides
        params(theta=-(1 - 1 / (q * q))),  # boundary theta
        params(theta=-(1 - 1 / Fraction(49, 25)) * Fraction(3, 2),
               mu_y=Fraction(3, 2), mu_z=Fraction(1, 3), theta2=Fraction(5, 8),
               q=Fraction(7, 5)),
    ]
    default = spectrum_table(cases[0], CartanData(7), 2, 2)
    assert [(r["k"], r["l"]) for r in default[:3]] == [(0, 0), (0, 1), (1, 0)]
    assert default[1]["value"] == default[2]["value"] == 1
    for N in range(5, 21):
        c = cartan_data(N)
        for p in cases:
            for kmax, lmax in ((6, 6), (7, 3), (2, 9), (0, 4), (5, 0)):
                _same_records(spectrum_table(p, c, kmax, lmax),
                              _fraction_spectrum_table(p, c, kmax, lmax))


_POS = st.fractions(min_value=Fraction(1, 40), max_value=50, max_denominator=40)


@settings(max_examples=40, deadline=None)
@given(mu_y=_POS, mu_z=_POS, theta1=_POS, theta3=_POS,
       theta2=st.fractions(min_value=-50, max_value=50, max_denominator=40),
       lift=st.fractions(min_value=0, max_value=20, max_denominator=40),
       q=st.sampled_from([Fraction(11, 10), Fraction(3, 2), Fraction(7, 5),
                          Fraction(101, 100), Fraction(2)]),
       N=st.integers(5, 20), kmax=st.integers(0, 8), lmax=st.integers(0, 8))
def test_spectrum_table_matches_fraction_reference_at_admissible_constants(
        mu_y, mu_z, theta1, theta3, theta2, lift, q, N, kmax, lmax):
    p = SpectralParams(theta1=theta1, theta2=theta2, theta3=theta3,
                       mu_y=mu_y, mu_z=mu_z, q=q)
    p.theta = boundary_theta(p) + lift
    assert validate_params(p)["status"] == "verified"
    c = cartan_data(N)
    _same_records(spectrum_table(p, c, kmax, lmax),
                  _fraction_spectrum_table(p, c, kmax, lmax))


def test_integer_weights():
    for N in range(5, 21):
        c = cartan_data(N)
        w1, ly = c.fundamental_weights[0], y_weight(c)
        # w_1 = eps_1 and lam_y = eps_1 + eps_2
        assert w1 == (1,) + (0,) * (c.n - 1)
        assert ly == (1, 1) + (0,) * (c.n - 2)
        assert _component(c, 1, 0)[1] == ly
        assert _component(c, 0, 1)[1] == tuple(2 * x for x in w1)


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


def test_check_divergence_warns_without_validation():
    p = SpectralParams()
    with pytest.warns(ParamsNotValidated):
        check_divergence(p, CartanData(5), shell_max=30, bound=20)
    validate_params(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check_divergence(p, CartanData(5), shell_max=30, bound=20)


# -- one turn per shell -------------------------------------------------------

def _random_constants(rng, q):
    """Six constants of either sign, with theta on the boundary, inside
    the region or negative below it, and theta2 of either sign."""
    def frac(lo, hi):
        return Fraction(rng.randint(lo, hi), rng.randint(1, 12))

    mu_y = frac(1, 40)
    p = SpectralParams(theta1=frac(1, 40), theta2=frac(-60, 60),
                       theta3=frac(1, 40), mu_y=mu_y, mu_z=frac(1, 40), q=q)
    p.theta = rng.choice([boundary_theta(p), boundary_theta(p) + frac(0, 30),
                          frac(-60, 0), frac(-60, 60)])
    if rng.random() < 0.2:
        # signs outside the admissible region: the lemma is algebraic
        p.theta1, p.theta3 = frac(-40, 40), frac(-40, 40)
    return p


ONE_TURN_QS = [Fraction(1), Fraction(1, 2), Fraction(9, 10), Fraction(2, 3),
               Fraction(11, 10), Fraction(3, 2), Fraction(13, 5),
               Fraction(101, 100), Fraction(7, 5)]


def test_shell_differences_turn_at_most_once():
    # lam = U t^k + W t^-k + D on a shell, so the sign of its first
    # difference is monotone along the shell, and the bisected minimum
    # is the minimum of the full scan
    rng = random.Random(20221018)
    turns = 0
    for trial in range(360):
        q = ONE_TURN_QS[trial % len(ONE_TURN_QS)]
        p = _random_constants(rng, q)
        table = _QintTable(p, 40)
        for m in range(41):
            s = [table.scaled(m - l, l) for l in range(m + 1)]
            signs = [(b > a) - (b < a) for a, b in zip(s, s[1:])]
            assert signs in (sorted(signs), sorted(signs, reverse=True)), \
                (p.as_dict(), m, signs)
            assert _shell_minimum(table, m, s[0]) == min(s), (p.as_dict(), m)
            turns += 2 < len(s) and s[1] < s[0] and s[-2] < s[-1]
    # the bisection branch is exercised, not only the endpoints
    assert turns > 1000


def _full_scan_divergence(p, cartan, shell_max, bound):
    """check_divergence as it was before the one-turn lemma: every
    eigenvalue of every shell is evaluated."""
    bound = Fraction(bound)
    table = _QintTable(p, shell_max)
    minima, lane_l0 = [], []
    for m in range(shell_max + 1):
        vals = [table.scaled(m - l, l) for l in range(m + 1)]
        d = table.scale(m)
        minima.append(Fraction(min(vals), d))
        lane_l0.append(Fraction(vals[0], d))
    m0 = None
    for m in range(shell_max, -1, -1):
        if minima[m] <= bound:
            break
        m0 = m
    if m0 is None:
        raise BoundNotCleared(
            f"shell minima never exceed {bound} within shell_max="
            f"{shell_max}; trajectory tail {[str(x) for x in minima[-5:]]}")
    below_mult = below_count = 0
    for m in range(m0):
        for l in range(m + 1):
            if table.value(m - l, l) <= bound:
                below_mult += multiplicity(m - l, l, cartan)
                below_count += 1
    lane_cleared = None
    for m in range(shell_max, -1, -1):
        if lane_l0[m] <= bound:
            break
        lane_cleared = m
    return {
        "params": p.as_dict(), "bound": str(bound), "shell_max": shell_max,
        "m0": m0, "shell_minima": [str(x) for x in minima],
        "eigenvalues_below_bound": below_count,
        "multiplicity_below_bound": below_mult,
        "l0_lane_cleared_at": lane_cleared,
        "l0_lane_limit_exists": p.theta == boundary_theta(p),
        "status": "verified",
    }


def test_check_divergence_matches_full_scan_report():
    # the README request, an interior point whose shells turn inside,
    # and a boundary point whose bound is cleared
    q = Fraction(11, 10)
    cases = [
        (params(), 7, 200, 100),
        (params(theta=Fraction(-1, 10), theta1=Fraction(1, 3), theta2=-40,
                mu_z=Fraction(1, 7)), 12, 120, 300),
        (params(theta=-(1 - 1 / (q * q))), 20, 150, 5),
    ]
    for p, N, shell_max, bound in cases:
        c = CartanData(N)
        got = reports.to_json(check_divergence(p, c, shell_max, bound))
        assert got == reports.to_json(_full_scan_divergence(p, c, shell_max, bound))


def test_check_divergence_bound_ties_match_full_scan():
    # lam <= bound keeps a shell or a lane value at the bound: pick
    # bounds equal to a shell minimum and to an l = 0 lane value
    q = Fraction(11, 10)
    cases = [
        (params(), 7, 60),
        (params(theta=Fraction(-1, 10), theta1=Fraction(1, 3), theta2=-40,
                mu_z=Fraction(1, 7)), 12, 60),
        (params(theta=-(1 - 1 / (q * q))), 20, 60),
    ]
    ties = 0
    for p, N, shell_max in cases:
        c = CartanData(N)
        table = _QintTable(p, shell_max)
        minima = [Fraction(_shell_minimum(table, m, table.scaled(m, 0)),
                           table.scale(m)) for m in range(shell_max + 1)]
        lane = [table.value(m, 0) for m in range(shell_max + 1)]
        for bound in minima[5:40:7] + lane[3:40:9]:
            try:
                want = _full_scan_divergence(p, c, shell_max, bound)
            except BoundNotCleared as exc:
                with pytest.raises(BoundNotCleared) as got:
                    check_divergence(p, c, shell_max, bound)
                assert str(got.value) == str(exc)
                continue
            got = check_divergence(p, c, shell_max, bound)
            assert reports.to_json(got) == reports.to_json(want)
            ties += 1
    assert ties >= 15


def test_boundary_not_cleared_message_matches_full_scan():
    q = Fraction(11, 10)
    p = params(theta=-(1 - 1 / (q * q)))
    c = CartanData(7)
    with pytest.raises(BoundNotCleared) as want:
        _full_scan_divergence(p, c, 150, 100)
    with pytest.raises(BoundNotCleared) as got:
        check_divergence(p, c, 150, 100)
    assert str(got.value) == str(want.value)


def test_divergence_evaluations_are_logarithmic_per_shell(monkeypatch):
    calls = []
    scaled = _QintTable.scaled

    def counting(self, k, l):
        calls.append((k, l))
        return scaled(self, k, l)

    monkeypatch.setattr(_QintTable, "scaled", counting)
    out = check_divergence(params(), CartanData(7), shell_max=200, bound=100)
    assert out["status"] == "verified"
    # a full scan makes 20,301 minimum evaluations alone
    assert len(calls) <= 1000


def test_spectrum_requests_share_one_cartan_data(monkeypatch, tmp_path):
    seen = []
    for name in ("spectrum_table", "check_divergence"):
        fn = getattr(spectrum, name)

        def recording(p, cartan, *args, _fn=fn):
            seen.append(cartan)
            return _fn(p, cartan, *args)

        monkeypatch.setattr(spectrum, name, recording)
    shared = cartan_data(12)
    before = {k: copy.deepcopy(getattr(shared, k)) for k in CartanData.__slots__}
    out = str(tmp_path / "report.json")
    assert main(["--out", out, "spectrum", "table", "--n", "12"]) == 0
    assert main(["--out", out, "spectrum", "diverge", "--n", "12",
                 "--shell-max", "60", "--bound", "50"]) == 0
    assert len(seen) == 2 and seen[0] is seen[1] is shared
    assert {k: getattr(shared, k) for k in CartanData.__slots__} == before


# -- one component per process ----------------------------------------------
#
# _component caches (multiplicity, weight) per (CartanData, k, l) for the
# whole process.  A test that injects a wrong weyl_dim must therefore pass
# a fresh CartanData: the cached components of cartan_data(N) would bypass
# the injected method.

def _harmonic_squares(N, multiplicity, dmax):
    """The d <= dmax where the (k, l) multiplicities up to shell d do not
    sum to h(d)^2, with h(d) = C(N+d-1, d) - C(N+d-3, d-2) the dimension
    of V(d eps_1): the zero-forms of degree <= d are V(d eps_1) (x)
    V(d eps_1), independently of the Weyl formula."""
    bad, total = [], 0
    for d in range(dmax + 1):
        total += sum(multiplicity(d - l, l) for l in range(d + 1))
        h = comb(N + d - 1, d) - (comb(N + d - 3, d - 2) if d >= 2 else 0)
        if total != h * h:
            bad.append(d)
    return bad


def test_cached_multiplicities_sum_to_harmonic_squares():
    for N in range(5, 13):
        c = cartan_data(N)
        assert _harmonic_squares(N, lambda k, l: _component(c, k, l)[0], 30) == []


def test_harmonic_squares_reject_a_wrong_weight():
    # negative control: k*lam_y replaced by k*2w_1 fails at every d >= 1
    for N in range(5, 13):
        c = CartanData(N)
        w1 = c.fundamental_weights[0]
        wrong = tuple(2 * x for x in w1)
        bad = _harmonic_squares(
            N, lambda k, l: c.weyl_dim(_weight_of(k, l, w1, wrong)), 30)
        assert bad == list(range(1, 31)), N


def test_components_are_computed_once_per_process(monkeypatch):
    c = CartanData(7)
    weights = []
    weyl_dim = CartanData.weyl_dim

    def counting(self, lam):
        if self is c:
            weights.append(lam)
        return weyl_dim(self, lam)

    monkeypatch.setattr(CartanData, "weyl_dim", counting)
    default = params()
    boundary = params(theta=boundary_theta(default))
    tables = [spectrum_table(default, c, 6, 6)]
    assert len(weights) == 49
    tables.append(spectrum_table(boundary, c, 6, 6))
    assert len(weights) == 49

    # the divergence scan looks up only the components below the bound
    # that the tables did not reach, each once
    del weights[:]
    out = check_divergence(default, c, shell_max=60, bound=50)
    table = _QintTable(default, 60)
    below = {(m - l, l) for m in range(out["m0"]) for l in range(m + 1)
             if table.value(m - l, l) <= 50}
    assert len(below) == out["eigenvalues_below_bound"]
    # 2l*w_1 + k*lam_y = (2l + k, k, 0)
    looked_up = [(w[1], (w[0] - w[1]) // 2) for w in weights]
    assert len(set(looked_up)) == len(looked_up)
    assert set(looked_up) == {(k, l) for k, l in below if k > 6 or l > 6}
    assert looked_up
    del weights[:]
    assert check_divergence(default, c, shell_max=60, bound=50) == out
    assert weights == []

    for p, got in zip((default, boundary), tables):
        _same_records(got, _fraction_spectrum_table(p, c, 6, 6))
