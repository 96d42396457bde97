"""Vector representation, module-algebra actions, covariance, spherical
generators and the orbit scan."""

import copy
import random
import re
from fractions import Fraction

import pytest

from qso_spectra import actions, field, frt
from qso_spectra import cartan as cartan_mod
from qso_spectra.actions import (
    E,
    F,
    K,
    KINV,
    ActionEngine,
    classify_z_combination,
    orbit_scan,
    orbit_sequence,
    vector_rep,
    verify_covariance,
    verify_qea_relations,
    verify_spherical,
    z_coord_poly,
    z_poly,
    z_span,
)
from qso_spectra.errors import RepresentationInconsistent
from qso_spectra.field import ONE, FieldElem
from qso_spectra.ncpoly import accumulate
from qso_spectra.frt import normal_form, saturate_and_check
from qso_spectra.ncpoly import NCPoly, Span


@pytest.mark.parametrize("N", [5, 6, 7, 8, 9])
def test_defining_relations(N):
    report = verify_qea_relations(N)
    bad = [r for r in report if r["status"] != "verified"]
    assert not bad
    # both module structures are exercised, each relation once per side
    left = [r["relation"] for r in report if r["side"] == "left"]
    right = [r["relation"] for r in report if r["side"] == "right"]
    assert len(left) + len(right) == len(report)
    assert left == right and len(set(left)) == len(left)
    assert any(name.startswith("Serre") for name in left)


def test_k_inverse_matrices():
    # K_i K_i^-1 = K_i^-1 K_i = 1 through the kernel, on both sides
    for N in (5, 6):
        eng = vector_rep(N)
        ident = NCPoly(N, {((s, s),): ONE for s in range(1, N + 1)})
        for i in range(1, eng.cartan.n + 1):
            for word in ([(K, i), (KINV, i)], [(KINV, i), (K, i)]):
                assert eng.act_left(word, ident) == ident
                assert eng.act_right(ident, word) == ident


@pytest.mark.parametrize("N", [5, 6])
@pytest.mark.parametrize("side", ["left", "right"])
def test_relation_rows_check_their_own_side(monkeypatch, N, side):
    # a v^2 fault in one E_1 entry of one side fails [E1, F1] on that
    # side only: each side's rows read that side's action
    faulty = _faulty_rep(N, E, side, 1, FieldElem.v_pow(2))
    monkeypatch.setattr(actions, "vector_rep", lambda n: faulty)
    bad = [(r["relation"], r["side"]) for r in verify_qea_relations(N)
           if r["status"] != "verified"]
    assert bad == [("[E1, F1] = delta (K1-K1^-1)/(qi-qi^-1)", side)]


def test_sign_fixes_even_series():
    # the even series needs explicit sign adjustments; the odd does not
    assert vector_rep(6).sign_fixes
    assert not vector_rep(5).sign_fixes


def _weights_follow_e(cartan, Es) -> bool:
    """Whether every entry s -> t of every E_i moves the basis weight of
    cartan.vector_weights by alpha_i, and wt(v_1) = -w_1, wt(v_N) = w_1."""
    wt = [None] + cartan_mod.vector_weights(cartan)
    fw1 = cartan.fundamental_weights[0]
    if wt[1] != tuple(-x for x in fw1) or wt[cartan.N] != fw1:
        return False
    return all(wt[t] == tuple(a + b for a, b in zip(wt[s], cartan.simple_roots[i - 1]))
               for i, cols in Es.items() for s, (t, _) in cols.items())


@pytest.mark.parametrize("N", range(5, 13))
def test_vector_weights_follow_the_e_tables(N):
    cartan = cartan_mod.cartan_data(N)
    Es, _ = actions._ef_tables(N, "left")
    assert _weights_follow_e(cartan, Es)
    # negative control: one E entry pointed at a wrong target
    s, (t, c) = next(iter(Es[1].items()))
    Es[1][s] = (t + 1, c)
    assert not _weights_follow_e(cartan, Es)


@pytest.mark.parametrize("N", range(5, 11))
def test_conjugate_entries_are_minus_one(N):
    maps = vector_rep(N).maps
    conj = lambda x: N + 1 - x
    for j in range(1, N // 2):
        assert maps[E, "left"][j][conj(j + 1)] == (conj(j), -ONE)
        assert maps[F, "left"][j][conj(j)] == (conj(j + 1), -ONE)
        assert maps[F, "right"][j][conj(j + 1)] == (conj(j), -ONE)
        assert maps[E, "right"][j][conj(j)] == (conj(j + 1), -ONE)


@pytest.mark.parametrize("side, table", [("left", 1), ("right", 0)])
def test_rep_one_sided_fault_names_its_side(monkeypatch, side, table):
    # negate the conjugate entry of F_1 (left) or E_1 (right) on row or
    # column 1' = N; only that side's E-F commutator fails
    ef_tables = actions._ef_tables

    def faulty(N, s):
        tables = ef_tables(N, s)
        if s == side:
            target, coeff = tables[table][1][N]
            tables[table][1][N] = (target, -coeff)
        return tables

    monkeypatch.setattr(actions, "_ef_tables", faulty)
    actions.vector_rep.cache_clear()
    try:
        for N in (5, 6):
            with pytest.raises(RepresentationInconsistent,
                               match=rf"N = {N}: .*\({side}\)"):
                actions.vector_rep(N)
    finally:
        actions.vector_rep.cache_clear()


@pytest.mark.parametrize("N", [5, 7, 9])
def test_short_root_entries_lie_in_qv(N):
    # E_n carries [2] = v + 1/v, F_n carries 1; the right tables hold the
    # same values in the row layout
    n = N // 2
    v = FieldElem.v_pow(1)
    two = v + v.inverse()
    maps = vector_rep(N).maps
    assert maps[E, "left"][n] == {n: (n + 1, two), n + 1: (n + 2, -(v * two))}
    assert maps[F, "left"][n] == {n + 1: (n, ONE), n + 2: (n + 1, -v.inverse())}
    assert maps[E, "right"][n] == {n + 1: (n, two), n + 2: (n + 1, -(v * two))}
    assert maps[F, "right"][n] == {n: (n + 1, ONE), n + 1: (n + 2, -v.inverse())}


def test_reports_do_not_depend_on_the_short_root_split(monkeypatch):
    # E_n -> x E_n, F_n -> F_n / x preserves the relations and the
    # coproducts and scales each action by a constant: every verdict and
    # every orbit coefficient ratio stays the same
    def reports():
        return ([verify_qea_relations(N) for N in (5, 6)],
                verify_covariance(5), verify_spherical(5),
                orbit_scan(5), orbit_scan(7))

    want = reports()
    ef_tables = actions._ef_tables
    x = FieldElem.v_pow(2)

    def scaled(N, side):
        Es, Fs = ef_tables(N, side)
        n = N // 2
        Es[n] = {s: (t, c * x) for s, (t, c) in Es[n].items()}
        Fs[n] = {s: (t, c / x) for s, (t, c) in Fs[n].items()}
        return Es, Fs

    monkeypatch.setattr(actions, "_ef_tables", scaled)
    actions.vector_rep.cache_clear()
    try:
        assert vector_rep(5).maps[E, "left"][2][2][1] == \
            x * (FieldElem.v_pow(1) + FieldElem.v_pow(-1))
        assert reports() == want
    finally:
        actions.vector_rep.cache_clear()


def _reference_act(eng, kind, l, p, side):
    """One letter on one side with separate E and F loops: E at a
    position carries K on every later letter, F carries K^-1 on every
    earlier one."""
    kexp = eng.kexp[l]
    idx = (lambda x: x[1]) if side == "left" else (lambda x: x[0])
    out = {}
    if kind in (K, KINV):
        sgn = 1 if kind == K else -1
        for w, c in p.terms.items():
            e = sgn * sum(kexp[idx(x)] for x in w)
            accumulate(out, w, c * FieldElem.v_pow(e))
        return NCPoly(p.N, out)
    gmap = eng.maps[kind, side].get(l, {})
    for w, c in p.terms.items():
        L = len(w)
        exps = [kexp[idx(x)] for x in w]
        if kind == E:
            tail = [0] * (L + 1)
            for r in range(L - 1, -1, -1):
                tail[r] = tail[r + 1] + exps[r]
            for pos in range(L):
                hit = gmap.get(idx(w[pos]))
                if not hit:
                    continue
                t, cc = hit
                nl = (w[pos][0], t) if side == "left" else (t, w[pos][1])
                accumulate(out, w[:pos] + (nl,) + w[pos + 1:],
                           c * cc * FieldElem.v_pow(tail[pos + 1]))
        else:
            pre = 0
            for pos in range(L):
                hit = gmap.get(idx(w[pos]))
                if hit:
                    t, cc = hit
                    nl = (w[pos][0], t) if side == "left" else (t, w[pos][1])
                    accumulate(out, w[:pos] + (nl,) + w[pos + 1:],
                               c * cc * FieldElem.v_pow(-pre))
                pre += exps[pos]
    return NCPoly(p.N, out)


@pytest.mark.parametrize("N", [5, 6, 7])
def test_action_kernel_matches_separate_e_f_loops(N):
    rng = random.Random(N)
    eng = vector_rep(N)
    n = N // 2
    letters = [(X, i) for X in (E, F, K, KINV) for i in range(1, n + 1)]
    for degree in (2, 4):
        for _ in range(3):
            terms = {}
            for _ in range(8):
                w = tuple((rng.randint(1, N), rng.randint(1, N))
                          for _ in range(degree))
                c = FieldElem.v_pow(rng.randint(-3, 3)) * rng.choice([-2, -1, 1, 3])
                accumulate(terms, w, c)
            p = NCPoly(N, terms)
            for kind, l in letters:
                left = eng.act_left([(kind, l)], p)
                right = eng.act_right(p, [(kind, l)])
                # same terms in the same order, so reports keep their bytes
                assert list(left.terms.items()) == list(
                    _reference_act(eng, kind, l, p, "left").terms.items())
                assert list(right.terms.items()) == list(
                    _reference_act(eng, kind, l, p, "right").terms.items())


def test_covariance():
    out = verify_covariance(5)
    assert out["status"] == "verified"
    assert out["failures"] == []
    n = vector_rep(5).cartan.n
    assert out["checks"] == out["relations"] * 2 * 3 * n


def _covariance_by_relation(N, eng):
    """Reference report: act with every letter on both sides of every
    generated relation and reduce each image."""
    rels = [NCPoly(N, terms) for terms in frt.generate_relations(N)]
    rw = frt.rewriter(N)
    n = eng.cartan.n
    letters = [(X, i) for X in (E, F, K) for i in range(1, n + 1)]
    failures = []
    checked = 0
    for ridx, r in enumerate(rels):
        for letter in letters:
            for side in ("left", "right"):
                acted = eng.act_left([letter], r) if side == "left" \
                    else eng.act_right(r, [letter])
                checked += 1
                if not normal_form(acted, rw).is_zero():
                    failures.append({"relation": ridx, "letter": letter,
                                     "side": side})
    return {
        "N": N,
        "relations": len(rels),
        "checks": checked,
        "failures": failures,
        "status": "verified" if not failures else "failed",
        "sign_fixes": list(eng.sign_fixes),
    }


def _faulty_rep(N, kind, side, i, scale):
    """A copy of vector_rep(N) with deep-copied maps in which the first
    entry of one E/F table is multiplied by scale."""
    shared = vector_rep(N)
    maps = copy.deepcopy(shared.maps)
    cols = maps[kind, side][i]
    source, (target, coeff) = next(iter(cols.items()))
    cols[source] = (target, coeff * scale)
    return ActionEngine(N, shared.cartan, shared.kexp, maps, shared.sign_fixes)


COVARIANCE_FAULTS = [(E, "left", 1, FieldElem.v_pow(2)),
                     (F, "right", 2, -ONE),
                     (E, "right", 2, FieldElem.v_pow(1))]


@pytest.mark.parametrize("N", range(5, 11))
def test_intertwiner_identities_hold(N):
    eng = vector_rep(N)
    n = eng.cartan.n
    letters = [(X, i) for X in (E, F, K) for i in range(1, n + 1)]
    assert actions._intertwines(N, eng, letters)


@pytest.mark.parametrize("N", [5, 6])
def test_pair_action_does_not_depend_on_the_fixed_index(N):
    # the certificate reads D and D_r on one fixed row or column pair;
    # the kernel must act the same way on every other one
    eng = vector_rep(N)
    n = eng.cartan.n
    for letter in [(X, i) for X in (E, F, K) for i in range(1, n + 1)]:
        for side in ("left", "right"):
            want = actions._pair_action(eng, letter, side)
            assert want
            for r in range(1, N + 1):
                for s in range(1, N + 1):
                    assert actions._pair_action(eng, letter, side, (r, s)) == want


def test_covariance_basis_certificate_matches_relation_loop(monkeypatch):
    shared = vector_rep(5)
    maps_before = copy.deepcopy(shared.maps)
    assert verify_covariance(5) == _covariance_by_relation(5, shared)

    # each injected fault breaks the identities; the exact loop then
    # decides, and reports the same triples as the reference
    n = shared.cartan.n
    letters = [(X, i) for X in (E, F, K) for i in range(1, n + 1)]
    for fault, failures in zip(COVARIANCE_FAULTS, (150, 125, 125)):
        faulty = _faulty_rep(5, *fault)
        assert not actions._intertwines(5, faulty, letters)
        monkeypatch.setattr(actions, "vector_rep", lambda N: faulty)
        out = verify_covariance(5)
        assert out["status"] == "failed"
        assert len(out["failures"]) == failures
        assert out == _covariance_by_relation(5, faulty)

    monkeypatch.undo()
    assert vector_rep(5) is shared
    assert shared.maps == maps_before


def test_covariance_certificate_needs_no_rewriter(monkeypatch):
    calls = []

    def counted_nf(p, rw):
        calls.append("normal_form")
        return normal_form(p, rw)

    def counted_rw(N):
        calls.append("rewriter")
        return frt.rewriter(N)

    monkeypatch.setattr(actions, "normal_form", counted_nf)
    monkeypatch.setattr(actions, "rewriter", counted_rw)
    for N in (5, 6):
        assert verify_covariance(N)["status"] == "verified"
    assert calls == []


@pytest.mark.parametrize("N", range(5, 9))
def test_relation_count_matches_generated_relations(N):
    assert actions.relation_count(N) == \
        len(list(frt.generate_relations(N)))


def test_relation_count_is_pinned():
    # the counts of the stream, one per nonzero candidate; they equal
    # N^4 - (N - N mod 2)^2 here, a closed form the program does not use
    counts = {N: actions.relation_count(N) for N in range(5, 12)}
    assert counts == {5: 609, 6: 1260, 7: 2365, 8: 4032, 9: 6497,
                      10: 9900, 11: 14541}
    assert all(c == N ** 4 - (N - N % 2) ** 2 for N, c in counts.items())


def test_warm_covariance_generates_no_relations(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return frt.generate_relations(n)

    for N in (5, 6):
        verify_covariance(N)
    monkeypatch.setattr(actions, "generate_relations", counted)
    for N in (5, 6):
        out = verify_covariance(N)
        assert out["status"] == "verified"
        assert out["relations"] == actions.relation_count(N)
    assert calls == []


def test_covariance_report_does_not_alias_the_shared_rep():
    first = verify_covariance(6)
    expected = list(first["sign_fixes"])
    assert expected
    first["sign_fixes"].append("edited by the caller")
    assert verify_covariance(6)["sign_fixes"] == expected


def test_z_solver_coefficients_are_shared():
    span = z_span(6)
    coeffs = [c for table in (span.pivots, span.combs)
              for row in table.values() for c in row.values()]
    assert len({id(c) for c in coeffs}) == len(set(coeffs)) < len(coeffs)


def _snapshot(rw):
    """Copies of the rewriter's tables down to the coefficient objects."""
    return ({lead: dict(tail) for lead, tail in rw.rules.items()},
            list(rw.lengths))


def _targets(N):
    """Copies of the cached lemma targets down to the coefficient objects."""
    return [(family, indices, dict(target.terms))
            for family, indices, target in frt.lemma_rel_instances(N)]


def _r_snapshot(N):
    """Copies of the cached R and R' tables down to the coefficients."""
    return [{key: dict(row) for key, row in table.items()}
            for table in frt._r_tables(N)]


def test_requests_leave_the_shared_context_unchanged():
    before = {N: _snapshot(frt.rewriter(N)) for N in (5, 6)}
    r_tables = {N: _r_snapshot(N) for N in (5, 6)}
    targets = {N: _targets(N) for N in (5, 6)}
    for N in (5, 6):
        frt.verify_lemma_rels(N)
        verify_covariance(N)
        verify_spherical(N)
        orbit_scan(N)
    # a degree-3 target with a nonzero normal form sends saturate_and_check
    # into complete_rewriter, which extends its copy of the N = 5 rules
    u11 = NCPoly.gen(5, 1, 1)
    target = u11 * u11 * u11
    assert not normal_form(target, frt.rewriter(5)).is_zero()
    assert saturate_and_check(target, frt.rewriter(5), 3).status == "inconclusive"
    assert {N: _snapshot(frt.rewriter(N)) for N in (5, 6)} == before
    assert {N: _targets(N) for N in (5, 6)} == targets
    assert {N: _r_snapshot(N) for N in (5, 6)} == r_tables
    assert frt.rewriter(5) is frt.rewriter(5)
    assert frt.lemma_rel_instances(5) is frt.lemma_rel_instances(5)


def _random_poly(rng, N, degree):
    terms = {}
    for _ in range(4):
        w = tuple((rng.randint(1, N), rng.randint(1, N)) for _ in range(degree))
        c = FieldElem.v_pow(rng.randint(-2, 2)) * rng.choice([-2, -1, 1, 3])
        accumulate(terms, w, c)
    return NCPoly(N, terms)


def test_module_algebra_leibniz():
    # both actions follow the coproducts on a product p q:
    # E(pq) = E(p) K(q) + p E(q), F(pq) = F(p) q + K^-1(p) F(q),
    # K(pq) = K(p) K(q)
    moved = 0
    for N in (5, 6):
        rng = random.Random(N)
        eng = vector_rep(N)
        n = eng.cartan.n
        for dp, dq in ((1, 1), (1, 2), (2, 1), (2, 2)):
            p, q = _random_poly(rng, N, dp), _random_poly(rng, N, dq)
            for side in ("left", "right"):
                def act(kind, i, x):
                    return eng.act_left([(kind, i)], x) if side == "left" \
                        else eng.act_right(x, [(kind, i)])

                for i in range(1, n + 1):
                    e_pq, f_pq = act(E, i, p * q), act(F, i, p * q)
                    assert e_pq == act(E, i, p) * act(K, i, q) + p * act(E, i, q)
                    assert f_pq == act(F, i, p) * q + act(KINV, i, p) * act(F, i, q)
                    assert act(K, i, p * q) == act(K, i, p) * act(K, i, q)
                    moved += bool(e_pq) + bool(f_pq)
    assert moved > 50


def test_spherical_highest_weight():
    out = verify_spherical(5)
    assert out["status"] == "verified"
    names = [c["name"] for c in out["checks"]]
    assert any("z highest weight" in n for n in names)
    assert any("y K-exponent" in n for n in names)


def test_zsolver_roundtrip():
    N = 5
    rw = frt.rewriter(N)
    # z is a single coordinate up to the quadratic relations
    coeffs = z_span(N).express(normal_form(z_poly(N), rw).terms)
    assert set(coeffs) == {(1, N)}
    # reconstruct: sum coeffs * z_ab has the same normal form
    acc = None
    for (a, b), c in coeffs.items():
        t = z_coord_poly(N, a, b).scale(c)
        acc = t if acc is None else acc + t
    assert normal_form(acc - z_poly(N), rw).is_zero()


def test_zsolver_names_the_residual_word_outside_the_z_span(monkeypatch):
    # an orbit state outside the z-span fails with the leading word that
    # is left when its normal form is reduced against the z_ab
    N = 5
    u11 = NCPoly.gen(N, 1, 1)
    assert z_span(N).express(normal_form(u11 * u11, frt.rewriter(N)).terms) is None
    monkeypatch.setattr(actions, "minor", lambda N, a, b: u11 * u11)
    out = orbit_scan(N)
    assert out["status"] == "failed"
    assert {"word": [], "error": "residual word ((1, 1), (1, 1))"} in out["failures"]


def test_orbit_sequence_shape():
    seq5 = orbit_sequence(5)
    assert seq5[-2:] == [(F, 1), (F, 1)]
    assert all(x == F for x, _ in seq5)


@pytest.mark.parametrize("N", [5, 6])
def test_orbit_scan_terminal(N):
    out = orbit_scan(N)
    assert out["status"] == "verified"
    term = out["terminal"]
    assert term["family"] == "iv'"
    assert term["mu_sign_at_11_10"] == -1
    assert "iv'" in out["families"]
    assert not out["failures"]


def test_orbit_terminal_failure_is_listed(monkeypatch):
    # relabelling the (iv') class (ii') fails only the terminal check,
    # and the report lists the terminal word with the reason
    classify = actions.classify_z_combination

    def relabelled(N, coeffs):
        out = classify(N, coeffs)
        return {**out, "family": "ii'"} if out["family"] == "iv'" else out

    monkeypatch.setattr(actions, "classify_z_combination", relabelled)
    out = orbit_scan(5)
    assert out["status"] == "failed"
    assert out["terminal"]["family"] == "ii'"
    assert out["failures"] == [
        {"word": ["F2", "F2", "F1", "F1"],
         "error": "terminal word has family ii', not (iv')"}]


def _z_span_without(N, label):
    """The z-span of N without the coordinate z_label."""
    rw = frt.rewriter(N)
    span = Span(shared={})
    for a in range(1, N + 1):
        for b in range(1, N + 1):
            if (a, b) != label:
                span.add(normal_form(z_coord_poly(N, a, b), rw).terms, (a, b))
    return span


def test_orbit_z_span_failure_words_are_letters(monkeypatch):
    # a z-span failure writes its word in F-letters, as the trace entries
    # and the terminal check do, not as sequence positions; without
    # z_11 only the (ii') states, all reached by F2 F2 F1, fall outside
    span = _z_span_without(5, (1, 1))
    monkeypatch.setattr(actions, "z_span", lambda N: span)
    out = orbit_scan(5)
    assert out["status"] == "failed"
    outside = [f for f in out["failures"] if "error" in f]
    assert len(outside) == 12 and outside == out["failures"]
    for f in out["failures"] + out["trace"]:
        assert isinstance(f["word"], list) and all(
            isinstance(x, str) and re.fullmatch(r"F\d+", x) for x in f["word"]), f
    assert {(tuple(f["word"]), f["error"]) for f in outside} == {
        (("F2", "F2", "F1"), "residual word ((1, 1), (5, 5))")}


@pytest.mark.parametrize("N, calls", [(5, 47), (6, 40), (7, 156)])
def test_orbit_scan_reduces_each_state_once(monkeypatch, N, calls):
    # one normal form for y and one per acted polynomial: the
    # z-coordinates are read from the walk's normal forms
    z_span(N)  # the span's own normal forms are built beforehand
    reduced = []

    def counting(p, rw):
        reduced.append(p)
        return normal_form(p, rw)

    monkeypatch.setattr(actions, "normal_form", counting)
    assert orbit_scan(N)["status"] == "verified"
    assert len(reduced) == calls


def test_orbit_terminal_mu_value_n5():
    out = orbit_scan(5)
    assert out["terminal"]["mu"] == "(-1)/(v^6)"


def test_classify_unrecognized():
    from qso_spectra.field import ONE

    res = classify_z_combination(5, {(1, 1): ONE, (3, 3): ONE})
    assert res["family"] == "unclassified"


def test_y_weight_polynomial_shape():
    # y = u^1_1 u^2_N - q u^2_1 u^1_N, with q = v^2
    y = frt.minor(5, 1, 5)
    assert y.degree() == 2
    assert y.terms == {((1, 1), (2, 5)): ONE,
                       ((2, 1), (1, 5)): -FieldElem.v_pow(2)}


# -- int coefficients in the Q(v) hot path ---------------------------------

def _coefficients(x: FieldElem):
    num, den = x.base
    return list(num.values()) + list(den.values())


def _assert_no_integral_fraction(elems):
    count = 0
    for x in elems:
        for c in _coefficients(x):
            assert type(c) is int or (type(c) is Fraction and c.denominator > 1), c
            count += 1
    assert count


@pytest.mark.parametrize("N", [5, 6, 7])
def test_shared_tables_hold_no_integral_fraction(N):
    rw = frt.rewriter(N)
    _assert_no_integral_fraction(c for tail in rw.rules.values() for c in tail.values())
    _assert_no_integral_fraction(c for m in vector_rep(N).maps.values()
                                 for table in m.values() for _, c in table.values())
    _assert_no_integral_fraction(c for _, _, target in frt.lemma_rel_instances(N)
                                 for c in target.terms.values())


def test_warm_algebra_requests_multiply_ints_only(monkeypatch):
    # every operand coefficient of every Laurent product in warm verify
    # rels / orbit / spherical / covariance requests at N = 5 is an int;
    # field is the only module that calls lp_mul
    def rels():
        results = frt.verify_lemma_rels(5)
        ok = all(r["status"] in ("verified", "excluded") for r in results)
        return {"status": "verified" if ok else "failed"}

    requests = (rels, lambda: orbit_scan(5), lambda: verify_spherical(5),
                lambda: verify_covariance(5))
    for run in requests:
        run()
    kinds = set()
    calls = 0
    orig = field.lp_mul

    def checked(a, b):
        nonlocal calls
        calls += 1
        kinds.update(map(type, a.values()))
        kinds.update(map(type, b.values()))
        return orig(a, b)

    monkeypatch.setattr(field, "lp_mul", checked)
    for run in requests:
        assert run()["status"] == "verified"
    assert calls > 1000
    assert kinds == {int}


def test_action_hit_makes_one_product(monkeypatch):
    # a hit multiplies the coefficient by the table entry, which skips
    # the product for the entry ONE, and shifts the result; a K letter
    # shifts only
    eng = vector_rep(6)
    p = (NCPoly.gen(6, 1, 2) * NCPoly.gen(6, 3, 4)).scale(FieldElem.v_pow(1) + 2)
    calls = []
    orig = field.lp_mul

    def counted(a, b):
        calls.append(1)
        return orig(a, b)

    monkeypatch.setattr(field, "lp_mul", counted)
    for i in (1, 2, 3):
        eng.act_left([(K, i)], p)
        eng.act_right(p, [(KINV, i)])
    assert calls == []
    hits = products = 0
    for i in (1, 2, 3):
        for kind in (E, F):
            eng.act_left([(kind, i)], p)
            table = eng.maps[kind, "left"].get(i, {})
            for w in p.terms:
                for x in w:
                    if x[1] in table:
                        hits += 1
                        products += table[x[1]][1] is not ONE
    assert hits > products > 0
    assert len(calls) == products
