"""Quantum exterior algebra of the fiber: straightening, kappa powers,
Lefschetz theory and the Hodge map."""

import functools
import random
from fractions import Fraction
from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qso_spectra import fiber, frt
from qso_spectra.errors import DecompositionSingular, IndexOutOfRange
from qso_spectra.fiber import (
    ExtAlgParams,
    classical_kappa_coeffs,
    hodge,
    kappa_power,
    make_evaluator,
    primitive_decompose,
    random_form,
    verify_f_properties,
    verify_hodge_shape,
    verify_lefschetz_iso,
    verify_nonprimitive,
)
from qso_spectra.field import ONE, ZERO, FieldElem
from qso_spectra.ncpoly import accumulate, apply
from qso_spectra.quadext import QuadExt

V = FieldElem.v_pow
ONE_FORM = {((), ()): ONE}


def _lefschetz(p, form):
    """kappa ^ form, read from the shared Lefschetz table."""
    return apply(fiber.lefschetz_table(p.M).map, form)


def _kappa(M):
    """The Kaehler form sum_i e+_i ^ f-_i, written out."""
    return {((i,), (i,)): ONE for i in range(1, M + 1)}


def _degree(form):
    """The total degree of a nonzero form, which must be homogeneous."""
    (d,) = {len(I) + len(J) for I, J in form}
    return d


def _plus(f, g):
    out = dict(f)
    for key, c in g.items():
        accumulate(out, key, c)
    return out


def _scaled(form, s):
    return {key: c * s for key, c in form.items()}


def test_straighten_plain_swap():
    # descending non-conjugate minus pair picks up -q
    p = ExtAlgParams(4)
    assert fiber._straighten(p, (3, 1), "-") == {(1, 3): -V(2)}
    # plus side mirrors with -q^-1
    assert fiber._straighten(p, (3, 1), "+") == {(1, 3): -V(-2)}


def test_straighten_conjugate_pair():
    # (conj(1), 1) = (4, 1) at M = 4: no lower corrections, bare -1
    p = ExtAlgParams(4)
    assert fiber._straighten(p, (4, 1), "-") == {(1, 4): -ONE}


def test_straighten_middle_square():
    # e-_2 ^ e-_2 at M = 3: (q^{1/2} - q^{-1/2}) e-_{1,3}
    p = ExtAlgParams(3)
    assert fiber._straighten(p, (2, 2), "-") == {(1, 3): V(1) - V(-1)}


def test_straighten_nilpotent_square():
    p = ExtAlgParams(4)
    assert not fiber._straighten(p, (2, 2), "-")
    assert not fiber._straighten(p, (3, 3), "+")


def test_straighten_fixed_on_normal_words():
    p = ExtAlgParams(5)
    assert fiber._straighten(p, (1, 3, 5), "-") == {(1, 3, 5): ONE}


def test_straighten_index_guard():
    p = ExtAlgParams(3)
    with pytest.raises(IndexOutOfRange):
        fiber._straighten(p, (0, 1), "-")
    with pytest.raises(IndexOutOfRange):
        fiber._straighten(p, (1, 4), "+")


@settings(max_examples=40, deadline=None)
@given(st.permutations(list(range(1, 5))))
def test_classical_limit_is_exterior_algebra(perm):
    # at q = 1 all correction terms vanish and straightening is the
    # ordinary sign-of-permutation sort
    p = ExtAlgParams(4)
    (J, c), = fiber._straighten(p, tuple(perm), "-").items()
    assert J == (1, 2, 3, 4)
    inv = sum(1 for a in range(4) for b in range(a + 1, 4)
              if perm[a] > perm[b])
    assert c.eval_v(1) == (-1) ** inv


def test_straighten_confluence_samples():
    # words with two overlapping reducible pairs give one answer
    # regardless of which pair fires first; spot-check by comparing the
    # straightening of w against straightening the reversal twice
    p = ExtAlgParams(5)
    for word in [(3, 3, 2), (5, 1, 5), (2, 4, 2), (4, 3, 3)]:
        res = fiber._straighten(p, word, "-")
        # rebuild: expand each output word back, must reproduce itself
        for J in res:
            assert fiber._straighten(p, J, "-") == {J: ONE}


def _closed_form(M, x, y, sign):
    """The rule for the factor e_x ^ e_y as the fiber module docstring
    states it, in Lambda^- (sign -1) or Lambda^+ (sign +1): a dict
    {(a, b): coeff} replacing the two letters, or None if the factor is
    irreducible.  Lambda^+ takes q |-> q^{-1} in the swap and correction
    exponents and a global minus on the correction sums."""
    if x < y:
        return None
    t = -sign

    def corrections(i, nu):
        # sum_{j<i} nu q^{j-i+1} e_j ^ e_conj(j), mirrored on Lambda^+
        return {(j, M + 1 - j): t * nu * V(2 * t * (j - i + 1))
                for j in range(1, i)}

    if x == y:
        return corrections(x, V(1) - V(-1)) if 2 * x == M + 1 else {}
    if x + y == M + 1:
        return {(y, x): -ONE, **corrections(y, V(2) - V(-2))}
    return {(y, x): -V(2 * t)}


RULES = {"-": lambda p, x, y: _closed_form(p.M, x, y, -1),
         "+": lambda p, x, y: _closed_form(p.M, x, y, +1)}


def _rref_rules(M, table, diag):
    """frt's rules for the span of the rows diag e_a e_b +
    sum_{k,l} c e_l e_k over a table {(a, b): {(k, l): c}} of R entries."""
    rows = []
    for (a, b), entries in table.items():
        row = {(a, b): diag}
        for (k, l), c in entries.items():
            accumulate(row, (l, k), c)
        rows.append(row)
    return frt._rref_rewriter(M, rows).rules


def _bar(rules):
    return {lead: {w: c.bar() for w, c in tail.items()}
            for lead, tail in rules.items()}


def test_rules_are_the_closed_form():
    # the cached Lambda^- rules, their bar and the closed forms agree
    # rule by rule, the middle-index square at odd M included
    for M in range(1, 13):
        minus = fiber._minus_rules(M).rules
        pairs = [(x, y) for x in range(1, M + 1) for y in range(1, x + 1)]
        assert minus == {xy: _closed_form(M, *xy, -1) for xy in pairs}, M
        assert _bar(minus) == {xy: _closed_form(M, *xy, +1) for xy in pairs}, M


def test_plus_rules_come_from_the_rows_of_r():
    # Lambda^- reduces the rows (R^ + q^{-1})(e_a (x) e_b) from R's
    # columns; the same rows from R's rows, R^{ab}_{kl} at (l, k), reduce
    # to the bar of its rules, so Lambda^+ is the bar by R itself
    for M in range(1, 13):
        rows, cols = frt._r_tables(M)
        minus = fiber._minus_rules(M).rules
        assert _rref_rules(M, cols, V(-2)) == minus, M
        assert _rref_rules(M, rows, V(-2)) == _bar(minus), M
        # negative control: q in place of q^{-1} on the diagonal gives
        # other rules wherever there are two generators
        if M > 1:
            assert _rref_rules(M, cols, V(2)) != minus, M


def _normal_form(p, side, word):
    """Normal form by the module's Lambda^- straightening, or by leftmost
    rewriting with the test's own Lambda^+ rules."""
    if side == "-":
        return fiber._straighten(p, word, "-")
    for pos in range(len(word) - 1):
        if RULES["+"](p, word[pos], word[pos + 1]) is not None:
            return _straighten_after(p, side, word, pos)
    return {tuple(word): ONE}


def _straighten_after(p, side, word, pos):
    """Straighten the word after first rewriting its pair at pos."""
    out = {}
    for pair, c in RULES[side](p, word[pos], word[pos + 1]).items():
        rest = word[:pos] + pair + word[pos + 2:]
        for w, cc in _normal_form(p, side, rest).items():
            acc = out.get(w)
            out[w] = c * cc if acc is None else acc + c * cc
    return {w: c for w, c in out.items() if c}


@pytest.mark.parametrize("side", ["-", "+"])
def test_straightening_is_locally_confluent(side):
    # every length-3 word with two reducible pairs gives one normal form
    # whichever pair is rewritten first
    overlaps = 0
    for M in range(1, 7):
        p = ExtAlgParams(M)
        for word in product(range(1, M + 1), repeat=3):
            if RULES[side](p, *word[:2]) is None or \
                    RULES[side](p, *word[1:]) is None:
                continue
            overlaps += 1
            assert _straighten_after(p, side, word, 0) == \
                _straighten_after(p, side, word, 1), (M, word)
    assert overlaps == 126


def _words():
    """Every word of length <= 4 at M = 1..5 and of length <= 3 at M = 6."""
    for M, longest in [(1, 4), (2, 4), (3, 4), (4, 4), (5, 4), (6, 3)]:
        for k in range(longest + 1):
            for word in product(range(1, M + 1), repeat=k):
                yield ExtAlgParams(M), word


def test_plus_straightening_is_the_bar_of_minus():
    count = 0
    for p, word in _words():
        minus = fiber._straighten(p, word, "-")
        want = _normal_form(p, "+", word)
        assert {w: c.bar() for w, c in minus.items()} == want, (p.M, word)
        assert fiber._straighten(p, word, "+") == want, (p.M, word)
        count += 1
    assert count == 1538


def _power_by(p, l, blocks):
    """{(I, J): coeff} after l pair insertions from 1, where blocks(I, J, i)
    gives the two straightened blocks that one inserted pair makes."""
    coeffs = {((), ()): ONE}
    for _ in range(l):
        out = {}
        for (I, J), c in coeffs.items():
            for i in range(1, p.M + 1):
                lpart, rpart = blocks(I, J, i)
                for lk, lc in lpart.items():
                    for rk, rc in rpart.items():
                        term = c * lc * rc
                        acc = out.get((lk, rk))
                        out[(lk, rk)] = term if acc is None else acc + term
        coeffs = {t: c for t, c in out.items() if c}
    return coeffs


def _outside_power(p, l):
    """kappa^l by insertions e+_i ^ (e+_I ^ e-_J) ^ e-_i outside the
    blocks, valid against a central element."""
    return _power_by(p, l, lambda I, J, i: (fiber._straighten(p, (i,) + I, "+"),
                                            fiber._straighten(p, J + (i,), "-")))


def _mirror_power(p, l):
    """The g coefficients of the mirrored kappa^l on minus-first forms,
    [kappa^l] = i^l sum g_{l,I,J} e-_I ^ e+_J, by insertions
    e-_I ^ (e-_i ^ e+_i) ^ e+_J with the test's own Lambda^+ rules."""
    plus = functools.cache(lambda word: _normal_form(p, "+", word))
    return _power_by(p, l, lambda I, J, i: (fiber._straighten(p, I + (i,), "-"),
                                            plus((i,) + J)))


def test_kappa_power_endpoints():
    p = ExtAlgParams(3)
    assert kappa_power(p, 0) == ONE_FORM
    assert kappa_power(p, 1) == _kappa(3)
    # kappa^{M+1} = 0: bidegree (M+1, M+1) does not exist
    assert not kappa_power(p, 4)


def test_kappa_centrality_between_vs_outside():
    for M in (3, 4):
        p = ExtAlgParams(M)
        for l in range(M + 1):
            assert kappa_power(p, l) == _outside_power(p, l)


def test_mirrored_kappa_powers_are_the_bar_of_kappa_powers():
    for M in range(1, 7):
        p = ExtAlgParams(M)
        for l in range(2 * M + 1):
            f = kappa_power(p, l)
            assert _mirror_power(p, l) == {t: c.bar() for t, c in f.items()}, (M, l)


def test_kappa_powers_and_lefschetz_read_the_shared_table(monkeypatch):
    # once the table of M is built, the kappa powers and L straighten
    # nothing: they read the table's map
    p = ExtAlgParams(4)
    fiber.lefschetz_table(4)
    calls = []
    straighten = fiber._straighten

    def counting(*args):
        calls.append(args)
        return straighten(*args)

    monkeypatch.setattr(fiber, "_straighten", counting)
    for l in range(2 * 4 + 1):
        kappa_power(p, l)
    assert _lefschetz(p, ONE_FORM) == _kappa(4)
    assert calls == []
    # the non-primitivity check's single top pair still straightens its
    # keys, and only words holding the inserted index
    verify_nonprimitive(p)
    assert calls
    assert all(4 in word for _, word, _ in calls)


def test_classical_kappa_oracle():
    for M in (3, 4, 5):
        for l in range(M + 1):
            oracle = classical_kappa_coeffs(M, l)
            want = (-1) ** (l * (l - 1) // 2) * factorial(l)
            from itertools import combinations
            assert set(oracle) == set(combinations(range(1, M + 1), l))
            assert all(v == want for v in oracle.values())


@pytest.mark.parametrize("M", [3, 4, 5])
def test_f_properties(M):
    out = verify_f_properties(ExtAlgParams(M))
    assert out["status"] == "verified"
    assert out["failures"] == []
    assert out["checks"] > 0


def test_f_failure_blanks_only_its_own_degree(monkeypatch):
    # a wrong classical oracle at l = 1 fails that degree alone: the
    # records of l = 2 and l = 3 keep their diagonal values
    oracle = fiber.classical_kappa_coeffs

    def wrong_at_1(M, l):
        out = oracle(M, l)
        return {I: c + 1 for I, c in out.items()} if l == 1 else out

    monkeypatch.setattr(fiber, "classical_kappa_coeffs", wrong_at_1)
    out = verify_f_properties(ExtAlgParams(3))
    assert out["status"] == "failed"
    assert {f["l"] for f in out["failures"]} == {1}
    assert [(r["l"], r["diag_at_1"]) for r in out["records"]] == \
        [(0, 1), (1, None), (2, -2), (3, -6)]


def test_g_mirror_at_q1_matches_f():
    p = ExtAlgParams(3)
    for l in range(4):
        f = kappa_power(p, l)
        g = _mirror_power(p, l)
        fd = {I: c.eval_v(1) for (I, J), c in f.items() if I == J}
        gd = {I: c.eval_v(1) for (I, J), c in g.items() if I == J}
        assert fd == gd


def test_lefschetz_of_one_is_kappa():
    p = ExtAlgParams(3)
    assert _lefschetz(p, ONE_FORM) == _kappa(3)
    # L^M(1) is the top power, L^{M+1}(1) = 0
    f = ONE_FORM
    for _ in range(3):
        f = _lefschetz(p, f)
    assert f == kappa_power(p, 3)
    assert not _lefschetz(p, f)


@pytest.mark.parametrize("q0", [Fraction(1), Fraction(11, 10)])
def test_lefschetz_iso(q0):
    p = ExtAlgParams(3)
    out = verify_lefschetz_iso(p, q0)
    assert out["status"] == "verified"
    assert out["failures"] == []
    # middle-to-complement ranks are binomial-square dimensions
    dims = {d["k"]: d["dim"] for d in out["degrees"]}
    assert dims[0] == 1 and dims[2] == 15


CATALOGUE_Q = [Fraction(1), Fraction(121, 100), Fraction(9, 4),
               Fraction(11, 10), Fraction(101, 100), Fraction(5, 4)]


def _rank_mod_p(table, k, p, r):
    values = [c.eval_mod(r, p) for c in table.coeffs]
    return fiber._rank_mod(table.images_mod(values, k, table.M - k, p), p)


@pytest.mark.parametrize("M", [3, 4, 5])
def test_modular_ranks_equal_exact_ranks(M):
    table = fiber.lefschetz_table(M)
    for q0 in CATALOGUE_Q:
        p, r = fiber._modular_point(q0)
        num = table.numeric(make_evaluator(q0))
        for k in range(M):
            exact = fiber._echelon(fiber._images(num, M, k, M - k))
            assert _rank_mod_p(table, k, p, r) == exact, (M, q0, k)


@pytest.mark.parametrize("M", [3, 4])
def test_images_mod_are_the_map_images_mod_p(M):
    # the step lists push a basis index exactly as the map pushes its key
    table = fiber.lefschetz_table(M)
    p, r = fiber._modular_point(Fraction(11, 10))
    values = [c.eval_mod(r, p) for c in table.coeffs]
    residues = table.numeric(lambda c: c.eval_mod(r, p))
    for k in range(2 * M + 1):
        for power in range(1, (2 * M - k) // 2 + 1):
            target = fiber._basis(M, k + 2 * power)
            want = [{target.index(t): r for t, x in img.items() if (r := x % p)}
                    for img in fiber._images(residues, M, k, power)]
            assert table.images_mod(values, k, power, p) == want, (M, k, power)


def test_modular_point_choice(monkeypatch):
    # one prime for every point, and q |-> q0 mod p: no square root
    p = 2 ** 61 - 1
    for q0 in CATALOGUE_Q:
        assert fiber._modular_point(q0) == \
            (p, q0.numerator * pow(q0.denominator, -1, p) % p), q0
    assert fiber._modular_point(1) == (p, 1)
    for q0 in (Fraction(-1), Fraction(0), Fraction(-3, 2), Fraction(p, 7)):
        assert fiber._modular_point(q0) is None, q0
    # q0 = p/7 is no unit mod p: M = 3 is verified by the exact path alone
    sizes = []
    echelon = fiber._echelon

    def counting(rows):
        sizes.append(len(rows))
        return echelon(rows)

    monkeypatch.setattr(fiber, "_echelon", counting)
    out = verify_lefschetz_iso(ExtAlgParams(3), Fraction(p, 7))
    assert out["status"] == "verified" and sizes == [1, 6, 15]


def test_deficient_rank_mod_p_falls_back_to_exact(monkeypatch):
    params = ExtAlgParams(3)
    table = fiber.lefschetz_table(3)
    want = verify_lefschetz_iso(params, Fraction(1))
    # at p = 3, s = 1: L^3(1) = kappa^3 has coefficient -3! = 0 mod 3
    deficient = [k for k in range(3)
                 if _rank_mod_p(table, k, 3, 1) < len(fiber._basis(3, k))]
    assert deficient == [0]
    sizes = []
    echelon = fiber._echelon

    def counting(rows):
        sizes.append(len(rows))
        return echelon(rows)

    monkeypatch.setattr(fiber, "_echelon", counting)
    monkeypatch.setattr(fiber, "_modular_point", lambda q0: (3, 1))
    assert verify_lefschetz_iso(params, Fraction(1)) == want
    assert sizes == [len(fiber._basis(3, k)) for k in deficient]
    # no usable point: every degree takes the exact path
    sizes.clear()
    monkeypatch.setattr(fiber, "_modular_point", lambda q0: None)
    assert verify_lefschetz_iso(params, Fraction(1)) == want
    assert sizes == [1, 6, 15]


def test_nonpositive_q_keeps_the_exact_path_error():
    with pytest.raises(ValueError):
        verify_lefschetz_iso(ExtAlgParams(3), Fraction(-1))


def test_make_evaluator_square_vs_quadratic():
    # a rational square and a quadratic irrational point alike evaluate
    # an element of Q(q) over Q, and refuse an odd v-power
    ev1 = make_evaluator(Fraction(1))
    assert ev1(V(2) + ONE) == 2
    ev2 = make_evaluator(Fraction(11, 10))
    x = ev2(V(2) + V(-2))
    assert x == Fraction(11, 10) + Fraction(10, 11) and type(x) is Fraction
    for ev in (ev1, ev2):
        with pytest.raises(ValueError, match="odd power of v"):
            ev(V(1))
        # a scalar that is already rational passes through unchanged
        r = Fraction(-4, 3)
        assert ev(r) is r and ev(1) == 1 and type(ev(1)) is int
    for q0 in (Fraction(0), Fraction(-9, 4)):
        with pytest.raises(ValueError):
            make_evaluator(q0)


def _pi(M, key):
    """The rescaling exponent of the basis: q^{-pi/2} e+_I ^ f-_J with
    pi = 1 when M is odd and the middle index is in I but not in J."""
    I, J = key
    m = (M + 1) // 2
    return 1 if M % 2 and m in I and m not in J else 0


def _even(c):
    return not any(e % 2 for poly in c.base for e in poly)


@pytest.mark.parametrize("M", range(1, 7))
def test_table_is_the_insertion_in_the_rescaled_basis(M):
    # every entry is _insert's coefficient times v^{pi(t) - pi(key)}, and
    # lies in Z[q, q^-1]: only even v-powers, over the integers
    p = ExtAlgParams(M)
    table = fiber.lefschetz_table(M)
    straighten = functools.cache(lambda word, side: fiber._straighten(p, word, side))
    moved = 0
    for key, image in table.map.items():
        want = {t: c.shift(_pi(M, t) - _pi(M, key))
                for t, c in fiber._insert(p, key, straighten=straighten).items()}
        assert image == want, key
        moved += any(_pi(M, t) != _pi(M, key) for t in image)
    assert all(_even(c) and c.base[1] == {0: 1} for c in table.coeffs)
    assert all(type(x) is int for c in table.coeffs for x in c.base[0].values())
    assert (moved > 0) == (M % 2 == 1 and M > 1)


def test_kappa_powers_have_no_rescaled_key():
    # the rescaling moves no kappa power: none has a key with pi = 1
    for M in range(1, 8):
        p = ExtAlgParams(M)
        for l in range(2 * M + 1):
            assert not any(_pi(M, key) for key in kappa_power(p, l)), (M, l)


@pytest.mark.parametrize("M", [3, 4])
def test_ranks_equal_the_ranks_in_the_old_basis_over_q_sqrt_q(M):
    # the unscaled map e+_I ^ f-_J, evaluated in Q(sqrt(q0)), has the
    # ranks verify_lefschetz_iso reports: a diagonal change of basis
    # keeps every rank
    table = fiber.lefschetz_table(M)
    for q0 in (Fraction(11, 10), Fraction(101, 100), Fraction(5, 4)):
        old = {key: {t: c.shift(_pi(M, key) - _pi(M, t)).eval_sqrtq(q0)
                     for t, c in image.items()}
               for key, image in table.map.items()}
        irrational = sum(bool(x.b) for image in old.values() for x in image.values())
        assert (irrational > 0) == (M % 2 == 1)
        ranks = [d["rank"] for d in verify_lefschetz_iso(ExtAlgParams(M), q0)["degrees"]]
        assert ranks == [fiber._echelon(fiber._images(old, M, k, M - k))
                         for k in range(M)], q0


def test_no_square_root_at_a_quadratic_irrational_point(monkeypatch):
    made = []
    init = QuadExt.__init__

    def counting(self, *args):
        made.append(args)
        init(self, *args)

    monkeypatch.setattr(QuadExt, "__init__", counting)
    q0 = Fraction(11, 10)
    for M in (3, 4):
        params = ExtAlgParams(M)
        table = fiber._LefschetzTable(params)
        monkeypatch.setattr(fiber, "lefschetz_table", lambda m: table)
        assert verify_lefschetz_iso(params, q0)["status"] == "verified"
        assert verify_hodge_shape(params, q0, trials=1)["status"] == "verified"
        with monkeypatch.context() as m:
            m.setattr(fiber, "_modular_point", lambda q0: None)
            assert verify_lefschetz_iso(params, q0)["status"] == "verified"
    assert made == []


def test_symbolic_hodge_builds_one_decomposition_per_call(monkeypatch):
    p = ExtAlgParams(3)
    built = []
    decomposition = fiber._Decomposition

    def counting(num, M, k):
        built.append(k)
        return decomposition(num, M, k)

    monkeypatch.setattr(fiber, "_Decomposition", counting)
    form = {key: ONE for key in fiber._basis(3, 3)}
    assert len(form) == 20
    image = hodge(p, form)
    assert built == [3]
    # the same image as the sum of its key columns, one call each
    by_key = {}
    for key in form:
        by_key = _plus(by_key, hodge(p, {key: ONE}))
    assert by_key == image and len(built) == 21


def test_primitive_decomposition_reconstructs():
    import random

    p = ExtAlgParams(3)
    rng = random.Random(7)
    forms = [f for a, b in [(1, 1), (2, 1), (2, 2)] for f in random_form(p, a, b, rng)]
    for form in forms:
        if not form:
            continue
        parts = primitive_decompose(p, form)
        acc = {}
        for j, wj in parts:
            g = wj
            for _ in range(j):
                g = _lefschetz(p, g)
            acc = _plus(acc, g)
        assert acc == form
        # each w_j is primitive: L^{M - deg + 1} w_j = 0
        for j, wj in parts:
            d = _degree(wj)
            g = wj
            for _ in range(3 - d + 1):
                g = _lefschetz(p, g)
            assert not g


def test_hodge_of_one_and_kappa():
    p = ExtAlgParams(3)
    star1 = hodge(p, ONE_FORM)
    want = _scaled(kappa_power(p, 3), FieldElem.from_rational(Fraction(1, 6)))
    assert star1 == want
    # *(kappa) = kappa^2 / 2
    star_k = hodge(p, _kappa(3))
    want2 = _scaled(kappa_power(p, 2), FieldElem.from_rational(Fraction(1, 2)))
    assert star_k == want2


@pytest.mark.parametrize("M", [3, 4])
def test_nonprimitive_top_wedge(M):
    out = verify_nonprimitive(ExtAlgParams(M))
    assert out["status"] == "verified"
    assert set(out["details"]) == {"f", "g"}
    if M == 3:
        assert out["details"]["f"]["at_1"] == "-2"
    # the "g" law is e-_M ^ e+_M inserted into the mirrored (M-1)-power
    p = ExtAlgParams(M)
    full = tuple(range(1, M + 1))
    top = ZERO
    for (I, J), c in _mirror_power(p, M - 1).items():
        lpart = fiber._straighten(p, I + (M,), "-")
        rpart = _normal_form(p, "+", (M,) + J)
        top = top + c * lpart.get(full, ZERO) * rpart.get(full, ZERO)
    assert out["details"]["g"]["coefficient"] == top.to_text()


def test_hodge_shape():
    out = verify_hodge_shape(ExtAlgParams(3), trials=2)
    assert out["status"] == "verified"
    assert out["failures"] == []


def _evaluated(form, ev):
    return {key: x for key, c in form.items() if (x := ev(FieldElem._coerce(c)))}


@pytest.mark.parametrize("q0", [Fraction(9, 4), Fraction(11, 10)])
def test_numeric_hodge_is_evaluated_symbolic_hodge(q0):
    import random

    p = ExtAlgParams(3)
    ev = make_evaluator(q0)
    rng = random.Random(11)
    for a, b in [(0, 1), (1, 1), (2, 1), (1, 2), (2, 2), (3, 1)]:
        for form in random_form(p, a, b, rng):
            numeric = hodge(p, form, q0)
            assert numeric, (a, b)
            assert numeric == _evaluated(hodge(p, form), ev), (q0, a, b)
            assert {(len(I), len(J)) for I, J in numeric} == {(3 - b, 3 - a)}
            assert not any(isinstance(x, (float, FieldElem)) for x in numeric.values())


def _weil(p, form, q0):
    """The Weil formula on the decomposition of the whole form, with no
    per-key columns: the reference for hodge at a point."""
    M, d = p.M, _degree(form)
    num = fiber.lefschetz_table(M).at(q0)[1]
    out = {}
    for j, w in primitive_decompose(p, form, q0):
        k = d - 2 * j
        s = Fraction((-1) ** (k * (k + 1) // 2) * factorial(j), factorial(M - j - k))
        for _ in range(M - j - k):
            w = apply(num, w)
        out = _plus(out, _scaled(w, s))
    return out


@pytest.mark.parametrize("q0", [Fraction(121, 100), Fraction(11, 10)])
def test_hodge_at_a_point_is_the_sum_of_its_key_columns(q0):
    p = ExtAlgParams(3)
    rng = random.Random(13)
    for a, b in [(0, 0), (1, 0), (1, 1), (2, 1), (1, 2), (2, 2), (3, 2)]:
        for form in filter(None, random_form(p, a, b, rng)):
            image = hodge(p, form, q0)
            assert image == _weil(p, form, q0), (a, b)
            symbolic = {key: FieldElem.from_rational(c) for key, c in form.items()}
            assert hodge(p, symbolic, q0) == image, (a, b)
            by_key = {}
            for key, c in form.items():
                by_key = _plus(by_key, _scaled(hodge(p, {key: ONE}, q0), c))
            assert by_key == image, (a, b)


@pytest.mark.parametrize("M", [1, 2, 3])
def test_hodge_is_an_involution(M):
    # hodge = C^{-1} * with C = i^{p-q}; C commutes with * and C^2 = ** =
    # (-1)^k on degree k, so hodge(hodge(f)) = f
    p = ExtAlgParams(M)
    rng = random.Random(M)
    for a in range(M + 1):
        for b in range(M + 1):
            for form in random_form(p, a, b, rng):
                assert hodge(p, hodge(p, form)) == form, (a, b)


# Classical q = 1 oracle for the Hodge map.  Real coordinates u_0..u_{2M-1}
# with x_i = u_{2i-2}, y_i = u_{2i-1} are orthonormal for the flat metric
# and e+_i = x_i + i y_i, e-_i = (x_i - i y_i) / 2, so that
# kappa = i sum_i e+_i ^ e-_i = sum_i x_i ^ y_i and kappa^M / M! is
# u_0 ^ ... ^ u_{2M-1}.  Complex scalars are (re, im) pairs of rationals.

def _gmul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _inversions(word):
    return sum(a > b for n, a in enumerate(word) for b in word[n + 1:])


def _real_coordinates(M, form):
    """A {(I, J): (re, im)} form in the basis e+_I ^ f-_J, f-_j = i e-_j,
    as {sorted tuple S: (re, im)} over the monomials u_S."""
    half = Fraction(1, 2)
    plus = {i: {2 * i - 2: (1, 0), 2 * i - 1: (0, 1)} for i in range(1, M + 1)}
    fminus = {i: {2 * i - 2: (0, half), 2 * i - 1: (half, 0)} for i in range(1, M + 1)}
    out = {}
    for (I, J), c in form.items():
        partial = {(): c}
        for gen in [plus[i] for i in I] + [fminus[j] for j in J]:
            nxt = {}
            for S, a in partial.items():
                for u, b in gen.items():
                    if u in S:
                        continue
                    x = _gmul(a, b)
                    sign = (-1) ** sum(s > u for s in S)
                    key = tuple(sorted(S + (u,)))
                    y = nxt.get(key, (0, 0))
                    nxt[key] = (y[0] + sign * x[0], y[1] + sign * x[1])
            partial = nxt
        for S, a in partial.items():
            y = out.get(S, (0, 0))
            out[S] = (y[0] + a[0], y[1] + a[1])
    return {S: a for S, a in out.items() if a != (0, 0)}


def _classical_star(M, real):
    """The Hodge star of the flat metric, *(u_S) = sign(S, S^c) u_{S^c},
    with the orientation *(1) = kappa^M / M! = u_0 ^ ... ^ u_{2M-1}."""
    out = {}
    for S, a in real.items():
        rest = tuple(u for u in range(2 * M) if u not in S)
        sign = (-1) ** _inversions(S + rest)
        out[rest] = (sign * a[0], sign * a[1])
    return out


@pytest.mark.parametrize("M", [1, 2, 3])
def test_hodge_matches_the_classical_star_at_q_1(M):
    # * = C hodge, with C = i^{p-q} on bidegree (p, q); this pins the Weil
    # sign (-1)^{k(k+1)/2}, which the involution test cannot see
    p = ExtAlgParams(M)
    powers = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    for k in range(2 * M + 1):
        for key in fiber._basis(M, k):
            image = hodge(p, {key: ONE}, Fraction(1))
            weil = {(I, J): _gmul((c, 0), powers[(len(I) - len(J)) % 4])
                    for (I, J), c in image.items()}
            want = _classical_star(M, _real_coordinates(M, {key: (1, 0)}))
            assert _real_coordinates(M, weil) == want, key


def test_numeric_hodge_is_an_involution_at_m4():
    p = ExtAlgParams(4)
    q0 = Fraction(121, 100)
    ev = make_evaluator(q0)
    rng = random.Random(4)
    for a in range(5):
        for b in range(5):
            for form in random_form(p, a, b, rng):
                image = hodge(p, form, q0)
                back = {key: FieldElem.from_rational(c) for key, c in image.items()}
                assert hodge(p, back, q0) == _evaluated(form, ev), (a, b)


def _snapshot(table):
    return {key: {t: c.to_text() for t, c in img.items()}
            for key, img in table.map.items()}


def test_shared_table_is_left_unchanged(monkeypatch):
    p = ExtAlgParams(3)
    table = fiber.lefschetz_table(3)
    before = _snapshot(table)
    for q0 in CATALOGUE_Q:
        assert verify_lefschetz_iso(p, q0)["status"] == "verified"
    # without a modular point every degree reads the evaluated table
    monkeypatch.setattr(fiber, "_modular_point", lambda q0: None)
    for q0 in CATALOGUE_Q[:2]:
        assert verify_lefschetz_iso(p, q0)["status"] == "verified"
    form = random_form(p, 2, 1, random.Random(5))[0]
    for q0 in (None, Fraction(11, 10)):
        assert hodge(p, form, q0)
        assert primitive_decompose(p, form, q0)
    assert fiber.lefschetz_table(3) is table
    assert _snapshot(table) == before


def _reachable(root):
    """Ids of the containers and fiber objects reachable from root,
    without entering functions or scalars."""
    seen = set()
    stack = [root]
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, dict):
            stack.extend(x.keys())
            stack.extend(x.values())
        elif isinstance(x, (list, tuple, set)):
            stack.extend(x)
        elif type(x).__module__ == fiber.__name__:
            stack.extend(getattr(x, name) for name in getattr(type(x), "__slots__", ())
                         if hasattr(x, name))
            stack.extend(getattr(x, "__dict__", {}).values())
    return seen


def test_table_keeps_one_evaluated_map(monkeypatch):
    table = fiber._LefschetzTable(ExtAlgParams(3))
    monkeypatch.setattr(fiber, "lefschetz_table", lambda m: table)
    calls = []
    numeric = fiber._LefschetzTable.numeric

    def counting(self, ev):
        calls.append(ev)
        return numeric(self, ev)

    monkeypatch.setattr(fiber._LefschetzTable, "numeric", counting)
    a, b = Fraction(9, 4), Fraction(11, 10)
    map_a = table.at(a)[1]
    assert table.at(a)[1] is map_a and len(calls) == 1
    decs_a = [table.decomposition(a, k) for k in range(7)]
    assert [table.decomposition(a, k) for k in range(7)] == decs_a
    assert len(calls) == 1
    hodge(ExtAlgParams(3), {((1,), (2,)): ONE, ((1, 2), ()): V(2)}, a)
    cols_a = table.hodge_columns(a)
    assert len(cols_a) == 2 and table.hodge_columns(a) is cols_a and len(calls) == 1
    objs_a = [map_a] + decs_a + [x for d in decs_a for x in (d.prims, d.span)]
    objs_a += [cols_a] + list(cols_a.values())
    assert id(map_a) in _reachable(table) and id(cols_a) in _reachable(table)
    table.at(b)
    held = _reachable(table)
    assert not any(id(x) in held for x in objs_a)
    assert table.at(None)[1] is table.map and len(calls) == 2
    assert table.decomposition(None, 2) is not table.decomposition(None, 2)
    fresh = table.hodge_columns(None)
    assert fresh == {} and table.hodge_columns(None) is not fresh
    assert table.at(a)[1] is not map_a and len(calls) == 3
    assert table.decomposition(a, 2) is not decs_a[2]


@pytest.mark.parametrize("M, distinct, entries", [(3, 9, 57), (4, 16, 288), (5, 44, 1728)])
def test_evaluation_is_per_distinct_coefficient(M, distinct, entries, monkeypatch):
    table = fiber.lefschetz_table(M)
    assert sum(len(img) for img in table.map.values()) == entries
    seen = []
    num = table.numeric(lambda c: seen.append(c) or c.to_text())
    assert len(seen) == distinct
    assert num == {key: {t: c.to_text() for t, c in img.items()}
                   for key, img in table.map.items()}
    calls = []
    eval_mod = FieldElem.eval_mod

    def counting(self, s, p):
        calls.append(self)
        return eval_mod(self, s, p)

    monkeypatch.setattr(FieldElem, "eval_mod", counting)
    params = ExtAlgParams(M)
    for n, q0 in enumerate((Fraction(11, 10), Fraction(9, 4)), 1):
        assert verify_lefschetz_iso(params, q0)["status"] == "verified"
        assert len(calls) == n * distinct and len(set(map(id, calls))) == distinct


@pytest.mark.parametrize("M", [3, 4])
def test_decomposition_is_the_same_cold_and_warm(M, monkeypatch):
    p = ExtAlgParams(M)
    q0 = Fraction(121, 100)
    table = fiber._LefschetzTable(p)
    monkeypatch.setattr(fiber, "lefschetz_table", lambda m: table)
    calls = []
    primitives = fiber._primitives

    def counting(num, M, d):
        calls.append(d)
        return primitives(num, M, d)

    monkeypatch.setattr(fiber, "_primitives", counting)
    form = _plus(random_form(p, 2, 1, random.Random(9))[0],
                 random_form(p, 1, 2, random.Random(10))[1])
    cold = primitive_decompose(p, form, q0)
    assert cold and calls
    calls.clear()
    warm = primitive_decompose(p, form, q0)
    assert warm == cold and not calls
    table.at(Fraction(9, 4))
    assert primitive_decompose(p, form, q0) == cold and calls
    if M == 3:
        # the symbolic decomposition, evaluated, agrees with the numeric one
        ev = make_evaluator(q0)
        assert [(j, _evaluated(w, ev)) for j, w in primitive_decompose(p, form)] == cold


@pytest.mark.parametrize("fault", ["drop", "repeat"])
def test_singular_decomposition_raises(fault, monkeypatch):
    # a lost primitive vector leaves kappa outside the column span
    # (inconsistent); a repeated one leaves the columns dependent
    p = ExtAlgParams(3)
    table = fiber._LefschetzTable(p)
    monkeypatch.setattr(fiber, "lefschetz_table", lambda m: table)
    primitives = fiber._primitives

    def faulty(num, M, d):
        basis = primitives(num, M, d)
        if d == 0:  # the constant 1
            return [] if fault == "drop" else basis * 2
        return basis

    monkeypatch.setattr(fiber, "_primitives", faulty)
    for q0 in (Fraction(121, 100), None):
        with pytest.raises(DecompositionSingular):
            primitive_decompose(p, _kappa(3), q0)
        with pytest.raises(DecompositionSingular):
            hodge(p, _kappa(3), q0)


def test_hodge_shape_at_m4():
    out = verify_hodge_shape(ExtAlgParams(4), Fraction(121, 100))
    assert out["status"] == "verified"
    assert out["checks"] == 101


def test_hodge_columns_are_built_once_per_point(monkeypatch):
    params = ExtAlgParams(3)
    table = fiber._LefschetzTable(params)
    monkeypatch.setattr(fiber, "lefschetz_table", lambda m: table)
    calls, keys = [], []
    primitives, weil = fiber._primitives, fiber._weil_image

    def counting_primitives(num, M, d):
        calls.append(("primitives", num is table.map))
        return primitives(num, M, d)

    def counting_column(params, form, q0):
        calls.append(("column", q0 is None))
        keys.append((tuple(form), q0))
        return weil(params, form, q0)

    monkeypatch.setattr(fiber, "_primitives", counting_primitives)
    monkeypatch.setattr(fiber, "_weil_image", counting_column)
    q0 = Fraction(121, 100)
    first = verify_hodge_shape(params, q0)
    assert first["status"] == "verified"
    at_q0 = [key for key, at in keys if at is not None]
    assert at_q0 and len(set(at_q0)) == len(at_q0)  # each touched key once
    calls.clear()
    assert verify_hodge_shape(params, Fraction(121, 100)) == first
    # only the symbolic *(1) = kappa^M / M! is built again
    assert calls and all(symbolic for _, symbolic in calls)
    assert sum(c[0] == "column" for c in calls) == 1


def test_hodge_shape_evaluates_each_table_entry_once(monkeypatch):
    # every evaluated element is kept alive, so ids stay distinct
    seen = []
    for name in ("eval_v", "eval_q", "eval_sqrtq"):
        orig = getattr(FieldElem, name)

        def counting(self, *args, _orig=orig):
            seen.append(self)
            return _orig(self, *args)

        monkeypatch.setattr(FieldElem, name, counting)
    params = ExtAlgParams(3)
    table = fiber._LefschetzTable(params)
    monkeypatch.setattr(fiber, "lefschetz_table", lambda m: table)
    out = verify_hodge_shape(params, Fraction(121, 100))
    assert out["status"] == "verified"
    per_element = {}
    for x in seen:
        per_element[id(x)] = per_element.get(id(x), 0) + 1
    assert max(per_element.values()) == 1
    # the table's distinct coefficients once and nothing else: the random
    # forms are rational and the Hodge columns are built from the int 1
    distinct = len(table.coeffs)
    assert distinct == 9
    assert len(seen) <= distinct


def test_decomposition_rejects_a_mixed_degree_form():
    p = ExtAlgParams(3)
    form = {((1,), (2,)): V(2), ((1,), (2, 3)): ONE}
    for q0 in (None, Fraction(11, 10)):
        with pytest.raises(ValueError, match="not homogeneous"):
            primitive_decompose(p, form, q0)
        with pytest.raises(ValueError, match="not homogeneous"):
            hodge(p, form, q0)
