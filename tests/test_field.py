"""Coefficient-field arithmetic: axioms, q-integers, exact evaluation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qso_spectra import field
from qso_spectra.errors import DenominatorVanishes
from qso_spectra.field import (
    ONE,
    ZERO,
    FieldElem,
    _rf_norm,
    lp_scale,
    lp_shift,
    plist_divmod,
    plist_gcd,
    sym_qbinom,
    sym_qint,
)
from qso_spectra.spectrum import SpectralParams, _QintTable

rationals = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6)


@st.composite
def field_elems(draw):
    terms = draw(st.lists(
        st.tuples(st.integers(-4, 4), rationals), min_size=0, max_size=3))
    x = ZERO
    for e, c in terms:
        x = x + FieldElem.monomial(c, e)
    if draw(st.booleans()):
        d = draw(st.integers(-2, 2))
        x = x / (FieldElem.v_pow(d) + 2)
    return x


def _in_q(a):
    """a with v replaced by v^2 = q: an element of Q(q), only even
    v-powers, whose value at q = x is a's value at v = x.  The pair stays
    canonical: a Bezout identity for the old pair gives one for the new."""
    return FieldElem(tuple({2 * e: c for e, c in p.items()} for p in a.base))


@settings(max_examples=60, deadline=None)
@given(field_elems(), field_elems(), field_elems())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@settings(max_examples=40, deadline=None)
@given(field_elems())
def test_field_inverse(a):
    if a:
        assert a * a.inverse() == ONE
        assert a / a == ONE
    else:
        with pytest.raises(ZeroDivisionError):
            a.inverse()


@settings(max_examples=60, deadline=None)
@given(field_elems())
def test_inverse_is_the_canonical_swapped_pair(a):
    if a:
        num, den = a.base
        got, want = a.inverse().base, _rf_norm(den, num)
        assert got == want
        assert [[type(c) for c in p.values()] for p in got] == \
            [[type(c) for c in p.values()] for p in want]


def test_inverse_makes_no_gcd(monkeypatch):
    # a canonical pair is coprime, so swapping it needs no gcd
    v = FieldElem.v_pow(1)
    elems = [v + 2, (v + 2) / (v * v - 3), (v * v - 3) / (v.inverse() + 2)]
    calls = []
    orig = field.plist_gcd

    def counted(a, b):
        calls.append(1)
        return orig(a, b)

    monkeypatch.setattr(field, "plist_gcd", counted)
    inverses = [x.inverse() for x in elems]
    assert calls == []
    assert all(x * y == ONE for x, y in zip(elems, inverses))


@settings(max_examples=40, deadline=None)
@given(field_elems(), field_elems(),
       st.fractions(min_value=Fraction(1), max_value=Fraction(3),
                    max_denominator=4))
def test_eval_is_ring_homomorphism(a, b, v0):
    assert (a + b).eval_v(v0) == a.eval_v(v0) + b.eval_v(v0)
    assert (a * b).eval_v(v0) == a.eval_v(v0) * b.eval_v(v0)


@settings(max_examples=40, deadline=None)
@given(field_elems(), st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(-7, 5)]))
def test_eval_mod_agrees_with_exact_value(a, v0):
    # q |-> v0 mod p is the reduction of the exact value at q = v0, which
    # is a's value at v = v0
    p = 1_000_003
    r = v0.numerator * pow(v0.denominator, -1, p) % p
    got = _in_q(a).eval_mod(r, p)
    try:
        exact = a.eval_v(v0)
    except DenominatorVanishes:
        assert got is None
        return
    assert got == exact.numerator * pow(exact.denominator, -1, p) % p


@settings(max_examples=60, deadline=None)
@given(field_elems(), field_elems(),
       st.fractions(min_value=Fraction(1, 3), max_value=Fraction(3),
                    max_denominator=4))
def test_bar_is_an_involutive_automorphism(a, b, v0):
    # v |-> 1/v: additive, multiplicative, an involution, and the value
    # of bar(a) at v0 is the value of a at 1/v0
    assert (a + b).bar() == a.bar() + b.bar()
    assert (a * b).bar() == a.bar() * b.bar()
    assert a.bar().bar().base == a.base
    try:
        want = a.eval_v(1 / v0)
    except DenominatorVanishes:
        with pytest.raises(DenominatorVanishes):
            a.bar().eval_v(v0)
        return
    assert a.bar().eval_v(v0) == want


@settings(max_examples=60, deadline=None)
@given(field_elems(), field_elems(), st.integers(-3, 3),
       rationals.filter(bool))
def test_equal_values_have_one_canonical_pair(a, b, k, c):
    # == and hash read the canonical pair, so one value built by two
    # routes must land on one pair, and _rf_norm must be idempotent
    assert (a == b) is (not (a - b))
    pairs = [((a + b) * (a - b), a * a - b * b), (a.bar().bar(), a),
             (a.shift(k).shift(-k), a)]
    if a:
        pairs.append((a.inverse().inverse(), a))
    if b:
        pairs.append(((a * b) / b, a))
    for x, y in pairs:
        assert not (x - y)
        assert x == y and hash(x) == hash(y)
        num, den = x.base
        assert _rf_norm(num, den) == x.base
        # the same value with a common factor c * v^k put back
        assert _rf_norm(lp_scale(lp_shift(num, k), c),
                        lp_scale(lp_shift(den, k), c)) == x.base


def test_bar_of_a_proper_fraction_is_canonical():
    # 1/(v^{-1} + 2) = v/(1 + 2v): the denominator is shifted to a
    # polynomial with constant term 1
    x = ONE / (FieldElem.v_pow(1) + 2)
    assert x.bar().base == ({1: Fraction(1)}, {0: Fraction(1), 1: Fraction(2)})
    assert FieldElem.monomial(Fraction(3, 2), 5).bar().base == \
        ({-5: Fraction(3, 2)}, {0: Fraction(1)})
    assert ZERO.bar() == ZERO and ONE.bar() == ONE


@settings(max_examples=40, deadline=None)
@given(st.integers(-8, 8), st.integers(1, 3))
def test_sym_qint_is_bar_invariant(m, e):
    x = sym_qint(m, e)
    assert x.bar() == x


def test_eval_mod_without_image():
    x = FieldElem.monomial(Fraction(1, 7), 2)  # q/7
    assert x.eval_mod(2, 7) is None          # coefficient denominator 7
    assert x.eval_mod(2, 11) == 2 * pow(7, -1, 11) % 11
    y = ONE / (FieldElem.v_pow(2) - 4)
    assert y.eval_mod(4, 11) is None         # pole at q = 4


@settings(max_examples=60, deadline=None)
@given(field_elems(), st.fractions(min_value=Fraction(-3), max_value=Fraction(3),
                                   max_denominator=5))
def test_elements_of_q_of_q_evaluate_at_q(a, v0):
    # an element with only even v-powers takes at q = v0^2 its value at
    # v = v0, over Q and mod p, with no square root taken
    b = _in_q(a)
    p = 1_000_003
    r = (v0 * v0).numerator * pow((v0 * v0).denominator, -1, p) % p
    try:
        want = b.eval_v(v0)
    except DenominatorVanishes:
        with pytest.raises(DenominatorVanishes):
            b.eval_q(v0 * v0)
        return
    assert b.eval_q(v0 * v0) == want and type(b.eval_q(v0 * v0)) is Fraction
    assert b.eval_mod(r, p) == want.numerator * pow(want.denominator, -1, p) % p


def test_an_odd_v_power_has_no_value_at_q():
    v = FieldElem.v_pow(1)
    for x in (v, v + ONE, ONE / (v + 2), FieldElem.v_pow(-3)):
        with pytest.raises(ValueError, match="odd power of v"):
            x.eval_q(Fraction(11, 10))
        with pytest.raises(ValueError, match="odd power of v"):
            x.eval_mod(3, 1_000_003)
    assert (v * v).eval_q(Fraction(11, 10)) == Fraction(11, 10)


def test_eval_pole_raises():
    x = ONE / (FieldElem.v_pow(1) - 1)
    with pytest.raises(DenominatorVanishes):
        x.eval_v(1)


def _table_qints(q, mmax):
    """The q-integers (m)_{q^2} and (m)_{q^-2}, m <= mmax + 1, that the
    spectrum's _QintTable holds: with q^2 = a/b in lowest terms they are
    s[m]/b^(m-1) and s[m]/a^(m-1)."""
    t = _QintTable(SpectralParams(q=q), mmax)
    up = [Fraction(0)] + [Fraction(t.s[m], t.bpow[m - 1]) for m in range(1, mmax + 2)]
    down = [Fraction(0)] + [Fraction(t.s[m], t.apow[m - 1]) for m in range(1, mmax + 2)]
    return up, down


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8),
       st.fractions(min_value=Fraction(1, 10), max_value=Fraction(5),
                    max_denominator=12))
def test_qint_recurrence_and_sum(k, m, q):
    up, down = _table_qints(q, 16)
    for qi, t in ((up, q * q), (down, 1 / (q * q))):
        # (k)_t = 1 + t + ... + t^(k-1)
        assert qi[k] == sum(t ** i for i in range(k))
        # (k+1)_t = t*(k)_t + 1
        assert qi[k + 1] == t * qi[k] + 1
        # (k+m)_t = (k)_t + t^k (m)_t
        assert qi[k + m] == qi[k] + t ** k * qi[m]


def test_qint_classical_limit():
    up, down = _table_qints(1, 6)
    assert up == down == list(range(8))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.integers(1, 2))
def test_sym_qbinom_pascal(m, k, vexp):
    # [m+1, k] = v^{-k} [m, k] + v^{m+1-k} [m, k-1] (symmetric Pascal rule)
    lhs = sym_qbinom(m + 1, k, vexp)
    rhs = FieldElem.v_pow(-vexp * k) * sym_qbinom(m, k, vexp) + \
        FieldElem.v_pow(vexp * (m + 1 - k)) * sym_qbinom(m, k - 1, vexp)
    assert lhs == rhs


def test_sym_qint_balanced():
    assert sym_qint(3, 2) == FieldElem.v_pow(4) + ONE + FieldElem.v_pow(-4)
    assert sym_qint(-3, 2) == -sym_qint(3, 2)


def test_eval_sqrtq_and_sign():
    x = FieldElem.v_pow(1) - FieldElem.v_pow(-1)  # q^{1/2} - q^{-1/2}
    assert x.sign_at_sqrtq(Fraction(11, 10)) == 1
    assert (-x).sign_at_sqrtq(Fraction(11, 10)) == -1
    assert ZERO.sign_at_sqrtq(Fraction(11, 10)) == 0
    a = (FieldElem.v_pow(2)).eval_sqrtq(Fraction(11, 10))
    assert a.a == Fraction(11, 10) and a.b == 0


def test_to_text_examples():
    assert ZERO.to_text() == "0"
    assert (FieldElem.v_pow(2) + ONE).to_text() == "v^2 + 1"
    assert (-ONE / FieldElem.v_pow(6)).to_text() == "(-1)/(v^6)"


coeffs = st.fractions(min_value=Fraction(-9), max_value=Fraction(9),
                      max_denominator=7)
dense = st.lists(coeffs, max_size=5).map(
    lambda p: p[:len(p) - next((i for i, x in enumerate(reversed(p)) if x),
                               len(p))])


@settings(max_examples=60, deadline=None)
@given(dense, dense.filter(bool))
def test_plist_divmod_identity(a, b):
    # a = q*b + r with deg r < deg b
    q, r = plist_divmod(a, b)
    total = [Fraction(0)] * max(len(a), len(q) + len(b) - 1, len(r))
    for i, x in enumerate(q):
        for j, y in enumerate(b):
            total[i + j] += x * y
    for i, x in enumerate(r):
        total[i] += x
    assert total == a + [Fraction(0)] * (len(total) - len(a))
    assert len(r) < len(b)


@settings(max_examples=40, deadline=None)
@given(dense, dense)
def test_plist_gcd_divides_and_is_monic(a, b):
    g = plist_gcd(a, b)
    if g:
        for p in (a, b):
            if p:
                _, r = plist_divmod(p, g)
                assert not r
        assert g[-1] == 1


# -- the coefficient rule: an int exactly when integral -------------------
#
# The reference below is Q(v) with every coefficient a Fraction and no
# normalisation at all: an element is a (numerator, denominator) pair of
# Laurent dicts, and two elements are equal when they cross-multiply to
# the same dict.

def _ref_poly(p):
    return {e: Fraction(c) for e, c in p.items()}


def _ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return {e: c for e, c in out.items() if c}


def _ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c}


def _ref_value(p, v0):
    return sum((c * v0 ** e for e, c in p.items()), Fraction(0))


_REF_ONE = {0: Fraction(1)}


@st.composite
def field_pairs(draw):
    """A FieldElem built by field arithmetic and the same element in the
    all-Fraction reference, built separately.  Integer coefficients are
    drawn often, so results over Z are common."""
    coeff = st.one_of(st.integers(-5, 5), rationals)
    terms = draw(st.lists(st.tuples(st.integers(-4, 4), coeff), max_size=3))
    x, num = ZERO, {}
    for e, c in terms:
        x = x + FieldElem.monomial(c, e)
        num = _ref_add(num, {e: Fraction(c)})
    ref = (num, _REF_ONE)
    if draw(st.booleans()):
        d = draw(st.integers(-2, 2))
        k = draw(st.sampled_from([2, -3, Fraction(1, 3)]))
        x = x / (FieldElem.v_pow(d) + k)
        ref = (num, _ref_add({d: Fraction(1)}, {0: Fraction(k)}))
    return x, ref


def _assert_rule(x):
    # every coefficient is an int or a non-integral Fraction, never a
    # float, and the denominator is canonical
    num, den = x.base
    for p in (num, den):
        for c in p.values():
            assert type(c) is int or (type(c) is Fraction and c.denominator > 1), c
    assert min(den) == 0 and den[0] == 1
    if len(den) == 1 and all(Fraction(c).denominator == 1 for c in num.values()):
        # a Laurent polynomial over Z: int coefficients only
        assert all(type(c) is int for c in num.values())


def _assert_same(x, ref):
    _assert_rule(x)
    num, den = x.base
    rn, rd = ref
    assert _ref_mul(_ref_poly(num), rd) == _ref_mul(rn, _ref_poly(den))


@settings(max_examples=150, deadline=None)
@given(field_pairs(), field_pairs(), st.integers(-3, 3))
def test_arithmetic_matches_the_all_fraction_reference(pa, pb, k):
    (a, (an, ad)), (b, (bn, bd)) = pa, pb
    _assert_same(a, (an, ad))
    _assert_same(a + b, (_ref_add(_ref_mul(an, bd), _ref_mul(bn, ad)), _ref_mul(ad, bd)))
    _assert_same(a - b, (_ref_add(_ref_mul(an, bd), _ref_mul(bn, ad), -1),
                         _ref_mul(ad, bd)))
    _assert_same(a * b, (_ref_mul(an, bn), _ref_mul(ad, bd)))
    _assert_same(-a, ({e: -c for e, c in an.items()}, ad))
    _assert_same(a.bar(), ({-e: c for e, c in an.items()},
                           {-e: c for e, c in ad.items()}))
    _assert_same(a.shift(k), ({e + k: c for e, c in an.items()}, ad))
    assert a.shift(k) == a * FieldElem.v_pow(k)
    if b:
        _assert_same(a / b, (_ref_mul(an, bd), _ref_mul(ad, bn)))
        _assert_same(b.inverse(), (bd, bn))


@settings(max_examples=100, deadline=None)
@given(field_pairs(), st.sampled_from([Fraction(1), Fraction(2), Fraction(3, 2),
                                       Fraction(-7, 5)]))
def test_evaluation_matches_the_all_fraction_reference(pa, v0):
    a, (an, ad) = pa
    p = 1_000_003
    r = v0.numerator * pow(v0.denominator, -1, p) % p
    rd = _ref_value(ad, v0)
    try:
        got = a.eval_v(v0)
    except DenominatorVanishes:
        assert not rd
        return
    assert type(got) is Fraction
    if not rd:
        return  # a removable pole of the reference pair
    want = _ref_value(an, v0) / rd
    assert got == want
    # a(v) at v = v0 is a(q) at q = v0, so its residue is the image of
    # _in_q(a) under q |-> v0 mod p
    image = _in_q(a).eval_mod(r, p)
    assert type(image) is int
    assert image == want.numerator * pow(want.denominator, -1, p) % p


def test_constructors_store_integral_coefficients_as_ints():
    t = FieldElem.v_pow(2)
    for x in (ONE, FieldElem.v_pow(-3), FieldElem.from_rational(Fraction(6, 3)),
              FieldElem.monomial(Fraction(-4, 2), 5), FieldElem.from_rational(7),
              sym_qint(4, 1), sym_qbinom(5, 2, 1), (t + ONE) * t + ONE):
        num, den = x.base
        assert all(type(c) is int for p in (num, den) for c in p.values()), x
    half = FieldElem.from_rational(Fraction(1, 2))
    assert type(half.base[0][0]) is Fraction
    assert type((half * 2).base[0][0]) is int
    assert type((half + half).base[0][0]) is int
    # a proper fraction whose gcd path normalises to a polynomial over Z
    x = (FieldElem.v_pow(2) - 1) / (FieldElem.v_pow(1) - 1)
    assert x == FieldElem.v_pow(1) + 1
    _assert_rule(x)


def test_as_monomial():
    assert FieldElem.monomial(Fraction(3, 2), -4).as_monomial() == (Fraction(3, 2), -4)
    assert FieldElem.v_pow(6).as_monomial() == (1, 6)
    assert type(FieldElem.v_pow(6).as_monomial()[0]) is int
    assert ZERO.as_monomial() is None
    assert (FieldElem.v_pow(1) + 1).as_monomial() is None
    assert (ONE / (FieldElem.v_pow(1) + 2)).as_monomial() is None


def test_plist_division_makes_no_float():
    q, r = plist_divmod([1, 0, 1], [2, 3])
    assert all(type(c) is Fraction for c in q + r)
    assert plist_gcd([-1, 0, 1], [1, 1]) == [1, 1]
