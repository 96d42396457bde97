"""Coefficient-field arithmetic: axioms, q-integers, exact evaluation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qso_spectra.errors import DenominatorVanishes
from qso_spectra.field import (
    ONE,
    ZERO,
    FieldElem,
    qint,
    sym_qbinom,
    sym_qint,
)
from qso_spectra.laurent import plist_divmod, plist_gcd

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
    # v |-> v0 mod p is the reduction of the exact value at v = v0
    p = 1_000_003
    s = v0.numerator * pow(v0.denominator, -1, p) % p
    got = a.eval_mod(s, p)
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
    x = FieldElem.monomial(Fraction(1, 7), 1)
    assert x.eval_mod(2, 7) is None          # coefficient denominator 7
    assert x.eval_mod(2, 11) == 2 * pow(7, -1, 11) % 11
    y = ONE / (FieldElem.v_pow(2) - 4)
    assert y.eval_mod(2, 11) is None         # pole at v = 2


def test_eval_pole_raises():
    x = ONE / (FieldElem.v_pow(1) - 1)
    with pytest.raises(DenominatorVanishes):
        x.eval_v(1)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8))
def test_qint_recurrence_and_sum(k, m):
    t = FieldElem.v_pow(2)
    # (k+1)_t = t*(k)_t + 1
    assert qint(k + 1, t) == t * qint(k, t) + ONE
    # (k+m)_t = (k)_t + t^k (m)_t
    assert qint(k + m, t) == qint(k, t) + FieldElem.v_pow(2 * k) * qint(m, t)


def test_qint_classical_limit():
    t = FieldElem.v_pow(2)
    for k in range(6):
        assert qint(k, t).eval_v(1) == k


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
