"""Free noncommutative polynomials and the deglex monomial order."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qso_spectra.errors import AlphabetMismatch, IndexOutOfRange
from qso_spectra.field import FieldElem
from qso_spectra.ncpoly import NCPoly, deglex_compare, word_key

N = 3

labels = st.tuples(st.integers(1, N), st.integers(1, N))
words = st.lists(labels, min_size=0, max_size=3).map(tuple)


@st.composite
def polys(draw):
    terms = draw(st.lists(
        st.tuples(words, st.fractions(min_value=Fraction(-3),
                                      max_value=Fraction(3),
                                      max_denominator=4)),
        min_size=0, max_size=4))
    p = NCPoly.zero(N)
    for w, c in terms:
        p = p + NCPoly.monomial(N, w, FieldElem.from_rational(c))
    return p


@settings(max_examples=50, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (b + c) * a == b * a + c * a
    assert a - a == NCPoly.zero(N)
    assert NCPoly.unit(N) * a == a


def test_noncommutative():
    x = NCPoly.gen(N, 1, 2)
    y = NCPoly.gen(N, 2, 1)
    assert x * y != y * x


@settings(max_examples=50, deadline=None)
@given(words, words, words)
def test_deglex_total_order(w1, w2, w3):
    # antisymmetry and transitivity via the sort key
    assert deglex_compare(w1, w2) == -deglex_compare(w2, w1)
    if deglex_compare(w1, w2) <= 0 and deglex_compare(w2, w3) <= 0:
        assert deglex_compare(w1, w3) <= 0
    # degree dominates
    if len(w1) < len(w2):
        assert deglex_compare(w1, w2) == -1


@settings(max_examples=50, deadline=None)
@given(words, words, words)
def test_deglex_multiplicative(w1, w2, w):
    # the order is compatible with concatenation on both sides
    c = deglex_compare(w1, w2)
    if c:
        assert deglex_compare(w1 + w, w2 + w) == c
        assert deglex_compare(w + w1, w + w2) == c


def test_leading_word():
    p = NCPoly.monomial(N, ((1, 1),), FieldElem.one()) + \
        NCPoly.monomial(N, ((1, 1), (2, 2)), FieldElem.one())
    assert p.leading_word() == ((1, 1), (2, 2))
    assert word_key(p.leading_word())[0] == 2
    with pytest.raises(ValueError):
        NCPoly.zero(N).leading_word()


def test_alphabet_and_index_guards():
    with pytest.raises(AlphabetMismatch):
        _ = NCPoly.zero(3) + NCPoly.zero(4)
    with pytest.raises(IndexOutOfRange):
        NCPoly.gen(3, 4, 1)


def test_degree_and_homogeneity():
    p = NCPoly.gen(N, 1, 1)
    assert p.degree() == 1 and p.is_homogeneous()
    q = p + NCPoly.unit(N)
    assert q.degree() == 1 and not q.is_homogeneous()
    assert NCPoly.zero(N).degree() == -1
