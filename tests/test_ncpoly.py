"""Free noncommutative polynomials and the deglex monomial order."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qso_spectra import fiber
from qso_spectra.errors import AlphabetMismatch, IndexOutOfRange
from qso_spectra.field import ONE, FieldElem
from qso_spectra.ncpoly import NCPoly, Span, accumulate, apply, reduce_lead, word_key

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
    p = NCPoly(N)
    for w, c in terms:
        p = p + NCPoly(N, {w: FieldElem.from_rational(c)})
    return p


@settings(max_examples=50, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (b + c) * a == b * a + c * a
    assert a - a == NCPoly(N)
    assert NCPoly(N, {(): ONE}) * a == a


def test_noncommutative():
    x = NCPoly.gen(N, 1, 2)
    y = NCPoly.gen(N, 2, 1)
    assert x * y != y * x


@settings(max_examples=50, deadline=None)
@given(words, words, words)
def test_deglex_total_order(w1, w2, w3):
    # word_key orders words totally: exactly one of <, =, > holds, keys
    # are equal only for equal words, and the order is transitive
    k1, k2, k3 = word_key(w1), word_key(w2), word_key(w3)
    assert (k1 < k2) + (k1 == k2) + (k1 > k2) == 1
    assert (k1 == k2) == (w1 == w2)
    if k1 <= k2 and k2 <= k3:
        assert k1 <= k3
    # degree dominates
    if len(w1) < len(w2):
        assert k1 < k2


@settings(max_examples=50, deadline=None)
@given(words, words, words)
def test_deglex_multiplicative(w1, w2, w):
    # the order is compatible with concatenation on both sides
    for a, b in ((w1, w2), (w2, w1)):
        if word_key(a) < word_key(b):
            assert word_key(a + w) < word_key(b + w)
            assert word_key(w + a) < word_key(w + b)


def test_leading_word():
    # with no pivots, reduce_lead returns the deglex-leading word, and
    # None for the zero row
    p = NCPoly(N, {((1, 1),): ONE}) + NCPoly(N, {((1, 1), (2, 2)): ONE})
    assert reduce_lead(dict(p.terms), {}) == ((1, 1), (2, 2))
    assert word_key(reduce_lead(dict(p.terms), {}))[0] == 2
    assert reduce_lead({}, {}) is None


def test_alphabet_and_index_guards():
    with pytest.raises(AlphabetMismatch):
        _ = NCPoly(3) + NCPoly(4)
    with pytest.raises(IndexOutOfRange):
        NCPoly.gen(3, 4, 1)


def test_degree_and_homogeneity():
    p = NCPoly.gen(N, 1, 1)
    assert p.degree() == 1 and {len(w) for w in p.terms} == {1}
    q = p + NCPoly(N, {(): ONE})
    assert q.degree() == 1 and {len(w) for w in q.terms} == {0, 1}
    assert NCPoly(N).degree() == -1


def test_apply_drops_cancelled_terms_and_unmapped_keys():
    m = {"a": {"x": 1, "y": 2}, "b": {"x": -1, "z": 3}}
    # the x terms cancel and leave no key; "c" is not in m and maps to 0
    assert apply(m, {"a": 1, "b": 1, "c": 5}) == {"y": 2, "z": 3}
    assert apply(m, {"c": 5}) == {}
    assert apply(m, {}) == {}


sparse_rows = st.dictionaries(st.integers(0, 5), st.integers(-3, 3).filter(bool),
                              max_size=4)


def _combination(pairs):
    """sum of s * row over (row, s), added through accumulate."""
    out = {}
    for row, s in pairs:
        for k, c in row.items():
            accumulate(out, k, s * c)
    return out


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.integers(0, 5), sparse_rows, max_size=5),
       sparse_rows, sparse_rows, st.integers(-3, 3))
def test_apply_is_linear(m, u, w, a):
    image = apply(m, _combination([(u, a), (w, 1)]))
    assert image == _combination([(apply(m, u), a), (apply(m, w), 1)])
    assert all(image.values())


def _low_rank_rows(rng, nrows=5, ncols=6, rank=3):
    """Sparse integer rows {column: value} spanning at most rank dimensions."""
    base = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(rank)]
    out = []
    for _ in range(nrows):
        mix = [rng.randint(-2, 2) for _ in base]
        row = [sum(m * b[c] for m, b in zip(mix, base)) for c in range(ncols)]
        out.append({(c,): x for c, x in enumerate(row) if x})
    return out


def _combine(rows, comb):
    out = {}
    for label, c in comb.items():
        for key, x in rows[label].items():
            out[key] = out.get(key, 0) + c * x
    return {k: x for k, x in out.items() if x}


def _exact_types(values):
    return all(type(x) in (int, Fraction) for x in values)


def test_span_add_returns_dependencies_that_sum_to_zero():
    rng = random.Random(3)
    for _ in range(40):
        rows = _low_rank_rows(rng)
        span = Span()
        deps = [span.add(row, i) for i, row in enumerate(rows)]
        rank = deps.count(None)
        assert rank == len(span.pivots) <= 3
        for i, dep in enumerate(deps):
            if dep is None:
                continue
            # the row's own label at 1, earlier labels only, combination 0
            assert dep[i] == 1 and max(dep) == i
            assert _combine(rows, dep) == {}
            assert _exact_types(dep.values())
        # triangular in the labels, so independent; with the rank from the
        # separate mod-p loop their count is the kernel's dimension
        p = 2 ** 61 - 1
        assert rank == fiber._rank_mod([{k: x % p for k, x in row.items()}
                                        for row in rows], p)


def test_span_express_round_trips_and_rejects_rows_outside():
    rng = random.Random(5)
    for _ in range(40):
        rows = _low_rank_rows(rng)
        span = Span()
        for i, row in enumerate(rows):
            span.add(row, i)
        want = {i: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                for i in range(len(rows))}
        target = _combine(rows, want)
        got = span.express(target)
        assert _combine(rows, got) == target
        assert _exact_types(got.values())
        assert span.express({}) == {}
        if len(span.pivots) < 6:
            # a unit row outside the span moves target outside it too
            c = next(c for c in range(6) if span.express({(c,): 1}) is None)
            outside = _combine(rows + [{(c,): 1}], {**want, len(rows): 1})
            assert span.express(outside) is None


def test_rank_mod_equals_exact_rank_on_low_rank_integer_rows():
    p = 2 ** 61 - 1
    rng = random.Random(11)
    for _ in range(40):
        rows = _low_rank_rows(rng, nrows=rng.randint(1, 7), ncols=rng.randint(1, 7),
                              rank=rng.randint(0, 4))
        kept = [dict(row) for row in rows]
        residues = [{k: x % p for k, x in row.items()} for row in rows]
        assert fiber._rank_mod(residues, p) == fiber._echelon(rows)
        assert rows == kept


P61 = 2 ** 61 - 1
# small integer rows: every minor is far below P61, so the rank mod P61
# of their residues is their rank over Q
int_rows = st.lists(st.dictionaries(st.integers(0, 5), st.integers(-3, 3).filter(bool),
                                    min_size=1, max_size=4),
                    min_size=1, max_size=6)
mixes = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(-2, 2)),
                 max_size=3)


@settings(max_examples=150, deadline=None)
@given(int_rows, mixes)
@example([{3: 1}, {3: 2, 1: 1}, {3: 5}, {1: 4}], [])
@example([{0: -1}, {0: 1}], [(0, 1, 1)])
def test_rank_mod_on_int_keyed_rows_equals_exact_rank(rows, mix):
    # a * rows[i] + rows[j] appended: dependent rows and rows that cancel
    for i, j, a in mix:
        i, j = i % len(rows), j % len(rows)
        rows = rows + [_combine(rows, {i: a, j: 1} if i != j else {i: a + 1})]
    residues = [{k: x % P61 for k, x in row.items()} for row in rows]
    kept = [dict(row) for row in residues]
    lifted = [{(k,): r if r < P61 // 2 else r - P61 for k, r in row.items()}
              for row in residues]
    assert fiber._rank_mod(residues, P61) == fiber._echelon(lifted)
    assert residues == kept
