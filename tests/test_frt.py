"""R-matrix data, the quadratic rewriting system, and the nine
commutation-relation families."""

import hashlib
from fractions import Fraction
from itertools import islice

import pytest

from qso_spectra import actions, fiber, frt
from qso_spectra.errors import DegreeOverflow, IndexOutOfRange
from qso_spectra.field import ONE, ZERO, FieldElem
from qso_spectra.frt import (
    RelationStream,
    _r_tables,
    build_rewriter,
    excluded_boundary_instances,
    generate_relations,
    lemma_rel_instances,
    normal_form,
    rewriter,
    rho2,
    saturate_and_check,
    verify_lemma_rels,
)
from qso_spectra.ncpoly import PRIME, NCPoly, letter, word_key


def r_entry(N: int, i: int, j: int, m: int, n: int) -> FieldElem:
    """Entry R^{ij}_{mn} of the braiding of the vector representation of
    so_N, one index quadruple at a time: the independent formula that
    frt._r_tables is checked against."""
    for x in (i, j, m, n):
        if not (1 <= x <= N):
            raise IndexOutOfRange(f"index {x} outside 1..{N}")
    out = ZERO
    if i == m and j == n:
        e = (1 if i == j else 0) - (1 if j == N + 1 - i else 0)
        out = out + FieldElem.v_pow(2 * e)
    if i > m:
        qq = FieldElem.v_pow(2) - FieldElem.v_pow(-2)
        if j == m and i == n:
            out = out + qq
        if j == N + 1 - i and m == N + 1 - n:
            out = out - qq * FieldElem.v_pow(-(rho2(N, j) + rho2(N, m)))
    return out


def test_rho_values():
    assert [rho2(5, i) for i in range(1, 6)] == [3, 1, 0, -1, -3]
    assert [rho2(6, i) for i in range(1, 7)] == [4, 2, 0, 0, -2, -4]


def test_relations_need_n_at_least_5():
    with pytest.raises(ValueError, match="N >= 5 required"):
        generate_relations(4)
    with pytest.raises(ValueError, match="N >= 5 required"):
        rewriter(4)


def test_r_entry_diagonal_and_bounds():
    # R^{ii}_{ii} = q for non-self-conjugate i
    assert r_entry(5, 1, 1, 1, 1) == FieldElem.v_pow(2)
    # R^{ij}_{ij} = 1 for generic distinct non-conjugate i, j
    assert r_entry(5, 1, 2, 1, 2) == ONE
    # R^{i i'}_{i i'} = q^{-1}
    assert r_entry(5, 1, 5, 1, 5) == FieldElem.v_pow(-2)
    with pytest.raises(IndexOutOfRange):
        r_entry(5, 0, 1, 1, 1)


def test_r_entry_offdiagonal():
    qq = FieldElem.v_pow(2) - FieldElem.v_pow(-2)
    # lower-triangular swap term
    assert r_entry(5, 2, 1, 1, 2) == qq
    assert r_entry(5, 1, 2, 2, 1) == ZERO
    # conjugate-pair correction R^{2 4}_{1 5}
    assert r_entry(5, 2, 4, 1, 5) == -qq * FieldElem.v_pow(-(rho2(5, 4) + rho2(5, 1)))


@pytest.mark.parametrize("N", [5, 6, 7, 8])
def test_r_tables_match_r_entry(N):
    """R and R', R'^{kl}_{mn} = R^{lk}_{mn}, agree with r_entry on every
    index quadruple, and are one cached pair per N."""
    r, rprime = _r_tables(N)
    idx = range(1, N + 1)
    for i in idx:
        for j in idx:
            for m in idx:
                for n in idx:
                    want = r_entry(N, i, j, m, n)
                    assert r[(i, j)].get((m, n), ZERO) == want, (i, j, m, n)
                    assert rprime[(m, n)].get((j, i), ZERO) == want, (i, j, m, n)
    assert all(c for row in r.values() for c in row.values())
    assert sum(map(len, rprime.values())) == sum(map(len, r.values()))
    assert _r_tables(N) is _r_tables(N)


def test_r_is_built_once_per_n(monkeypatch):
    # the three passes of a rewriter build, every covariance request and
    # the Lambda^- rows read one R table per N
    built = []
    r_row = frt._r_row

    def counting(N, i, j):
        built.append(N)
        return r_row(N, i, j)

    monkeypatch.setattr(frt, "_r_row", counting)
    for cached in (_r_tables, rewriter, actions.relation_count,
                   fiber._minus_rules):
        cached.cache_clear()
    rewriter(7)
    for _ in range(2):
        assert actions.verify_covariance(5)["status"] == "verified"
    fiber._minus_rules(5)
    assert built == [7] * 49 + [5] * 25


def test_relations_nonzero_and_homogeneous():
    rels = list(generate_relations(5))
    assert rels
    for terms in rels:
        assert terms and all(terms.values())
        assert {len(w) for w in terms} == {2}


def test_normal_form_idempotent_and_linear():
    rels = generate_relations(5)
    rw = build_rewriter(rels)
    p = NCPoly.gen(5, 3, 1) * NCPoly.gen(5, 1, 2) + \
        NCPoly.gen(5, 2, 5) * NCPoly.gen(5, 2, 1)
    nf = normal_form(p, rw)
    assert normal_form(nf, rw) == nf
    q = NCPoly.gen(5, 1, 1) * NCPoly.gen(5, 2, 2)
    assert normal_form(p + q, rw) == normal_form(p, rw) + normal_form(q, rw)
    # every relation itself reduces to zero
    for terms in islice(rels, 20):
        assert normal_form(NCPoly(5, terms), rw).is_zero()
    # mixed degrees up to 4: the normal form is the sum of the normal
    # forms of the words, whatever order the words are reduced in
    u = lambda i, j: NCPoly.gen(5, i, j)
    m = (u(5, 1) * u(1, 5) - u(2, 4) * u(4, 2)).scale(FieldElem.v_pow(1))
    p = m * m + u(4, 1) * u(3, 3) * u(1, 2) + p
    nf = normal_form(p, rw)
    assert normal_form(nf, rw) == nf and nf.degree() == 4
    words = NCPoly(5)
    for w, c in p.terms.items():
        words = words + normal_form(NCPoly(5, {w: c}), rw)
    assert nf == words


@pytest.mark.parametrize("N", [5, 6, 7])
def test_every_relation_reduces_to_zero(N):
    """relations lie in the span of the shared rewriter's rules, so a
    zero normal form is membership in the span, which the covariance
    fallback tests"""
    rw = rewriter(N)
    for terms in generate_relations(N):
        assert normal_form(NCPoly(N, terms), rw).is_zero()


def test_saturate_rejects_overdegree():
    word = tuple(((1, 1),) * 5)
    target = NCPoly(5, {word: ONE})
    with pytest.raises(DegreeOverflow):
        saturate_and_check(target, rewriter(5), max_degree=4)


def test_saturate_detects_nonmember():
    target = NCPoly(5, {(): ONE})  # the unit is never in the homogeneous ideal
    rep = saturate_and_check(target, rewriter(5), max_degree=2)
    # in degrees <= 2 the ideal is the relation span: a nonzero normal
    # form proves non-membership
    assert rep.status == "failed"


@pytest.mark.parametrize("N", [5, 6, 8])
def test_verify_lemma_rels_all_clear(N):
    report = verify_lemma_rels(N)
    statuses = {r["status"] for r in report}
    assert statuses <= {"verified", "excluded"}
    verified = sum(r["status"] == "verified" for r in report)
    assert verified == {5: 218, 6: 470, 8: 1604}[N]
    assert not any(r["status"] == "inconclusive" for r in report)
    families = {r["family"] for r in report}
    assert len(families) >= 9
    excluded = [r for r in report if r["status"] == "excluded"]
    assert len(excluded) == len(excluded_boundary_instances(N))


FAMILIES = ("col1N_same_row", "same_row_qcomm", "cross_commute",
            "col1N_lower_first", "col1N_upper_first", "cross_qcomm",
            "same_col_qcomm", "hw_holomorphic", "hw_antiholomorphic")


@pytest.mark.parametrize("N", [5, 6, 7, 8, 9])
def test_every_family_has_instances(N):
    counts = dict.fromkeys(FAMILIES, 0)
    for family, indices, target in lemma_rel_instances(N):
        assert indices and not target.is_zero(), (family, indices)
        counts[family] += 1
    # r rows i != i' and P pairs i < j with i != j', one conjugate pair
    # per i <= N/2
    r = N - N % 2
    P = N * (N - 1) // 2 - N // 2
    assert list(counts.values()) == [r, r * P, P * P, P, P, P * P, r * P,
                                     N - 2, N - 2]
    if N == 5:
        assert list(counts.values()) == [4, 32, 64, 8, 8, 64, 32, 3, 3]


# sha256 of the "family [indices] target" lines of lemma_rel_instances(N)
INSTANCE_DIGESTS = {
    5: "41360818571b675194394ccffaec1ca1f981093f849ca0f9e20c24cb3f5e578a",
    6: "444f7af3858436d29dfa28847de9f62a29cac5e5ff379e57f63f7f7ade6235a5",
}


@pytest.mark.parametrize("N", sorted(INSTANCE_DIGESTS))
def test_lemma_instances_are_pinned(N):
    lines = [f"{family} {list(indices)} {target}"
             for family, indices, target in lemma_rel_instances(N)]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == INSTANCE_DIGESTS[N]


def test_lemma_instances_are_relation_members_degree2():
    N = 5
    rels = generate_relations(N)
    rw = build_rewriter(rels)
    for family, indices, target in lemma_rel_instances(N):
        if target.degree() > 2:
            continue
        assert normal_form(target, rw).is_zero(), (family, indices)


# ---------------------------------------------------------------------------
# The rewriter build: rows chosen mod p, checked exactly
# ---------------------------------------------------------------------------


def rules_digest(rules) -> str:
    """sha256 over the rules sorted by lead: each lead with its sorted
    tail words and their coefficients as to_text."""
    h = hashlib.sha256()
    for lead in sorted(rules, key=word_key):
        tail = sorted((w, c.to_text()) for w, c in rules[lead].items())
        h.update(repr((lead, tail)).encode())
    return h.hexdigest()


# rules_digest of rewriter(N).rules as the full exact RREF of every
# relation row gave them, before rows were chosen mod p
RULE_DIGESTS = {
    5: "22443e21b1c15de13271e54056024c7fd976168cea87ca42592e8bac60d818c0",
    6: "6c692e992c6d50147dc556379b4bb42b6ac68d6d85b1968e8009bbde6f7feec9",
    7: "1c040bca561b07da506ff4fdb145768998ffc1069b725536761c7f05d7d5fe91",
    8: "7d9dac773a26d420d471842a2aec1781d8a5b670283e5007b54b960f05de86cb",
}

# the same digest of fiber._minus_rules(M).rules, M = 1..8
MINUS_DIGESTS = [
    "13669c0d52891cb5cfb8c60970699c07257c7c359687c2873183b445e99d8838",
    "a9509796a3a36dc5dfe63d4ec4ffd0a91cdf839d2399f2e97835614d2295f472",
    "944a2887a36b144ce1109b05beaa3679af887b3b3557eb955b53d79ddcd5c6a2",
    "c30e1dccbb668f3789a60bf11237c74671fa76a1068e29f5efd88af3d8e06e11",
    "ed3d415602d31bb03cedd45f9f9800316202b28385ac97db7270b388039a05e5",
    "553d444811f24ea64f934cd1214cac126f6b7ab09055adbb1fc0f6fca30cb236",
    "0a1ffd51b07230ad458d7dbea7bfe88266a47bfcf69b0b06c2fbd17d5665820b",
    "c9c11d357bf128be99d4f099027992df25a117c8824aa92e2cc87e773edf8d02",
]


def span_dimension(N: int) -> int:
    """The dimension of the degree-2 relation span: N^4 minus that of
    the coordinate algebra's degree-2 part, the sum of the squared
    dimensions of the summands of V (x) V (the traceless symmetric
    square, the exterior square and the trivial line)."""
    return N ** 4 - (N * (N + 1) // 2 - 1) ** 2 - (N * (N - 1) // 2) ** 2 - 1


@pytest.mark.parametrize("N", sorted(RULE_DIGESTS))
def test_rules_equal_the_full_exact_build(N):
    assert rules_digest(rewriter(N).rules) == RULE_DIGESTS[N]


@pytest.mark.parametrize("N, kept", [(5, 328), (6, 670), (7, 1230), (8, 2086)])
def test_kept_rows_are_the_span_dimension(N, kept):
    positions = frt._independent_rows(RelationStream(N))
    assert len(positions) == kept == span_dimension(N) == len(rewriter(N).rules)


def _counting_rref(monkeypatch):
    """Record the number of rows each exact RREF receives."""
    sizes = []
    rref = frt._rref

    def counting(N, rows):
        rows = list(rows)
        sizes.append(len(rows))
        return rref(N, rows)

    monkeypatch.setattr(frt, "_rref", counting)
    return sizes


def test_the_build_row_reduces_only_the_kept_rows(monkeypatch):
    sizes = _counting_rref(monkeypatch)
    rw = build_rewriter(RelationStream(5))
    assert sizes == [328] and rules_digest(rw.rules) == RULE_DIGESTS[5]


def test_a_zeroed_residue_row_falls_back_to_the_full_build(monkeypatch):
    # every row that holds one word maps to 0 mod p, so no kept row holds
    # that word: the check pass meets a remainder and the full exact
    # build of all 609 rows gives the rules
    stream = RelationStream(5)
    word = next(iter(stream)).popitem()[0]
    independent_mod = frt.independent_mod
    monkeypatch.setattr(frt, "independent_mod", lambda rows, p: independent_mod(
        ({} if word in row else row for row in rows), p))
    sizes = _counting_rref(monkeypatch)
    rw = build_rewriter(stream)
    assert len(sizes) == 2 and sizes[0] < 328
    assert sizes[1] == sum(1 for _ in stream) == 609
    assert rules_digest(rw.rules) == RULE_DIGESTS[5]


def test_a_coefficient_without_image_falls_back_to_the_full_build(monkeypatch):
    eval_mod = FieldElem.eval_mod

    def no_image_at_v2(self, r, p, var="q"):
        return None if self == FieldElem.v_pow(2) else eval_mod(self, r, p, var)

    monkeypatch.setattr(FieldElem, "eval_mod", no_image_at_v2)
    assert frt._independent_rows(RelationStream(5)) is None
    sizes = _counting_rref(monkeypatch)
    rw = build_rewriter(generate_relations(5))
    assert sizes == [609] and rules_digest(rw.rules) == RULE_DIGESTS[5]


def test_every_stream_pass_yields_the_same_rows():
    # the build reads the stream three times; each pass yields the same
    # rows in the same order, and the build leaves them as they are
    rels = generate_relations(6)
    first = [dict(row) for row in rels]
    assert rules_digest(build_rewriter(rels).rules) == RULE_DIGESTS[6]
    assert list(rels) == first == list(RelationStream(6))


def test_minus_rules_equal_the_full_exact_build():
    assert [rules_digest(fiber._minus_rules(M).rules) for M in range(1, 9)] \
        == MINUS_DIGESTS


def test_relation_words_and_labels_are_shared():
    # one object per word within a stream pass, and the labels are the
    # one objects of ncpoly.letter, shared with NCPoly.gen
    words = {}
    for row in RelationStream(5):
        for w in row:
            assert words.setdefault(w, w) is w
            assert all(x is letter(*x)[0] for x in w)
    assert 0 < len(words) <= 5 ** 4
    assert next(iter(NCPoly.gen(5, 2, 3).terms)) is letter(2, 3)
    # the lemma targets hold the word objects of the rewriter they were
    # built beside (another test may have dropped the cached one)
    lemma_rel_instances.cache_clear()
    rw_words = {id(w) for lead, tail in rewriter(5).rules.items()
                for w in (lead, *tail)}
    for _, _, target in lemma_rel_instances(5):
        assert all(id(w) in rw_words for w in target.terms if len(w) == 2)


def test_rule_coefficients_are_shared():
    rw = rewriter(6)
    coeffs = [c for tail in rw.rules.values() for c in tail.values()]
    assert len({id(c) for c in coeffs}) == len(set(coeffs))


def test_verify_rels_results_share_the_instance_indices():
    instances = lemma_rel_instances(5)
    results = verify_lemma_rels(5)
    assert all(r["indices"] is indices
               for r, (_, indices, _) in zip(results, instances))


def test_eval_mod_at_v_is_eval_v_mod_p():
    # the R table has odd v-powers at odd N, which only the v-evaluation
    # maps; its residues are those of the exact values at v = v0
    v0 = 1_234_567
    for N in (5, 6):
        rows, _ = _r_tables(N)
        for row in rows.values():
            for c in row.values():
                x = c.eval_v(Fraction(v0))
                want = x.numerator * pow(x.denominator, -1, PRIME) % PRIME
                assert c.eval_mod(v0, PRIME, "v") == want
