"""R-matrix data, the quadratic rewriting system, and the nine
commutation-relation families."""

import hashlib

import pytest

from qso_spectra.errors import DegreeOverflow, IndexOutOfRange
from qso_spectra.field import ONE, ZERO, FieldElem
from qso_spectra.frt import (
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
from qso_spectra.ncpoly import NCPoly


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
    """The rows generate_relations reads, and the columns it transposes
    from them, agree with r_entry on every index quadruple."""
    rows, cols = _r_tables(N)
    idx = range(1, N + 1)
    for i in idx:
        for j in idx:
            for m in idx:
                for n in idx:
                    want = r_entry(N, i, j, m, n)
                    assert rows[(i, j)].get((m, n), ZERO) == want, (i, j, m, n)
                    assert cols[(m, n)].get((i, j), ZERO) == want, (i, j, m, n)
    assert all(c for row in rows.values() for c in row.values())


def test_relations_nonzero_and_homogeneous():
    rels = generate_relations(5)
    assert rels
    for r in rels:
        assert not r.is_zero()
        assert r.degree() == 2 and {len(w) for w in r.terms} == {2}


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
    for r in rels[:20]:
        assert normal_form(r, rw).is_zero()
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
    for r in generate_relations(N):
        assert normal_form(r, rw).is_zero()


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
