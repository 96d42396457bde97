"""Quadratic R-matrix relations of the q-orthogonal coordinate algebra,
rewriting to normal form, degree-bounded ideal membership and the
machine verification of the nine commutation-relation families.

Internally a linear combination of words is a sparse row
{word: FieldElem}, added into only through ncpoly.accumulate.  R is one
table of rows, the relations read its columns from the transpose.
The forward pass of the rewriter's echelon form is ncpoly.insert_pivot,
the elimination step that actions and fiber share; fiber's Lambda^-
rules are one more rewriter (_rref_rewriter) and reduce through
_nf_terms.  Every family target is built from qcomm, the q-commutator
x y - c y x, over the index ranges of _ranges(N); actions builds its
q-commutations from qcomm too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .errors import DegreeOverflow, IndexOutOfRange
from .field import ONE, FieldElem
from .ncpoly import NCPoly, accumulate, insert_pivot, word_key


# ---------------------------------------------------------------------------
# R-matrix data
# ---------------------------------------------------------------------------


def rho2(N: int, i: int) -> int:
    """Twice the rho-shift of index i in the R-matrix of so_N: N - 2i
    when i is below its conjugate i' = N + 1 - i, 0 when i = i', and
    -(N - 2i') when i is above it."""
    ip = N + 1 - i
    if i < ip:
        return N - 2 * i
    if i == ip:
        return 0
    return -(N - 2 * ip)


def _r_row(N: int, i: int, j: int):
    """Nonzero entries R^{ij}_{kl} of so_N as a dict (k, l) -> FieldElem."""
    qq = FieldElem.v_pow(2) - FieldElem.v_pow(-2)
    e = (1 if i == j else 0) - (1 if j == N + 1 - i else 0)
    row = {(i, j): FieldElem.v_pow(2 * e)}
    if j < i:
        row[(j, i)] = qq
    if j == N + 1 - i:
        for k in range(1, i):
            corr = qq * FieldElem.v_pow(-(rho2(N, j) + rho2(N, k)))
            accumulate(row, (k, N + 1 - k), -corr)
    return row


def _r_tables(N: int):
    """R of so_N as rows {(i, j): {(k, l): R^{ij}_{kl}}} and as columns
    {(m, n): {(a, b): R^{ab}_{mn}}}; the columns transpose the rows."""
    pairs = [(a, b) for a in range(1, N + 1) for b in range(1, N + 1)]
    rows = {ij: _r_row(N, *ij) for ij in pairs}
    cols = {mn: {} for mn in pairs}
    for ij, row in rows.items():
        for kl, c in row.items():
            cols[kl][ij] = c
    return rows, cols


def generate_relations(N: int) -> list:
    """The quadratic relations of so_N, N >= 5, as a list of NCPoly, one
    per index quadruple (i, j, m, n) whose candidate
    sum_{kl} R^{ij}_{kl} u^k_m u^l_n - sum_{kl} u^j_k u^i_l R^{lk}_{mn}
    is nonzero; zero candidates are discarded."""
    if N < 5:
        raise ValueError("N >= 5 required")
    rows, cols = _r_tables(N)
    elems = []
    for (i, j), row in rows.items():
        for (m, n), col in cols.items():
            terms = {((k, m), (l, n)): c for (k, l), c in row.items()}
            for (l, k), c in col.items():
                accumulate(terms, ((j, k), (i, l)), -c)
            if terms:
                elems.append(NCPoly(N, terms))
    return elems


# ---------------------------------------------------------------------------
# Rewriter (reduced row echelon form of the relation span)
# ---------------------------------------------------------------------------


class Rewriter:
    """Word-rewriting rules from the RREF of a homogeneous relation span.

    rules maps a leading word to its tail {word: coeff}, meaning
    lead = sum(coeff * word) modulo the ideal, with every tail word
    strictly deglex-smaller than the lead.
    """

    __slots__ = ("N", "rules", "by_first", "lengths")

    def __init__(self, N: int, rules: dict):
        self.N = N
        self.rules = rules
        self.by_first = {}
        lengths = set()
        for lead, tail in rules.items():
            self.by_first.setdefault(lead[0], {})[lead] = tail
            lengths.add(len(lead))
        self.lengths = sorted(lengths)


def _rref_rewriter(N: int, rows) -> Rewriter:
    """The rules of the span of sparse rows over words in N letters: its
    reduced row echelon form, each lead rewritten to its negated tail.

    Forward echelon elimination on leading words only (keeps fill-in low
    while rows are sparse), then a single ascending interreduction pass.
    Equal coefficients share one FieldElem object: the rules hold few
    distinct values (120 among 2,914 at N = 7), so this keeps the
    rewriter small."""
    pivots = {}
    for row in rows:
        insert_pivot(dict(row), pivots)
    # interreduce tails, ascending in the lead order: every tail word is
    # below its lead, so each pivot row substituted is already fully
    # reduced and one substitution per pivot word in the tail suffices
    for lead in sorted(pivots, key=word_key):
        tail = pivots[lead]
        for w in sorted((w for w in tail if w in pivots), key=word_key,
                        reverse=True):
            c = -tail.pop(w)
            for w2, c2 in pivots[w].items():
                accumulate(tail, w2, c * c2)
    shared = {}
    rules = {}
    for lead, row in pivots.items():
        tail = {}
        for w, c in row.items():
            c = -c
            tail[w] = shared.setdefault(c, c)
        rules[lead] = tail
    return Rewriter(N, rules)


def build_rewriter(rels: list) -> Rewriter:
    """The rules of the span of a nonempty list of degree-2 relations, as
    generate_relations makes them, over the N of the relations."""
    return _rref_rewriter(rels[0].N, (r.terms for r in rels))


@cache
def rewriter(N: int) -> Rewriter:
    """The degree-2 rewriter of the FRT relations for N, built once per
    process.  The returned object is shared by every caller and is
    read-only: reduce against it, never modify it (complete_rewriter
    extends a copy of its rules)."""
    return build_rewriter(generate_relations(N))


def _nf_terms(terms: dict, rw: Rewriter) -> dict:
    """Normal form of a {word: coeff} dict under the rewriter.

    Words are taken largest first in deglex, one length bucket at a
    time.  Every rewrite step yields smaller words, so each word is
    reduced once, with all its contributions summed; each word's own
    reduction is fixed, so the result does not depend on this order."""
    by_first = rw.by_first
    lengths = rw.lengths
    out = {}
    levels = {}
    for w, c in terms.items():
        levels.setdefault(len(w), {})[w] = c
    while levels:
        L = max(levels)
        agenda = levels[L]
        if not agenda:
            del levels[L]
            continue
        w = max(agenda)
        c = agenda.pop(w)
        hit = None
        for pos in range(L):
            d = by_first.get(w[pos])
            if not d:
                continue
            for ln in lengths:
                if pos + ln <= L and w[pos:pos + ln] in d:
                    hit = (pos, ln, d[w[pos:pos + ln]])
                    break
            if hit:
                break
        if hit is None:
            out[w] = c
        else:
            pos, ln, tail = hit
            pre, suf = w[:pos], w[pos + ln:]
            for tw, tc in tail.items():
                nw = pre + tw + suf
                accumulate(levels.setdefault(len(nw), {}), nw, c * tc)
    return out


def normal_form(p: NCPoly, rw: Rewriter) -> NCPoly:
    """Leftmost-outermost reduction of every word until irreducible."""
    if p.N != rw.N:
        raise IndexOutOfRange("polynomial and rewriter disagree on N")
    return NCPoly(p.N, _nf_terms(p.terms, rw))


# ---------------------------------------------------------------------------
# Degree-bounded completion (critical pairs)
# ---------------------------------------------------------------------------


def complete_rewriter(rw: Rewriter, max_degree: int) -> Rewriter:
    """Resolve critical pairs up to the degree bound; returns the
    extended rewriter."""
    rules = dict(rw.rules)

    def all_pairs(leads):
        for w1 in leads:
            for w2 in leads:
                for o in range(1, min(len(w1), len(w2))):
                    if len(w1) + len(w2) - o > max_degree:
                        continue
                    if w1[-o:] == w2[:o]:
                        yield (w1, w2, o)

    queue = list(all_pairs(list(rules)))
    work = Rewriter(rw.N, rules)
    idx = 0
    while idx < len(queue):
        w1, w2, o = queue[idx]
        idx += 1
        tail1 = work.rules.get(w1)
        tail2 = work.rules.get(w2)
        if tail1 is None or tail2 is None:
            continue
        suf = w2[o:]
        pre = w1[:len(w1) - o]
        diff = {w + suf: c for w, c in tail1.items()}
        for w, c in tail2.items():
            accumulate(diff, pre + w, -c)
        diff = _nf_terms(diff, work)
        if not diff:
            continue
        lead = max(diff, key=word_key)
        lc = diff.pop(lead)
        ilc = lc.inverse()
        tail = {w: -c * ilc for w, c in diff.items()}
        work.rules[lead] = tail
        work.by_first.setdefault(lead[0], {})[lead] = tail
        if len(lead) not in work.lengths:
            work.lengths = sorted(set(work.lengths) | {len(lead)})
        for other in list(work.rules):
            for o2 in range(1, min(len(lead), len(other))):
                if len(lead) + len(other) - o2 <= max_degree:
                    if lead[-o2:] == other[:o2]:
                        queue.append((lead, other, o2))
                    if other[-o2:] == lead[:o2]:
                        queue.append((other, lead, o2))
    return work


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------


@dataclass
class MembershipReport:
    status: str  # verified | failed (degree <= 2) | inconclusive
    certificate_size: int = 0


def saturate_and_check(
    target: NCPoly,
    rw: Rewriter,
    max_degree: int = 4,
) -> MembershipReport:
    """Decide membership of a homogeneous target in the two-sided ideal
    of the relation span reduced by rw (see build_rewriter), or report
    that the degree bound leaves it open.

    A zero normal form against the degree-2 rules is verified with the
    rule count as certificate.  In degrees <= 2 the ideal is exactly the
    relation span and the rules are its RREF, so a nonzero normal form
    of a target of degree <= 2 proves non-membership: failed.  Otherwise
    the normal form is reduced against the exact critical-pair
    completion bounded at max_degree (the same reducing power as
    row-reducing the span of all degree-bounded products
    word * relation * word); zero there is verified with the completed
    rule count.  Anything else is inconclusive."""
    if target.degree() > max_degree:
        raise DegreeOverflow(
            f"target degree {target.degree()} exceeds bound {max_degree}"
        )
    nf = normal_form(target, rw)
    if nf.is_zero():
        return MembershipReport("verified", len(rw.rules))
    if target.degree() <= 2:
        return MembershipReport("failed", len(rw.rules))
    crw = complete_rewriter(rw, max_degree)
    if normal_form(nf, crw).is_zero():
        return MembershipReport("verified", len(crw.rules))
    return MembershipReport("inconclusive")


# ---------------------------------------------------------------------------
# Lemma verification: the nine commutation-relation families
# ---------------------------------------------------------------------------


def _u(N, i, j):
    return NCPoly.gen(N, i, j)


def _qp(k):
    return FieldElem.v_pow(2 * k)


def minor(N: int, a: int, b: int) -> NCPoly:
    """u^1_a u^2_b - q u^2_a u^1_b: y = w_N = minor(N, 1, N),
    h_a = minor(N, 1, a) and w_a = minor(N, a, N)."""
    return _u(N, 1, a) * _u(N, 2, b) - (_u(N, 2, a) * _u(N, 1, b)).scale(_qp(1))


def qcomm(x: NCPoly, y: NCPoly, c: FieldElem = ONE) -> NCPoly:
    """The q-commutator x y - c y x."""
    return x * y - (y * x).scale(c)


def _ranges(N: int) -> tuple:
    """The index ranges of the relation families: rows, the i with
    i != i', and pairs, the (i, j) with i < j and i != j' in ascending
    order, which serve as row pairs and as column pairs."""
    rows = [i for i in range(1, N + 1) if 2 * i != N + 1]
    pairs = [(i, j) for i in range(1, N + 1) for j in range(i + 1, N + 1)
             if i + j != N + 1]
    return rows, pairs


@cache
def lemma_rel_instances(N: int) -> tuple:
    """The (family, indices, target NCPoly) instances of the nine
    relation families, built once per process; every family has
    instances for each N >= 5.  Like rewriter(N), the tuple and its
    targets are shared by every caller and are read-only.  Each target
    is a q-commutator (qcomm), minus one more product in the families
    col1N_upper_first and cross_qcomm.

    The stated ranges of the degree-2 families exclude the boundary
    cases l = k' and i = j' (and the (1, N) column pair, covered by the
    first family); excluded instances are enumerated separately by
    verify_lemma_rels and are not asserted.
    """
    rows, pairs = _ranges(N)
    q = _qp(1)
    qq = q - _qp(-1)

    def u(i, j):
        return _u(N, i, j)

    def emitted():
        # family 1: u^i_1 u^i_N = q^2 u^i_N u^i_1, i != i'
        for i in rows:
            yield ("col1N_same_row", (i,), qcomm(u(i, 1), u(i, N), _qp(2)))
        # family 2: u^i_l u^i_k = q u^i_k u^i_l, l < k, i != i', l != k'
        for i in rows:
            for l, k in pairs:
                yield ("same_row_qcomm", (i, l, k), qcomm(u(i, l), u(i, k), q))
        # family 3: u^j_l u^i_k = u^i_k u^j_l, l < k, i < j, l != k', i != j'
        for i, j in pairs:
            for l, k in pairs:
                yield ("cross_commute", (i, j, l, k), qcomm(u(j, l), u(i, k)))
        # family 4: u^j_1 u^i_N = q u^i_N u^j_1, i < j, i != j'
        for i, j in pairs:
            yield ("col1N_lower_first", (i, j), qcomm(u(j, 1), u(i, N), q))
        # family 5: u^i_1 u^j_N = q u^j_N u^i_1 + (q^2-1) u^i_N u^j_1
        for i, j in pairs:
            yield ("col1N_upper_first", (i, j),
                   qcomm(u(i, 1), u(j, N), q)
                   - (u(i, N) * u(j, 1)).scale(_qp(2) - ONE))
        # family 6: u^j_l u^i_k = u^i_k u^j_l - (q-q^-1) u^j_k u^i_l,
        # equivalently u^i_k u^j_l = u^j_l u^i_k + (q-q^-1) u^j_k u^i_l
        for i, j in pairs:
            for k, l in pairs:
                yield ("cross_qcomm", (i, j, k, l),
                       qcomm(u(i, k), u(j, l)) - (u(j, k) * u(i, l)).scale(qq))
        # family 7: u^i_k u^j_k = q u^j_k u^i_k, k != k', i < j, i != j'
        for i, j in pairs:
            for k in rows:
                yield ("same_col_qcomm", (i, j, k), qcomm(u(i, k), u(j, k), q))
        # families 8 and 9: degree-4 commutations of the highest-weight
        # quadratics h_a and w_a with w_N = h_N (minor)
        w_N = minor(N, 1, N)
        for a in range(2, N):
            yield ("hw_holomorphic", (a,), qcomm(minor(N, 1, a), w_N, _qp(2)))
        for a in range(2, N):
            yield ("hw_antiholomorphic", (a,), qcomm(w_N, minor(N, a, N), _qp(2)))

    # equal coefficients share one FieldElem object: the targets hold
    # nine distinct values, so this keeps the cached tuple small
    shared = {}
    return tuple((family, indices,
                  NCPoly(N, {w: shared.setdefault(c, c)
                             for w, c in target.terms.items()}))
                 for family, indices, target in emitted())


def excluded_boundary_instances(N: int):
    """Boundary index combinations the stated ranges leave out: the
    conjugate pairs (i, i') with i < i', which pairs omits."""
    rows, _ = _ranges(N)
    conj = [(i, N + 1 - i) for i in range(1, N // 2 + 1)]
    # the column pair (1, N) is the first family's
    out = [("same_row_qcomm", (i, l, k)) for i in rows for l, k in conj[1:]]
    for ij in conj:
        out += [("cross_commute", ij), ("cross_qcomm", ij)]
    return out


def verify_lemma_rels(N: int) -> list:
    """Verify every admissible instance of the nine relation families,
    each by saturate_and_check against the shared degree-2 rewriter
    of N.  Returns a list of report dicts."""
    rw = rewriter(N)
    report = []
    for family, indices, target in lemma_rel_instances(N):
        mem = saturate_and_check(target, rw)
        report.append({"family": family, "indices": list(indices),
                       "status": mem.status,
                       "certificate_size": mem.certificate_size})
    for family, indices in excluded_boundary_instances(N):
        report.append({"family": family, "indices": list(indices),
                       "status": "excluded", "certificate_size": 0})
    return report
