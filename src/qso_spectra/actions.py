"""The N-dimensional vector representation of U_q(so_N), left and right
module-algebra actions on the coordinate generators, and the
verification suites built on them: defining-relation checks (including
Serre), covariance of the quadratic relation span, highest-weight
checks for the spherical generators, commutation identities of z and y
with their differentials, and the right-action orbit scan through the
z-coordinates.

The representation comes from one fixed table per side (_ef_tables),
with entries in Q(v) and -1 on the conjugate-pair entries.  A single
kernel applies every letter on either side.  The defining relations
are evaluated through that kernel on sum_s u^s_s, so the right rows
check the right action itself; the E-F commutator rows guard the
build.  The K-exponents pair the simple roots with
cartan.vector_weights; a weight that disagreed with the E tables would
fail that guard.  lam_y comes from cartan.y_weight, y from
frt.minor and every q-commutation that verify_spherical checks from
frt.qcomm.  sign_fixes in the covariance report is a constant record
per parity of the entries that carry that -1 at even N.

Covariance is certified by the FRT intertwiner identities.  Read a
degree-2 word u^a_b u^c_d as (row pair (a, c)) (x) (column pair
(b, d)); the relations of frt.generate_relations then span the image
of Phi = R (x) 1 - P (x) R', where R e_ij = sum R^{ij}_{kl} e_kl,
R' e_mn = sum R^{lk}_{mn} e_kl (both tables from frt._r_tables, once
per N) and P flips a pair.  A letter acts as 1 (x) D on the left and
as D_r (x) 1 on the right, with D and D_r read from the kernel itself.
If R'D = DR', then (1 (x) D) Phi = Phi (1 (x) D); if
D_r R = R (P D_r P), then (D_r (x) 1) Phi = Phi (P D_r P (x) 1).  So
when both hold for every E_i, F_i and K_i the span is stable, without
a single normal form.
When one fails, nothing follows from it: the exact per-relation loop
runs against the shared rewriter and reports the failing (relation,
letter, side) triples; only then are the relations generated.  The
report's relations come from relation_count(N), once per N, and its
checks count the relation x letter x side triples the verdict covers,
whichever path decided.  Both read the one relation stream,
frt.generate_relations.

The orbit scan reduces each state it reaches once: the walk keeps its
normal form beside it, and the z-coordinates are read from that normal
form in z_span(N), the z_ab normal forms as one ncpoly.Span.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .cartan import CartanData, cartan_data, vector_weights, y_weight
from .errors import IndexOutOfRange, RepresentationInconsistent
from .field import ONE, FieldElem, sym_qbinom, sym_qint
from .frt import (Rewriter, _r_tables, generate_relations, minor, normal_form,
                  qcomm, rewriter, rho2)
from .ncpoly import NCPoly, Span, accumulate, apply, reduce_lead

E, F, K, KINV = "E", "F", "K", "Kinv"


# ---------------------------------------------------------------------------
# Vector representation
# ---------------------------------------------------------------------------


# The conjugate-pair entries of the tables carry -1.  At even N these
# are the entries whose +1 the E-F commutator rejects on both sides; the
# covariance report records them, a constant per parity.
_EVEN_SIGN_FIXES = ("left F_j on column j' arbitrated to -1",
                    "right E_i on row i' arbitrated to -1")


def _ef_tables(N, side):
    """E/F maps of one side, {i: {source: (target, coeff)}}.  Left:
    column maps.  Right: row maps, each left map reversed, so that a
    right letter moves row s to t with the coefficient that moves
    column t to s on the left; covariance of the quadratic relation
    span fixes that placement, which the E-F commutator alone cannot
    tell apart.

    At the short root of odd N the commutator fixes only the product of
    each E_n entry with the F_n entry of the reverse step, [2] = v + 1/v
    for both steps.  E_n carries [2] and -v [2], F_n carries 1 and
    -1/v, so every entry lies in Q(v).  Scaling E_n by any nonzero x and F_n by
    1/x preserves the relations, the coproducts and the antipode, and
    multiplies each action by a constant, so no zero normal form and no
    ratio of orbit coefficients depends on the split."""
    n = N // 2
    conj = lambda x: N + 1 - x
    Es = {}
    Fs = {}
    for j in range(1, n):
        Es[j] = {j: (j + 1, ONE), conj(j + 1): (conj(j), -ONE)}
        Fs[j] = {j + 1: (j, ONE), conj(j): (conj(j + 1), -ONE)}
    if N % 2:
        v = FieldElem.v_pow(1)
        two = sym_qint(2, 1)
        Es[n] = {n: (n + 1, two), n + 1: (n + 2, -(v * two))}
        Fs[n] = {n + 1: (n, ONE), n + 2: (n + 1, -v.inverse())}
    else:
        Es[n] = {n: (n + 2, -ONE), n - 1: (n + 1, ONE)}
        Fs[n] = {n + 2: (n, -ONE), n + 1: (n - 1, ONE)}
    if side == "left":
        return Es, Fs
    return tuple({i: {t: (s, c) for s, (t, c) in m.items()} for i, m in X.items()}
                 for X in (Es, Fs))


@cache
def vector_rep(N: int) -> ActionEngine:
    """The vector representation of N as its action engine, assembled
    from the fixed tables of _ef_tables once per process; the engine is
    shared by every suite and read-only, like frt.rewriter(N).  As a
    guard, the E-F commutator rows are evaluated through the engine on
    each side; RepresentationInconsistent is raised when one fails."""
    cartan = cartan_data(N)
    maps = {}
    for side in ("left", "right"):
        maps[E, side], maps[F, side] = _ef_tables(N, side)
    weights = vector_weights(cartan)
    kexp = {i: [0] + [cartan.pair2(alpha, w) for w in weights]
            for i, alpha in enumerate(cartan.simple_roots, 1)}
    eng = ActionEngine(N, cartan, kexp, maps, () if N % 2 else _EVEN_SIGN_FIXES)
    for side in ("left", "right"):
        if not all(_vanishes(eng, _ef_commutator(cartan, i, i), side)
                   for i in range(1, cartan.n + 1)):
            raise RepresentationInconsistent(
                f"N = {N}: the tables fail the E-F commutator ({side})")
    return eng


# ---------------------------------------------------------------------------
# Module-algebra actions on NCPoly
# ---------------------------------------------------------------------------


class ActionEngine:
    """The vector representation of N and its left and right U_q(so_N)
    actions on NCPoly words via the coproducts
    Delta(E) = E (x) K + 1 (x) E and Delta(F) = F (x) 1 + K^-1 (x) F.

    maps holds the E/F tables keyed by (letter, side),
    {i: {source: (target, coeff)}}: the left tables move column indices,
    the right tables row indices.  K_i multiplies index j by
    v^kexp[i][j] on either side.  sign_fixes records the conjugate
    entries whose sign the E-F commutator fixes at even N.  Build it
    through vector_rep(N)."""

    __slots__ = ("N", "cartan", "kexp", "maps", "sign_fixes")

    def __init__(self, N: int, cartan: CartanData, kexp: dict, maps: dict,
                 sign_fixes: tuple):
        self.N = N
        self.cartan = cartan
        self.kexp = kexp
        self.maps = maps
        self.sign_fixes = sign_fixes

    def _act_one(self, kind, l, p: NCPoly, side: str) -> NCPoly:
        """One letter on one side.  The left action moves column (second)
        indices, the right action row (first) indices.  By the
        coproducts, E at a position carries K on every later letter and
        F carries K^-1 on every earlier one."""
        if p.N != self.N:
            raise IndexOutOfRange("polynomial and engine disagree on N")
        kexp = self.kexp[l]
        ix = 1 if side == "left" else 0
        out = {}
        if kind in (K, KINV):
            sgn = 1 if kind == K else -1
            for w, c in p.terms.items():
                e = sgn * sum(kexp[x[ix]] for x in w)
                accumulate(out, w, c.shift(e))
            return NCPoly(self.N, out)

        gmap = self.maps[kind, side].get(l, {})
        for w, c in p.terms.items():
            exps = [kexp[x[ix]] for x in w]
            before, after = 0, sum(exps)
            for pos, x in enumerate(w):
                after -= exps[pos]
                hit = gmap.get(x[ix])
                if hit:
                    t, cc = hit
                    nl = (x[0], t) if ix else (t, x[1])
                    e = after if kind == E else -before
                    accumulate(out, w[:pos] + (nl,) + w[pos + 1:],
                               (c * cc).shift(e))
                before += exps[pos]
        return NCPoly(self.N, out)

    def act_left(self, word, p: NCPoly) -> NCPoly:
        """Apply a word, a list of letters ('E'|'F'|'K'|'Kinv', i), on
        the left; the leftmost letter acts last."""
        for kind, l in reversed(word):
            p = self._act_one(kind, l, p, "left")
        return p

    def act_right(self, p: NCPoly, word) -> NCPoly:
        """Apply a word on the right; the leftmost letter acts first."""
        for kind, l in word:
            p = self._act_one(kind, l, p, "right")
        return p


# ---------------------------------------------------------------------------
# Defining relations
# ---------------------------------------------------------------------------


def _ef_commutator(cartan: CartanData, i: int, j: int) -> list:
    """[E_i, F_j] - delta_ij (K_i - K_i^-1)/(q_i - q_i^-1) as
    (coeff, word) terms, with q_i = v^(2 d_i).  At i = j the terms are
    those of (q_i - q_i^-1) times the relation, which keeps every
    coefficient a Laurent polynomial."""
    if i != j:
        return [(ONE, [(E, i), (F, j)]), (-ONE, [(F, j), (E, i)])]
    qi = FieldElem.v_pow(int(2 * cartan.d[i - 1]))
    c = qi - qi.inverse()
    return [(c, [(E, i), (F, i)]), (-c, [(F, i), (E, i)]),
            (-ONE, [(K, i)]), (ONE, [(KINV, i)])]


def _relations(cartan: CartanData) -> list:
    """The defining relations of U_q(so_N) in report order, as
    (name, terms): K commutation, K-E-K^-1 and K-F-K^-1, the E-F
    commutator and quantum Serre.  terms is a list of (coeff, word)
    whose sum vanishes in U_q(so_N)."""
    idx = range(1, cartan.n + 1)
    a = cartan.cartan_matrix
    qexp = [None] + [int(2 * d) for d in cartan.d]
    out = [(f"K{i} K{j} = K{j} K{i}",
            [(ONE, [(K, i), (K, j)]), (-ONE, [(K, j), (K, i)])])
           for i in idx for j in idx]
    for i in idx:
        for j in idx:
            e = qexp[i] * a[i - 1][j - 1]
            for X, sign, k in ((E, "", e), (F, "-", -e)):
                out.append((f"K{i} {X}{j} K{i}^-1 = qi^{sign}a_ij {X}{j}",
                            [(ONE, [(K, i), (X, j), (KINV, i)]),
                             (-FieldElem.v_pow(k), [(X, j)])]))
    out += [(f"[E{i}, F{j}] = delta (K{i}-K{i}^-1)/(qi-qi^-1)",
             _ef_commutator(cartan, i, j)) for i in idx for j in idx]
    for X in (E, F):
        for i in idx:
            for j in idx:
                if i == j:
                    continue
                m = 1 - a[i - 1][j - 1]
                terms = []
                for r in range(m + 1):
                    c = sym_qbinom(m, r, qexp[i])
                    terms.append((-c if r % 2 else c,
                                  [(X, i)] * r + [(X, j)] + [(X, i)] * (m - r)))
                out.append((f"Serre {X}{i},{X}{j}", terms))
    return out


def _vanishes(eng: ActionEngine, terms, side: str) -> bool:
    """Whether sum coeff * word acts as zero on one side.  Each word acts
    on sum_s u^s_s; the left action moves only columns and the right
    action only rows, so the words (s, t) of the result hold every
    matrix entry."""
    N = eng.N
    ident = NCPoly(N, {((s, s),): ONE for s in range(1, N + 1)})
    out = {}
    for c, word in terms:
        acted = eng.act_left(word, ident) if side == "left" \
            else eng.act_right(ident, word)
        for w, x in acted.terms.items():
            accumulate(out, w, c * x)
    return not out


def verify_qea_relations(N: int) -> list:
    """Exact checks of the defining relations (K commutation, K-E-K and
    K-F-K conjugation, E-F commutator, quantum Serre), each evaluated
    through the action kernel on sum_s u^s_s on the left and on the
    right, so the right rows check the right action itself."""
    eng = vector_rep(N)
    rels = _relations(eng.cartan)
    return [{"relation": name, "side": side,
             "status": "verified" if _vanishes(eng, terms, side) else "failed"}
            for side in ("left", "right") for name, terms in rels]


# ---------------------------------------------------------------------------
# Covariance of the relation span
# ---------------------------------------------------------------------------


def _unstable(rels, letters, eng: ActionEngine, rw: Rewriter):
    """Yield (index, letter, side) for every relation row whose image
    under a letter acting on that side has a nonzero normal form."""
    for idx, terms in enumerate(rels):
        p = NCPoly(eng.N, terms)
        for letter in letters:
            for side in ("left", "right"):
                acted = eng.act_left([letter], p) if side == "left" \
                    else eng.act_right(p, [letter])
                if not normal_form(acted, rw).is_zero():
                    yield idx, letter, side


def _pair_action(eng: ActionEngine, letter, side: str, fixed=(1, 1)) -> dict:
    """A letter's action on index pairs, {(a, b): {(x, y): coeff}}: the
    column pairs of u^r_a u^s_b on the left, the row pairs of
    u^a_r u^b_s on the right, with (r, s) = fixed.  The left action
    moves only columns and the right action only rows, so the result
    does not depend on fixed."""
    N = eng.N
    r, s = fixed
    ix = 1 if side == "left" else 0
    out = {}
    for a in range(1, N + 1):
        for b in range(1, N + 1):
            if side == "left":
                acted = eng.act_left([letter], NCPoly(N, {((r, a), (s, b)): ONE}))
            else:
                acted = eng.act_right(NCPoly(N, {((a, r), (b, s)): ONE}), [letter])
            if acted.terms:
                out[a, b] = {(x[ix], y[ix]): c for (x, y), c in acted.terms.items()}
    return out


def _commutes(A: dict, B: dict, C: dict, D: dict, pairs) -> bool:
    """Whether A B = C D on every basis pair, exactly."""
    for s in pairs:
        diff = apply(A, B.get(s, {}))
        for t, c in apply(C, D.get(s, {})).items():
            accumulate(diff, t, -c)
        if diff:
            return False
    return True


def _intertwines(N: int, eng: ActionEngine, letters) -> bool:
    """Whether every letter satisfies R'D = DR' on the left and
    D_r R = R (P D_r P) on the right, so that it maps the image of
    Phi = R (x) 1 - P (x) R' into itself (module docstring)."""
    r, rprime = _r_tables(N)
    for letter in letters:
        d = _pair_action(eng, letter, "left")
        if not _commutes(rprime, d, d, rprime, r):
            return False
        dr = _pair_action(eng, letter, "right")
        pdrp = {(b, a): {(y, x): c for (x, y), c in img.items()}
                for (a, b), img in dr.items()}
        if not _commutes(dr, r, r, pdrp, r):
            return False
    return True


@cache
def relation_count(N: int) -> int:
    """The number of relations frt.generate_relations makes at N,
    counted once per process over its stream, which holds none of them."""
    return sum(1 for _ in generate_relations(N))


def verify_covariance(N: int) -> dict:
    """Check the quadratic relation span is stable under every left and
    right E_i, F_i, K_i action.

    The certificate is the pair of FRT intertwiner identities of the
    module docstring, checked exactly for every letter on the pair maps
    that the action kernel itself produces; it reads vector_rep(N) and
    no rewriter.  If an identity fails, nothing is concluded from it:
    the exact loop acts with every letter on both sides of every
    generated relation, reduces each image against rewriter(N), and
    its (relation, letter, side) triples with a nonzero normal form are
    the failures; only this fallback generates the relations.
    relations is relation_count(N), counted once per process, and
    checks counts the relations x letters x sides triples that the
    verdict covers, either way."""
    eng = vector_rep(N)
    n = eng.cartan.n
    letters = [(E, i) for i in range(1, n + 1)] + \
              [(F, i) for i in range(1, n + 1)] + \
              [(K, i) for i in range(1, n + 1)]
    failures = []
    if not _intertwines(N, eng, letters):
        failures = [{"relation": ridx, "letter": letter, "side": side}
                    for ridx, letter, side
                    in _unstable(generate_relations(N), letters,
                                 eng, rewriter(N))]
    count = relation_count(N)
    return {
        "N": N,
        "relations": count,
        "checks": count * len(letters) * 2,
        "failures": failures,
        "status": "verified" if not failures else "failed",
        "sign_fixes": list(eng.sign_fixes),
    }


# ---------------------------------------------------------------------------
# Spherical generators and highest-weight checks
# ---------------------------------------------------------------------------


def z_poly(N: int) -> NCPoly:
    """z = u^1_1 u^1_N."""
    return NCPoly.gen(N, 1, 1) * NCPoly.gen(N, 1, N)


def hw_check(a: NCPoly, lam, eng: ActionEngine, rw) -> dict:
    """Highest-weight test for the S-twisted left action
    X > a := a <| S(X): every a <| S(E_i) vanishes modulo relations and
    a <| S(K_i) = q^((lam, alpha_i)) a modulo relations."""
    cartan = eng.cartan
    n = cartan.n
    detail = []
    ok = True
    for i in range(1, n + 1):
        # S(E_i) = -E_i K_i^-1
        acted = eng.act_right(a, [(E, i), (KINV, i)])
        z = normal_form(acted, rw).is_zero()
        ok = ok and z
        detail.append({"check": f"a <| S(E_{i}) = 0", "status": "verified" if z else "failed"})
    for i in range(1, n + 1):
        alpha = cartan.simple_roots[i - 1]
        e = cartan.pair2(lam, alpha)
        acted = eng.act_right(a, [(KINV, i)])
        diff = acted - a.scale(FieldElem.v_pow(e))
        z = normal_form(diff, rw).is_zero()
        ok = ok and z
        detail.append({"check": f"a <| S(K_{i}) = q^(lam, alpha_{i}) a",
                       "status": "verified" if z else "failed"})
    return {"status": "verified" if ok else "failed", "detail": detail}


def verify_spherical(N: int) -> dict:
    """Highest-weight checks for z (weight 2 fw_1) and y (K-exponent
    2 fw_1 - alpha_1), plus the degree-4 commutation identities behind
    the z and y differential relations:
    u^1_N u^1_k' u^1_N u^1_1 = q^-2 u^1_N u^1_1 u^1_N u^1_k' and
    w_l' w_N = q^-2 w_N w_l' with w_a = minor(N, a, N) and w_N = y."""
    rw, eng = rewriter(N), vector_rep(N)
    cartan = eng.cartan
    two_fw1 = tuple(2 * x for x in cartan.fundamental_weights[0])
    y = minor(N, 1, N)
    out = {"N": N, "checks": []}
    rz = hw_check(z_poly(N), two_fw1, eng, rw)
    out["checks"].append({"name": "z highest weight 2*fw1", **rz})
    ry = hw_check(y, y_weight(cartan), eng, rw)
    out["checks"].append({"name": "y K-exponent 2*fw1 - alpha1", **ry})

    qm2 = FieldElem.v_pow(-4)

    def u(i, j):
        return NCPoly.gen(N, i, j)

    u1N_u11 = u(1, N) * u(1, 1)
    for k in range(2, N):
        kp = N + 1 - k
        diff = qcomm(u(1, N) * u(1, kp), u1N_u11, qm2)
        z = normal_form(diff, rw).is_zero()
        out["checks"].append({
            "name": f"u1N u1{kp} u1N u11 q-commutation (k={k})",
            "status": "verified" if z else "failed"})

    for l in range(2, N):
        lp = N + 1 - l
        z = normal_form(qcomm(minor(N, lp, N), y, qm2), rw).is_zero()
        out["checks"].append({
            "name": f"w{lp} wN q-commutation (l={l})",
            "status": "verified" if z else "failed"})
    out["status"] = "verified" if all(
        c["status"] == "verified" for c in out["checks"]) else "failed"
    return out


# ---------------------------------------------------------------------------
# z-coordinates
# ---------------------------------------------------------------------------


def z_coord_poly(N: int, a: int, b: int) -> NCPoly:
    """z_ab = u^a_N S(u^N_b) = q^(rho_b - rho_N) u^a_N u^(b')_1."""
    coeff = FieldElem.v_pow(rho2(N, b) - rho2(N, N))
    return (NCPoly.gen(N, a, N) * NCPoly.gen(N, N + 1 - b, 1)).scale(coeff)


@cache
def z_span(N: int) -> Span:
    """The normal forms of the z_ab against the shared frt.rewriter(N),
    each labelled (a, b), as one Span, built once per process; like the
    rewriter it is shared and read-only.  Its express gives the
    coefficients x_ab with sum x_ab z_ab = p modulo relations from the
    normal form of p."""
    rw = rewriter(N)
    span = Span(shared={})
    for a in range(1, N + 1):
        for b in range(1, N + 1):
            span.add(normal_form(z_coord_poly(N, a, b), rw).terms, (a, b))
    return span


# ---------------------------------------------------------------------------
# Orbit scan (right F-action on y through the z-coordinates)
# ---------------------------------------------------------------------------


def orbit_sequence(N: int) -> list:
    """The right-action F-letter sequence used for the orbit scan."""
    n = N // 2
    if N % 2:
        block = [(F, i) for i in range(2, n + 1)] + \
                [(F, i) for i in range(n, 1, -1)]
        return block + block + [(F, 1), (F, 1)]
    block = [(F, i) for i in range(2, n + 1)] + \
            [(F, i) for i in range(n - 2, 1, -1)]
    return block + block + [(F, 1), (F, 1)]


def classify_z_combination(N: int, coeffs: dict):
    """Match a z-coordinate combination against the four orbit families."""
    support = frozenset(coeffs)

    def ratio(ka, kb):
        return coeffs[kb] / coeffs[ka]

    def gamma_exp(c: FieldElem):
        m = c.as_monomial()
        if m is None:
            return None
        r, e = m
        if r == 1 and e % 2 == 0:
            return e // 2
        return None

    for i in range(2, N):
        if support == frozenset({(i, N), (1, N + 1 - i)}):
            rat = -ratio((i, N), (1, N + 1 - i))
            return {"family": "i'", "i": i, "gamma": gamma_exp(rat),
                    "q_power": rat.to_text()}
    if support == frozenset({(N, N), (N - 1, N - 1), (2, 2), (1, 1)}):
        return {"family": "ii'",
                "eta1": (-ratio((N, N), (N - 1, N - 1))).to_text(),
                "eta2": ratio((N, N), (2, 2)).to_text(),
                "eta3": (-ratio((N, N), (1, 1))).to_text()}
    for i in range(2, N - 1):
        if support == frozenset({(i, N - 1), (2, N + 1 - i)}):
            rat = -ratio((i, N - 1), (2, N + 1 - i))
            return {"family": "iii'", "i": i, "a": gamma_exp(rat),
                    "q_power": rat.to_text()}
    if support == frozenset({(N, N - 1), (2, 1)}):
        # mu is the signed coefficient of z_{2,1} after normalizing the
        # z_{N,N-1} coefficient to 1; it is a negative q-monomial
        mu = ratio((N, N - 1), (2, 1))
        return {"family": "iv'", "mu": mu.to_text(),
                "mu_sign_at_11_10": mu.sign_at_sqrtq(Fraction(11, 10))}
    return {"family": "unclassified", "support": sorted(support)}


def orbit_scan(N: int) -> dict:
    """Scan all increasing subsequences of the orbit F-sequence applied
    to y on the right, classify each nonzero result in z-coordinates,
    and check the terminal element (one up-down block followed by F_1
    twice) lands in family (iv') with mu < 0 at q = 11/10.  The report
    fails exactly when failures is nonempty: every check that fails,
    the terminal one included, lists the word it failed on."""
    rw, eng, span = rewriter(N), vector_rep(N), z_span(N)
    seq = orbit_sequence(N)
    y = minor(N, 1, N)

    def word(prefix):  # the F-letters at the positions of prefix in seq
        return [f"F{seq[p][1]}" for p in prefix]

    trace = []
    families_seen = set()
    terminal = None
    failures = []
    # walk the subsequence tree: each state is keyed by its prefix, the
    # positions in seq of the letters applied to y, and holds the acted
    # polynomial beside its normal form; a letter that takes a state to
    # 0 modulo relations ends that branch
    states = {(): (y, normal_form(y, rw).terms)}
    for pos, letter in enumerate(seq):
        new_states = {}
        for prefix, (poly, _) in states.items():
            acted = eng.act_right(poly, [letter])
            nf = normal_form(acted, rw).terms
            if nf:
                new_states[prefix + (pos,)] = (acted, nf)
        states.update(new_states)
    block_len = (len(seq) - 2) // 2
    terminal_prefix = tuple(range(block_len)) + (len(seq) - 2, len(seq) - 1)
    for prefix, (_, nf) in sorted(states.items(), key=lambda kv: (len(kv[0]), kv[0])):
        coeffs = span.express(nf)
        if coeffs is None:
            lead = reduce_lead(dict(nf), span.pivots)
            failures.append({"word": word(prefix), "error": f"residual word {lead}"})
            continue
        cls = classify_z_combination(N, coeffs)
        families_seen.add(cls["family"])
        entry = {"word": word(prefix), **cls}
        trace.append(entry)
        if cls["family"] == "unclassified":
            failures.append(entry)
        if cls["family"] == "iv'" and cls["mu_sign_at_11_10"] != -1:
            failures.append(entry)
        if prefix == terminal_prefix:
            terminal = entry
    # a terminal in (iv') with mu >= 0 is already listed above
    if terminal is None or terminal["family"] != "iv'":
        found = "no nonzero result" if terminal is None \
            else f"family {terminal['family']}"
        failures.append({"word": word(terminal_prefix),
                         "error": f"terminal word has {found}, not (iv')"})
    status = "failed" if failures else "verified"
    return {
        "N": N,
        "sequence": [f"F{i}" for _, i in seq],
        "results": len(trace),
        "trace": trace,
        "families": sorted(families_seen),
        "terminal": terminal,
        "failures": failures,
        "status": status,
    }
