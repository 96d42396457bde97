"""q-deformed exterior fiber algebras on M generators.

Two one-sided exterior algebras Lambda^+ (generators e+_1..e+_M) and
Lambda^- (generators e-_1..e-_M), the quantum exterior algebras of the
vector representation of U_q(so_M) (Heckenberger and Kolb, De Rham
complex for quantized irreducible flag manifolds, J. Algebra 2006).
Lambda^- is built from the braiding of so_M that frt tabulates: its
relations span the (R^ + q^{-1})(e_a (x) e_b), R^ = P R, frt's row
reduction of that span gives one rule per pair a >= b, its deglex
leads, and a word straightens through frt's rewriting engine.  With
the fiber conjugation i |-> M+1-i, the rules it yields are (the test
suite pins them to this closed form for M <= 12):

  Lambda^-:  e-_i ^ e-_i = 0                     (i != conj(i)),
             e-_i ^ e-_j = -q^{-1} e-_j ^ e-_i   (i < j, j != conj(i)),
             e-_c ^ e-_i + e-_i ^ e-_c
               = (q - q^{-1}) sum_{j<i} q^{j-i+1} e-_j ^ e-_conj(j)
                                                 (c = conj(i) > i),
             e-_m ^ e-_m = (q^{1/2} - q^{-1/2}) sum_{j<m}
                 q^{j-m+1} e-_j ^ e-_conj(j)     (odd M, m the middle),
  Lambda^+:  the same rules with q |-> q^{-1} in the swap and correction
             exponents and a global minus on the correction sums.

Since q - q^{-1} and q^{1/2} - q^{-1/2} change sign under v |-> 1/v,
Lambda^+ is the bar of Lambda^- (FieldElem.bar): only the Lambda^- rules
are built, and a Lambda^+ normal form, like a mirrored kappa power, is
the bar of its Lambda^- counterpart.  The rules are locally confluent
(checked exhaustively on length-3 words for M <= 6 by the test suite).
The algebras, and so every table below, depend on M alone.

Mixed e+/e- commutation relations are never used: all computations on
two-block forms route through centrality of the Kaehler form.  One
kernel, _insert, inserts the pair e+_i ^ e-_i between the blocks of a
basis term, e+_I ^ (e+_i ^ e-_i) ^ e-_J.

The Lefschetz map on every basis key is one table per M, built on first
use and shared for the life of the process (lefschetz_table); the
Lefschetz ranks, the primitive decomposition and the Hodge map read it.
The build straightens each wedge word once and interns the table's few
distinct coefficients, so an evaluation at a point, or mod p, costs one
evaluation per distinct coefficient.  The build also holds the map as
step lists on integer basis indices, from which the symbolic and
evaluated maps are filled.  The table keeps the objects of its latest
point q0 only: the evaluated map and, per degree, the primitive vectors,
the span of their Lefschetz images that solves the Lefschetz
decomposition, and the Hodge image of each basis key met so far, so the
Hodge map at a point is one column per key, built once.  A rank check
mod p fills no map: it evaluates the coefficients mod p and pushes
basis indices through the step lists, keeping nothing, so a rank check
at another point does not drop the Hodge check's decompositions.  No
dense matrix is formed: every rank,
kernel and solve eliminates the sparse images L^l(e_key) of basis keys,
mod p by ncpoly.independent_mod on index-keyed rows, and exactly
through ncpoly's elimination step and ncpoly.Span.  The kappa powers read the table's
symbolic map; the non-primitivity check's single top pair inserts only
against the keys it touches.

Forms are written in the basis e'_{I,J} = q^{-pi(I,J)/2} e+_I ^ f-_J,
with f-_j = i e-_j and pi(I, J) = 1 exactly when M is odd and the
middle index (M+1)/2 lies in I but not in J, else 0 (_parity).  The
Lambda^- rules are homogeneous quadratic, so they hold unchanged for
the f-_j; the Kaehler form i * sum_i e+_i ^ e-_i is sum_i e+_i ^ f-_i,
and the Lefschetz map, the kappa powers and the primitive decomposition
are real in the basis e+_I ^ f-_J.  The diagonal rescaling by pi moves
every half-integer power of q out of the Lefschetz map: each of its
entries lies in Z[q, q^{-1}] (the test suite pins this for M <= 6).  No
key of a kappa power has pi = 1, so the kappa powers read the same in
both bases, and the rescaling keeps every key, so the Hodge map keeps
its bidegrees.  A form is a sparse row {(I, J): scalar}
(ncpoly), one real coefficient per key of sorted index tuples and no
zero stored, each scalar an exact one of one kind: FieldElem (symbolic
in v), or Fraction (evaluated at q = q0, which needs no square root); at
a point, primitive_decompose and hodge also take rational scalars, which
the evaluator passes through unchanged.  QuadExt, the field Q(sqrt(q0)),
only decides the signs of verify_nonprimitive.  Forms add
through ncpoly.accumulate and every linear map on them, L included, is
applied through ncpoly.apply, except L mod p, which the rank check
pushes through the table's step lists.  The imaginary unit is
never adjoined to the coefficient field: hodge() returns C^{-1} *, with
C the Weil operator i^{p-q} on bidegree (p, q), which is real and has
the bidegrees of * (the Weil formula of O Buachalla, Noncommutative
Kaehler structures on quantum homogeneous spaces, Adv. Math. 2017).
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial

from .errors import DecompositionSingular, IndexOutOfRange
from .field import ONE, FieldElem
from .frt import Rewriter, _nf_terms, _r_tables, _rref_rewriter
from .ncpoly import (PRIME, Span, accumulate, apply, independent_mod,
                     insert_pivot)


class ExtAlgParams:
    """Parameters of the two fiber exterior algebras on M generators."""

    __slots__ = ("M",)

    def __init__(self, M: int):
        if M < 1:
            raise ValueError("M >= 1 required")
        self.M = M


# ---------------------------------------------------------------------------
# Straightening
# ---------------------------------------------------------------------------

@functools.cache
def _minus_rules(M: int) -> Rewriter:
    """The Lambda^- rules on M generators, built once per process: the
    RREF of the rows (R^ + q^{-1})(e_a (x) e_b)
    = q^{-1} e_a e_b + sum_{k,l} R^{kl}_{ab} e_l e_k, with R of so_M,
    whose entry at (l, k) R' (frt._r_tables) holds.  Shared by every
    caller and read-only."""
    rows = []
    for (a, b), col in _r_tables(M)[1].items():
        row = {(a, b): FieldElem.v_pow(-2)}
        for kl, c in col.items():
            accumulate(row, kl, c)
        rows.append(row)
    return _rref_rewriter(M, rows)


def _straighten(params: ExtAlgParams, word, side: str):
    """Normal form of a wedge word as {strictly increasing tuple: coeff},
    in Lambda^- (side "-") or Lambda^+ (side "+"): the Lambda^+ rules are
    the bar of the Lambda^- rules, so its normal form is the bar of the
    Lambda^- one."""
    for a in word:
        if not 1 <= a <= params.M:
            raise IndexOutOfRange(f"generator index {a} outside 1..{params.M}")
    done = _nf_terms({tuple(word): ONE}, _minus_rules(params.M))
    if side == "+":
        return {w: c.bar() for w, c in done.items()}
    return done


# ---------------------------------------------------------------------------
# The insertion kernel
# ---------------------------------------------------------------------------

def _insert(params: ExtAlgParams, key, indices=None, straighten=None):
    """Image of the basis key (I, J) under the central pair insertions
    e+_I ^ (e+_i ^ e-_i) ^ e-_J summed over i in indices (default 1..M),
    as {(I', J'): coeff}.

    The Lambda^- rules are homogeneous quadratic, so the same
    coefficients hold in the basis f-_j = i e-_j of Lambda^-.  straighten
    (word, side) -> normal form defaults to _straighten; the table build
    passes a memoised one.
    """
    if straighten is None:
        straighten = functools.partial(_straighten, params)
    I, J = key
    out = {}
    for i in indices or range(1, params.M + 1):
        lpart = straighten(I + (i,), "+")
        if not lpart:
            continue
        rpart = straighten((i,) + J, "-")
        for lk, lc in lpart.items():
            for rk, rc in rpart.items():
                accumulate(out, (lk, rk), lc * rc)
    return out


def kappa_power(params: ExtAlgParams, l: int) -> dict:
    """Exact expansion kappa^l = sum f_{l,I,J} e+_I ^ f-_J over the sorted
    basis, as the form {(I, J): f_{l,I,J}}, by l steps of the shared
    Lefschetz table; kappa itself is l = 1."""
    if l < 0 or l > 2 * params.M:
        raise ValueError("need 0 <= l <= 2M")
    return _power(lefschetz_table(params.M).map, {((), ()): ONE}, l)


# ---------------------------------------------------------------------------
# Classical q = 1 oracle
# ---------------------------------------------------------------------------

def classical_kappa_coeffs(M: int, l: int):
    """Independent q = 1 oracle for the diagonal kappa-power coefficients.

    Classically all 2M generators anticommute and square to zero, so
    (sum_i p_i m_i)^l is expanded over distinct index tuples and each
    word p_{i1} m_{i1} ... p_{il} m_{il} is sorted into the block form
    p_I m_I by counting transpositions.  Returns {I: integer}.
    """
    out = {}
    for subset in combinations(range(1, M + 1), l):
        total = 0
        for perm in permutations(subset):
            word = []
            for i in perm:
                word.append((0, i))  # p_i
                word.append((1, i))  # m_i
            total += _sort_sign(word)
        if total:
            out[subset] = total
    return out


def _sort_sign(word) -> int:
    """Sign of the permutation sorting distinct letters (bubble count)."""
    w = list(word)
    sign = 1
    for a in range(len(w)):
        for b in range(len(w) - 1 - a):
            if w[b] > w[b + 1]:
                w[b], w[b + 1] = w[b + 1], w[b]
                sign = -sign
    return sign


# ---------------------------------------------------------------------------
# Scalar evaluation helpers (exact, at q = q0)
# ---------------------------------------------------------------------------

def make_evaluator(q0):
    """Exact scalar evaluator at q = q0 > 0 over Q: a FieldElem of Q(q)
    goes to a Fraction (FieldElem.eval_q), and a scalar that is already a
    number (an int or a Fraction) passes through unchanged.  ValueError
    when q0 <= 0."""
    q0 = Fraction(q0)
    if q0 <= 0:
        raise ValueError(f"need q0 > 0, got {q0}")
    return lambda x: x.eval_q(q0) if isinstance(x, FieldElem) else x


# ---------------------------------------------------------------------------
# Reduction mod p (the rank certificate)
# ---------------------------------------------------------------------------

def _modular_point(q0):
    """(p, r) with p the prime 2^61 - 1 (ncpoly.PRIME) and r = q0 mod p,
    or None when q0 <= 0 or q0 is not a unit mod p."""
    q0 = Fraction(q0)
    n, d = q0.numerator % PRIME, q0.denominator % PRIME
    if q0 <= 0 or not n or not d:
        return None
    return PRIME, n * pow(d, -1, PRIME) % PRIME


# ---------------------------------------------------------------------------
# Exact rank (the certificate's fallback)
# ---------------------------------------------------------------------------

def _echelon(rows) -> int:
    """Exact rank of sparse rows over their scalar field (Fraction or
    FieldElem; ints mix in), by ncpoly's elimination step.  The rows are
    left as they are."""
    pivots = {}
    for row in rows:
        insert_pivot(dict(row), pivots)
    return len(pivots)


# ---------------------------------------------------------------------------
# Lefschetz matrices, primitive decomposition, Hodge map
# ---------------------------------------------------------------------------

def _basis(M: int, k: int):
    """Sorted basis keys (I, J) of total degree k."""
    out = []
    for a in range(max(0, k - M), min(k, M) + 1):
        for I in combinations(range(1, M + 1), a):
            for J in combinations(range(1, M + 1), k - a):
                out.append((I, J))
    return out


def _parity(M: int, key) -> int:
    """pi(I, J): 1 when M is odd and the middle index lies in I but not
    in J, else 0; the basis key (I, J) stands for q^{-pi/2} e+_I ^ f-_J."""
    m = (M + 1) // 2
    return int(M % 2 == 1 and m in key[0] and m not in key[1])


class _LefschetzTable:
    """Symbolic Lefschetz map L = kappa ^ - on all basis keys e'_{I,J}.

    An _insert coefficient c of e+_I ^ f-_J -> e+_I' ^ f-_J' becomes
    c v^{pi(I',J') - pi(I,J)} in the rescaled basis, an element of
    Z[q, q^{-1}].  Few entries are distinct (9 of 57 at M = 3, 44 of
    1,728 at M = 5),
    so the build interns them: coeffs lists each distinct coefficient
    once and every map entry has a position in it.  The entries are
    held as step lists on basis indices: _steps[d][i] lists, for the
    i-th basis key of degree d, the pairs (index in degree d + 2,
    position in coeffs).  An evaluation evaluates coeffs and fills the
    map by position; a residue evaluation is pushed through the step
    lists directly (images_mod).
    """

    def __init__(self, params: ExtAlgParams):
        M = params.M
        self.M = M
        straighten = functools.cache(
            lambda word, side: _straighten(params, word, side))
        # degrees up to 2M + 2, so that degree d + 2 exists for every d
        self._keys = [_basis(M, d) for d in range(2 * M + 3)]
        index = [{key: i for i, key in enumerate(keys)} for keys in self._keys]
        position = {}
        self._steps = [
            [[(index[d + 2][t], position.setdefault(
                c.shift(_parity(M, t) - _parity(M, key)), len(position)))
              for t, c in _insert(params, key, straighten=straighten).items()]
             for key in self._keys[d]]
            for d in range(2 * M + 1)]
        self.coeffs = list(position)
        self.map = self._fill(self.coeffs)
        # (q0, ev, evaluated map, {degree: _Decomposition},
        #  {key: Hodge column}) of the latest q0
        self._last = None

    def _fill(self, values):
        """The map with each entry replaced by values[its position]."""
        keys = self._keys
        return {key: {keys[d + 2][t]: values[i] for t, i in step}
                for d, steps in enumerate(self._steps)
                for key, step in zip(keys[d], steps)}

    def numeric(self, ev):
        return self._fill([ev(c) for c in self.coeffs])

    def images_mod(self, values, d: int, power: int, p: int):
        """The images L^power(e_key) mod p of degree d's basis keys, in
        order, as rows {basis index in degree d + 2 power: residue}, for
        power >= 1; values are the residues of coeffs."""
        steps = self._steps[d:d + 2 * power:2]
        rows = []
        for first in steps[0]:
            vec = {t: r for t, pos in first if (r := values[pos])}
            for step in steps[1:]:
                out = {}
                for j, c in vec.items():
                    for t, pos in step[j]:
                        out[t] = out.get(t, 0) + c * values[pos]
                vec = {t: r for t, x in out.items() if (r := x % p)}
            rows.append(vec)
        return rows

    def at(self, q0):
        """(ev, map): the evaluator at q = q0, which passes a
        rational scalar through unchanged, and the map evaluated by it;
        the identity and the symbolic map when q0 is None.  Only the
        latest q0's objects are kept (the map, the decompositions and
        the Hodge columns), so repeated calls at one q0 evaluate
        each distinct coefficient once and a long-lived table holds at
        most one evaluated map."""
        if q0 is None:
            return (lambda x: x), self.map
        if self._last is None or self._last[0] != q0:
            ev = make_evaluator(q0)
            self._last = (q0, ev, self.numeric(ev), {}, {})
        return self._last[1:3]

    def decomposition(self, q0, k: int) -> "_Decomposition":
        """Degree k's Lefschetz decomposition at q = q0, built once
        per degree and kept with the latest q0's map; built afresh on
        every call when q0 is None (symbolic)."""
        num = self.at(q0)[1]
        if q0 is None:
            return _Decomposition(num, self.M, k)
        held = self._last[3]
        if k not in held:
            held[k] = _Decomposition(num, self.M, k)
        return held[k]

    def hodge_columns(self, q0) -> dict:
        """The Hodge columns {key: C^{-1} *(e_key)} at q = q0 that
        hodge has built so far, kept with the latest q0's map; a fresh
        dict on every call when q0 is None (symbolic)."""
        self.at(q0)
        return {} if q0 is None else self._last[4]


@functools.cache
def lefschetz_table(M: int) -> _LefschetzTable:
    """The Lefschetz table of the fiber on M generators, built once per
    process.  The returned object is shared by every caller and is
    read-only: evaluate it through at(), images_mod() and
    decomposition(), never modify its map."""
    return _LefschetzTable(ExtAlgParams(M))


def _power(num_map, vec, power: int):
    """L^power(vec) on a {key: scalar} vector through num_map."""
    for _ in range(power):
        vec = apply(num_map, vec)
    return vec


def _images(num_map, M: int, d: int, power: int):
    """The images L^power(e_key) of degree d's basis keys, in order."""
    return [_power(num_map, {key: 1}, power) for key in _basis(M, d)]


def verify_lefschetz_iso(params: ExtAlgParams, q0) -> dict:
    """Certify bijectivity of L^{M-k}: degree k -> degree 2M-k by rank mod
    p, with exact elimination as the fallback.

    Every table entry lies in Z[q, q^{-1}], so it is evaluated over Q.
    Fix the prime p and r = q0 mod p (_modular_point).  q |-> r is a ring
    map to F_p from the local ring of Q at p extended by q0 and 1/q0,
    which holds every entry evaluated at q0.  So full rank mod p proves
    full rank at q = q0.  A degree whose rank mod p is deficient takes
    the exact rank over Fraction, and so does every degree when q0 is
    not a unit mod p or some entry has no image mod p.  Either way the
    reported rank is exact.  A matrix and its transpose have one rank,
    so both paths eliminate the images of the basis keys, the columns of
    L^{M-k}, as sparse rows.
    """
    M = params.M
    table = lefschetz_table(M)
    p, r = _modular_point(q0) or (None, None)
    values = None if p is None else [c.eval_mod(r, p) for c in table.coeffs]
    usable = values is not None and None not in values
    results = []
    failures = []
    for k in range(M):
        dim = comb(2 * M, k)
        if usable and len(independent_mod(
                table.images_mod(values, k, M - k, p), p)) == dim:
            rank = dim
        else:
            rank = _echelon(_images(table.at(q0)[1], M, k, M - k))
        ok = rank == dim
        results.append({"k": k, "dim": dim, "rank": rank,
                        "status": "bijective" if ok else "NotBijective"})
        if not ok:
            failures.append(results[-1])
    return {
        "M": M,
        "q0": str(Fraction(q0)),
        "degrees": results,
        "failures": failures,
        "status": "verified" if not failures else "failed",
    }


def _primitives(num_map, M: int, d: int):
    """A basis of the primitive vectors of degree d, the kernel of
    L^{M-d+1} there: the dependencies among the images of the basis
    keys, as {key: scalar}."""
    images = Span()
    deps = (images.add(img, key)
            for key, img in zip(_basis(M, d), _images(num_map, M, d, M - d + 1)))
    return [dep for dep in deps if dep is not None]


class _Decomposition:
    """Degree k's Lefschetz decomposition over one evaluated map.

    prims lists (j, w) for each primitive basis vector w of degree
    k - 2j; span holds the L^j(w), labelled by position in prims, or is
    None when they are dependent and no solve is unique.
    """

    __slots__ = ("prims", "span")

    def __init__(self, num, M: int, k: int):
        self.prims = [(j, w) for j in range(max(0, k - M), k // 2 + 1)
                      for w in _primitives(num, M, k - 2 * j)]
        self.span = Span()
        if any(self.span.add(_power(num, w, j), i) is not None
               for i, (j, w) in enumerate(self.prims)):
            self.span = None

    def solve(self, rhs):
        """{i: x_i} with sum_i x_i L^j(w) = rhs over (j, w) = prims[i],
        for a {key: scalar} rhs with no zero; None when the system has no
        unique solution."""
        return None if self.span is None else self.span.express(rhs)


def _degree(form: dict) -> int:
    """The total degree of a nonempty form; ValueError when it is not
    homogeneous."""
    degrees = {len(I) + len(J) for I, J in form}
    if len(degrees) > 1:
        raise ValueError("form is not homogeneous")
    return degrees.pop()


def primitive_decompose(params: ExtAlgParams, form: dict, q0=None):
    """Lefschetz decomposition form = sum_j L^j(w_j), each w_j primitive.

    L is real in the rescaled basis e'_{I,J}, so one solve per form gives
    the w_j.  Symbolic over the coefficient field when q0 is None
    (intended for M <= 4); exact rational arithmetic at q = q0
    otherwise, on a form with FieldElem (in Q(q)) or rational
    coefficients.
    Returns a list of (j, w_j), each w_j a form.  Raises ValueError on a
    form that is not homogeneous, and DecompositionSingular when the
    sample point degenerates the system.
    """
    M = params.M
    if not form:
        return []
    k = _degree(form)
    table = lefschetz_table(M)
    ev = table.at(q0)[0]
    rhs = {key: x for key, c in form.items() if (x := ev(c))}
    if not rhs:
        return []
    dec = table.decomposition(q0, k)
    sol = dec.solve(rhs)
    if sol is None:
        raise DecompositionSingular(
            f"Lefschetz decomposition singular (M={M}, degree {k}, q0={q0})")
    parts = {}
    for i, x in sol.items():
        j, prim = dec.prims[i]
        part = parts.setdefault(j, {})
        for key, c in prim.items():
            accumulate(part, key, x * c)
    return sorted(parts.items())


def _weil_image(params: ExtAlgParams, form: dict, q0) -> dict:
    """C^{-1} *(form) by the Weil formula of hodge on the Lefschetz
    decomposition of the homogeneous form."""
    M = params.M
    d = _degree(form)
    num = lefschetz_table(M).at(q0)[1]
    out = {}
    for j, wj in primitive_decompose(params, form, q0):
        k = d - 2 * j
        s = Fraction((-1) ** (k * (k + 1) // 2) * factorial(j), factorial(M - j - k))
        image = _power(num, {t: x * s for t, x in wj.items()}, M - j - k)
        for t, c in image.items():
            accumulate(out, t, c)
    return out


def hodge(params: ExtAlgParams, form: dict, q0=None) -> dict:
    """C^{-1} * of the Hodge map *, with C the Weil operator i^{p-q} on
    bidegree (p, q), via the Weil formula on the Lefschetz decomposition:

        C^{-1} *(L^j w) = (-1)^{k(k+1)/2} j!/(M-j-k)! L^{M-j-k}(w)

    for w primitive of total degree k.  * keeps p - q, so * = C hodge,
    with the bidegrees of *, and hodge is real on real forms and an
    involution.  It is written in the rescaled basis e'_{I,J}, which
    keeps every key and so every bidegree.  Symbolic when q0 is None,
    else evaluated at q = q0, on a form with FieldElem (in Q(q)) or
    rational coefficients.

    Symbolically the whole form is decomposed at once, so a call builds
    its degree's decomposition once.  At a point the map, which is
    linear, is applied as sum_key c_key C^{-1} *(e_key) over the form's
    keys: each column C^{-1} *(e_key) is built on first use from e_key
    with the int 1 as its scalar, which needs no evaluation, and is kept
    with the table's latest q0, so every basis key is decomposed once
    per point.  Raises ValueError and DecompositionSingular as
    primitive_decompose does.
    """
    if not form:
        return {}
    _degree(form)
    if q0 is None:
        return _weil_image(params, form, None)
    table = lefschetz_table(params.M)
    ev = table.at(q0)[0]
    rhs = {key: x for key, c in form.items() if (x := ev(c))}
    columns = table.hodge_columns(q0)
    for key in rhs:
        if key not in columns:
            columns[key] = _weil_image(params, {key: 1}, q0)
    return apply(columns, rhs)


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------

def verify_f_properties(params: ExtAlgParams) -> dict:
    """Coefficient laws of the kappa powers, against the classical oracle.

    For every l <= M: f_{l,I,J}(1) = 0 off the diagonal; the diagonal
    values at q = 1 carry sign (-1)^{l(l-1)/2}; the observed diagonal
    value is (-1)^{l(l-1)/2} l!, cross-checked against an independent
    classical anticommuting computation.
    """
    M = params.M
    checks = 0
    failures = []
    num = lefschetz_table(M).map
    coeffs = {((), ()): ONE}
    records = []
    for l in range(M + 1):
        if l:
            coeffs = apply(num, coeffs)
        oracle = classical_kappa_coeffs(M, l)
        want_sign = (-1) ** (l * (l - 1) // 2)
        want_val = want_sign * factorial(l)
        failed_before = len(failures)
        seen_diag = set()
        for (I, J), c in coeffs.items():
            at1 = c.eval_v(1)
            checks += 1
            if I != J:
                if at1 != 0:
                    failures.append({"l": l, "I": I, "J": J,
                                     "reason": f"f(1) = {at1} != 0 off-diagonal"})
                continue
            seen_diag.add(I)
            if at1 == 0 or (at1 > 0) - (at1 < 0) != want_sign:
                failures.append({"l": l, "I": I, "J": J,
                                 "reason": f"sign(f(1)) = sign({at1}) != {want_sign}"})
            if at1 != want_val:
                failures.append({"l": l, "I": I, "J": J,
                                 "reason": f"f(1) = {at1} != {want_val} (observed law)"})
            if at1 != oracle.get(I, 0):
                failures.append({"l": l, "I": I, "J": J,
                                 "reason": f"f(1) = {at1} disagrees with classical "
                                           f"oracle {oracle.get(I, 0)}"})
        expected_diag = {s for s in combinations(range(1, M + 1), l)}
        for I in expected_diag - seen_diag:
            failures.append({"l": l, "I": I, "J": I,
                             "reason": "diagonal coefficient missing"})
            checks += 1
        records.append({"l": l, "terms": len(coeffs),
                        "diag_at_1": (want_val if len(failures) == failed_before
                                      else None)})
    return {
        "M": M,
        "checks": checks,
        "records": records,
        "failures": failures,
        "status": "verified" if not failures else "failed",
    }


def verify_nonprimitive(params: ExtAlgParams, extra_samples=(Fraction(101, 100),)) -> dict:
    """kappa^{M-1} ^ e+_M ^ f-_M is a nonzero multiple of the top form
    (nonzero at q = 1 and at the extra sample points), plus the mirrored
    minus-first law g, whose top coefficient is the bar of the f one."""
    M = params.M
    failures = []
    details = {}
    full = tuple(range(1, M + 1))
    # wedge the (M-1)-power with the (M, M) pair between its blocks
    power = kappa_power(params, M - 1)
    res = apply({key: _insert(params, key, (M,)) for key in power}, power)
    keys = list(res)
    for label in ("f", "g"):
        if keys != [(full, full)]:
            failures.append({"law": label,
                             "reason": f"expected only the top pair, got {keys}"})
            continue
        c = res[(full, full)] if label == "f" else res[(full, full)].bar()
        at1 = c.eval_v(1)
        entry = {"coefficient": c.to_text(), "at_1": str(at1)}
        if at1 == 0:
            failures.append({"law": label, "reason": "top coefficient vanishes at q = 1"})
        for q0 in extra_samples:
            s = c.sign_at_sqrtq(Fraction(q0))
            entry[f"sign_at_{q0}"] = s
            if s == 0:
                failures.append({"law": label,
                                 "reason": f"top coefficient vanishes at q = {q0}"})
        details[label] = entry
    return {
        "M": M,
        "details": details,
        "failures": failures,
        "status": "verified" if not failures else "failed",
    }


def random_form(params: ExtAlgParams, a: int, b: int, rng: random.Random,
                terms: int = 3):
    """Real and imaginary parts (two real forms) of a random bidegree-
    (a, b) form with small rational coefficients, stored as Fractions:
    primitive_decompose and hodge take them at a point unevaluated."""
    M = params.M
    keys_a = list(combinations(range(1, M + 1), a))
    keys_b = list(combinations(range(1, M + 1), b))
    re, im = {}, {}
    for _ in range(terms):
        key = rng.choice(keys_a), rng.choice(keys_b)
        for part in (re, im):
            accumulate(part, key, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return re, im


def verify_hodge_shape(params: ExtAlgParams, q0=Fraction(11, 10),
                       seed: int = 0, trials: int = 4) -> dict:
    """Bidegree law (a, b) -> (M-b, M-a) on random forms, and the exact
    identity *(1) = kappa^M / M!.

    A draw is one check when either part is nonzero; its image bidegrees
    are the union over both parts, which * (complex linear) keeps at
    least as strict as those of the sum.
    """
    M = params.M
    rng = random.Random(seed)
    failures = []
    checks = 0

    star_one = hodge(params, {((), ()): 1})
    scale = Fraction(1, factorial(M))
    want = {key: c * scale for key, c in kappa_power(params, M).items()}
    checks += 1
    if star_one != want:
        failures.append({"reason": "*(1) != kappa^M / M!"})

    for a in range(M + 1):
        for b in range(M + 1):
            for _ in range(trials):
                parts = [f for f in random_form(params, a, b, rng) if f]
                if not parts:
                    continue
                checks += 1
                try:
                    images = [hodge(params, f, q0) for f in parts]
                except DecompositionSingular as exc:
                    failures.append({"a": a, "b": b, "reason": str(exc)})
                    continue
                bad = ({(len(I), len(J)) for image in images for I, J in image}
                       - {(M - b, M - a)})
                if bad:
                    failures.append({"a": a, "b": b,
                                     "reason": f"output bidegrees {sorted(bad)} != "
                                               f"{(M - b, M - a)}"})
    return {
        "M": M,
        "q0": str(Fraction(q0)),
        "checks": checks,
        "failures": failures,
        "status": "verified" if not failures else "failed",
    }
