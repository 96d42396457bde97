"""Free noncommutative polynomials over FieldElem.

A generator label is a pair (i, j) for u^i_j with 1 <= i, j <= N; a word
is a tuple of labels.  The monomial order is degree-lexicographic:
shorter words first, equal lengths compared letter by letter with
(i, j) < (k, l) lexicographically.

A sparse row is a dict {key: scalar} with no zero values; ncpoly, frt,
actions and fiber add into one only through accumulate, and apply a
linear map {key: image row} to one only through apply.  The one exact
elimination step on sparse rows lives here too: reduce_lead and
insert_pivot, shared by the rewriter's exact pass (frt) and, through
Span, by the z-coordinate solver (actions) and every fiber rank, kernel
and solve (fiber).  So does the one elimination step mod a prime,
independent_mod, which chooses the rewriter's rows (frt) and gives the
fiber's ranks mod p.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .errors import AlphabetMismatch, IndexOutOfRange
from .field import ONE, FieldElem

Word = tuple


@cache
def letter(i: int, j: int) -> Word:
    """The one-letter word u^i_j, one object per (i, j) in a process, and
    with it one object per label (i, j)."""
    return ((i, j),)


def word_key(w: Word):
    """Sort key realizing the deglex order."""
    return len(w), w


def accumulate(row: dict, key, c) -> None:
    """row[key] += c, dropping the key when the sum is 0."""
    s = row.get(key)
    s = c if s is None else s + c
    if s:
        row[key] = s
    else:
        row.pop(key, None)


def apply(m: dict, vec: dict) -> dict:
    """The linear map m, {key: image row}, applied to the sparse row vec;
    a key that m does not hold maps to 0.  Sums are filtered once at the
    end rather than per term: this is the fiber's hottest loop."""
    out = {}
    for key, c in vec.items():
        for t, x in m.get(key, {}).items():
            acc = out.get(t)
            out[t] = c * x if acc is None else acc + c * x
    return {t: c for t, c in out.items() if c}


def reduce_lead(row: dict, pivots: dict, comb=None, combs=None):
    """Subtract pivot rows from row, in place, until its deglex-leading
    key has no pivot; return that key, or None when row reduces to 0.

    pivots maps a lead to its tail with the leading coefficient
    normalized out.  Given comb, the same multiples of combs[lead] are
    subtracted from it, which tracks the combination of original rows
    that row has become."""
    while row:
        lead = max(row, key=word_key)
        prow = pivots.get(lead)
        if prow is None:
            return lead
        c = -row.pop(lead)
        for w, pc in prow.items():
            accumulate(row, w, c * pc)
        if comb is not None:
            for k, pc in combs[lead].items():
                accumulate(comb, k, c * pc)
    return None


def insert_pivot(row: dict, pivots: dict, comb=None, combs=None, shared=None):
    """Reduce row in place (reduce_lead) and store what is left as the
    pivot of its lead, the lead coefficient divided out through
    Fraction(1) / c so integer rows stay exact; given comb, store it the
    same way as combs[lead].  Given shared, an intern table {c: c}, every
    stored coefficient goes through it, so equal ones are one object.
    Returns the lead, or None when row reduces to 0 (comb is then a
    vanishing combination)."""
    lead = reduce_lead(row, pivots, comb, combs)
    if lead is not None:
        inv = Fraction(1) / row.pop(lead)
        pivots[lead] = _scaled(row, inv, shared)
        if comb is not None:
            combs[lead] = _scaled(comb, inv, shared)
    return lead


def _scaled(row: dict, inv, shared) -> dict:
    if shared is None:
        return {w: c * inv for w, c in row.items()}
    out = {}
    for w, c in row.items():
        c = c * inv
        out[w] = shared.setdefault(c, c)
    return out


# The prime of every elimination mod p
PRIME = 2 ** 61 - 1


def independent_mod(rows, p: int) -> list:
    """The positions, in input order, of the sparse rows of residues mod
    the prime p ({key: residue in 1..p-1}, keys mutually comparable)
    that are independent over F_p of the rows before them; there are as
    many as the rank mod p.  Elimination on the largest key; a pivot
    with an empty tail needs no inverse.  The rows are left as they are,
    and rows may be any iterable: only the pivots are held."""
    pivots = {}
    kept = []
    for pos, row in enumerate(rows):
        row = dict(row)
        while row:
            lead = max(row)
            c = row.pop(lead)
            prow = pivots.get(lead)
            if prow is None:
                if row:
                    inv = pow(c, -1, p)
                    row = {k: x * inv % p for k, x in row.items()}
                pivots[lead] = row
                kept.append(pos)
                break
            for k, pc in prow.items():
                x = (row.get(k, 0) - c * pc) % p
                if x:
                    row[k] = x
                else:
                    row.pop(k, None)
    return kept


class Span:
    """The span of sparse rows added under labels, as pivots in
    reduce_lead's layout; combs[lead] is the combination of labelled
    rows that a pivot stands for.  Given shared, an intern table, the
    stored coefficients go through it (insert_pivot)."""

    __slots__ = ("pivots", "combs", "shared")

    def __init__(self, shared=None):
        self.pivots, self.combs, self.shared = {}, {}, shared

    def add(self, row: dict, label):
        """Add row under label.  Returns None when it is independent of
        the rows added before, else the dependency {label: coeff}, row's
        own label at 1, whose combination of added rows is 0."""
        comb = {label: 1}
        if insert_pivot(dict(row), self.pivots, comb, self.combs,
                        self.shared) is None:
            return comb
        return None

    def express(self, row: dict):
        """{label: coeff} whose combination of the added rows is row, or
        None when row is outside the span."""
        comb = {}
        if reduce_lead(dict(row), self.pivots, comb, self.combs) is not None:
            return None
        # comb holds what was subtracted from row, so row is its negative
        return {k: -c for k, c in comb.items()}


class NCPoly:
    """Finite FieldElem-linear combination of words."""

    __slots__ = ("N", "terms")

    def __init__(self, N: int, terms=None):
        self.N = N
        self.terms = {}
        if terms:
            for w, c in terms.items():
                if c:
                    self.terms[w] = c

    # -- constructors ------------------------------------------------
    @classmethod
    def gen(cls, N: int, i: int, j: int) -> "NCPoly":
        if not (1 <= i <= N and 1 <= j <= N):
            raise IndexOutOfRange(f"u^{i}_{j} outside 1..{N}")
        return cls(N, {letter(i, j): ONE})

    # -- helpers -----------------------------------------------------
    def _check(self, other: "NCPoly"):
        if self.N != other.N:
            raise AlphabetMismatch(f"N = {self.N} vs N = {other.N}")

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def degree(self) -> int:
        """Maximal word length (-1 for the zero polynomial)."""
        return max((len(w) for w in self.terms), default=-1)

    # -- arithmetic --------------------------------------------------
    def __add__(self, other: "NCPoly") -> "NCPoly":
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            accumulate(out, w, c)
        p = NCPoly(self.N)
        p.terms = out
        return p

    def __neg__(self) -> "NCPoly":
        p = NCPoly(self.N)
        p.terms = {w: -c for w, c in self.terms.items()}
        return p

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + (-other)

    def scale(self, c: FieldElem) -> "NCPoly":
        if not c:
            return NCPoly(self.N)
        p = NCPoly(self.N)
        p.terms = {w: co * c for w, co in self.terms.items()}
        return p

    def __mul__(self, other: "NCPoly") -> "NCPoly":
        self._check(other)
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                accumulate(out, w1 + w2, c1 * c2)
        p = NCPoly(self.N)
        p.terms = out
        return p

    def __eq__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.N == other.N and (self - other).is_zero()

    def __hash__(self):
        return hash((self.N, frozenset(self.terms)))

    # -- formatting --------------------------------------------------
    @staticmethod
    def _fmt_word(w: Word) -> str:
        if not w:
            return "1"
        return " ".join(f"u[{i},{j}]" for i, j in w)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms, key=word_key):
            parts.append(f"({self.terms[w]})*{self._fmt_word(w)}")
        return " + ".join(parts)

    def __repr__(self):
        return f"NCPoly({self})"

