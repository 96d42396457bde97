"""Known answers for catalogue entries.

Each request is checked twice: its exit code and report digest must
match the frozen answer in ``answers.json`` (recorded from the seed
program), and entries that carry an ``oracle`` are also checked by an
independent computation written here, which does not import the
program.  An expected negative verdict (``BoundNotCleared`` on the
boundary-theta lane) is a success.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction
from math import comb

import workloads

ANSWERS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "answers.json")

# m0 is recomputed in closed form only for shells up to this size.
ORACLE_SHELL_MAX = 150


def load_answers(path: str = ANSWERS_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def digest(text: str) -> str:
    """SHA-256 of the canonical report: JSON re-serialised with sorted
    keys and every ``millis`` timing field dropped; CSV as written."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        canon = text
    else:
        canon = json.dumps(_strip_millis(obj), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _strip_millis(obj):
    if isinstance(obj, dict):
        return {k: _strip_millis(v) for k, v in obj.items() if k != "millis"}
    if isinstance(obj, list):
        return [_strip_millis(v) for v in obj]
    return obj


class Checker:
    """Compares outcomes with the frozen answers and the oracles.

    Oracle verdicts depend only on the entry, so each is computed once
    per process and reused when the entry repeats.
    """

    def __init__(self, answers: dict):
        self.answers = answers
        self._oracle_cache = {}

    def check(self, entry, exit_code: int, text: str) -> str | None:
        """None when the outcome is the known answer, else the reason."""
        want = self.answers.get(entry.key)
        if want is None:
            return "no frozen answer for this entry"
        if exit_code != want["exit"]:
            return f"exit {exit_code}, expected {want['exit']}"
        if digest(text) != want["digest"]:
            return "report digest differs from the frozen answer"
        if entry.oracle:
            return ORACLES[entry.oracle](self, entry, text)
        return None

    def cached(self, key, fn):
        if key not in self._oracle_cache:
            self._oracle_cache[key] = fn()
        return self._oracle_cache[key]


def _lefschetz(checker, entry, text):
    rep = json.loads(text)
    M = int(workloads.flag(entry, "--n")) - 2
    if rep.get("status") != "verified" or rep.get("M") != M:
        return "Lefschetz report is not a verified rank-M certificate"
    for run in rep["runs"]:
        degrees = run["degrees"]
        if [d["k"] for d in degrees] != list(range(M)):
            return f"Lefschetz degrees {[d['k'] for d in degrees]} != 0..{M - 1}"
        for d in degrees:
            dim = comb(2 * M, d["k"])
            if not d["dim"] == d["rank"] == dim or d["status"] != "bijective":
                return f"degree {d['k']}: dim {d['dim']} rank {d['rank']}, want {dim}"
    return None


def _hodge(checker, entry, text):
    rep = json.loads(text)
    if rep.get("status") != "verified" or rep.get("failures") \
            or rep.get("M") != entry.m:
        return "Hodge shape check did not verify"
    return None


def _table(checker, entry, text):
    rep = json.loads(text)
    c = workloads.spectral_constants(entry)
    values = {(r["k"], r["l"]): Fraction(r["value"]) for r in rep["records"]}
    kmax = int(workloads.flag(entry, "--kmax"))
    lmax = int(workloads.flag(entry, "--lmax"))
    if len(values) != (kmax + 1) * (lmax + 1):
        return "spectrum table is missing records"
    for kl, want in (((0, 0), 0), ((1, 0), c["mu_y"]), ((0, 1), c["mu_z"])):
        if values[kl] != want:
            return f"lambda{kl} = {values[kl]}, expected {want}"
    for kl in ((kmax, lmax), (kmax, 0), (0, lmax)):
        if values[kl] != eigenvalue(*kl, c):
            return f"lambda{kl} differs from the closed form"
    return None


def _diverge(checker, entry, text):
    rep = json.loads(text)
    c = workloads.spectral_constants(entry)
    minima = rep["shell_minima"]
    if Fraction(minima[0]) != 0 or Fraction(minima[1]) != min(c["mu_y"], c["mu_z"]):
        return "shell minima 0 and 1 are not 0 and min(mu_y, mu_z)"
    shell_max = int(workloads.flag(entry, "--shell-max"))
    if shell_max <= ORACLE_SHELL_MAX:
        bound = Fraction(workloads.flag(entry, "--bound"))
        key = (tuple(sorted(c.items())), shell_max, bound)
        m0 = checker.cached(key, lambda: least_cleared_shell(c, shell_max, bound))
        if rep["m0"] != m0:
            return f"m0 = {rep['m0']}, closed form gives {m0}"
    return None


def _boundary(checker, entry, text):
    rep = json.loads(text)
    if rep.get("status") != "failed" or "never exceed" not in rep.get("error", ""):
        return "boundary-theta lane did not report BoundNotCleared"
    if rep["validation"].get("boundary_theta") is not True:
        return "boundary theta was not recognised"
    return None


ORACLES = {
    "lefschetz": _lefschetz,
    "hodge": _hodge,
    "table": _table,
    "diverge": _diverge,
    "boundary": _boundary,
}


def _qint(m: int, t: Fraction) -> Fraction:
    """(m)_t = (t^m - 1) / (t - 1) in closed form; 0 for m <= 0."""
    return (t ** m - 1) / (t - 1) if m > 0 else Fraction(0)


def eigenvalue(k: int, l: int, c: dict) -> Fraction:
    """lambda(k, l) of the zero-form Laplacian, evaluated directly."""
    q2 = c["q"] * c["q"]
    iq2 = 1 / q2
    return (c["theta"] * _qint(k, q2) * _qint(k - 1, iq2)
            + _qint(k, q2) * c["mu_y"]
            + _qint(l, q2) * _qint(k, q2) * c["theta1"]
            + _qint(l, iq2) * _qint(k, iq2) * c["theta2"]
            + _qint(l, iq2) * c["mu_z"]
            + _qint(l, iq2) * _qint(l - 1, q2) * c["theta3"])


def least_cleared_shell(c: dict, shell_max: int, bound: Fraction):
    """Least m such that every shell minimum from m to shell_max exceeds
    the bound, or None when the last shell does not."""
    m0 = None
    for m in range(shell_max, -1, -1):
        if min(eigenvalue(m - l, l, c) for l in range(m + 1)) <= bound:
            break
        m0 = m
    return m0
