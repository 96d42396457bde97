"""Request catalogues of the three benchmark workloads and the seeded
request sequence drawn from them.

A catalogue is fixed: every entry has a frozen known answer in
``answers.json``.  The seed only sets the order in which the entries are
issued inside each round, so two seeds do the same work in a different
order (and with a different pattern of reuse between neighbouring
requests).  A round issues every entry ``weight`` times; cheap entries
carry weights above 1 so that a run holds enough requests for a tail
percentile with at least ten samples beyond it, and so that the median
and the tail fall inside groups of like requests, away from their lower
edge: on a host whose speed switches between a fast and a slow phase,
an order statistic in the middle of a group jumps between the two.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

# Boundary theta at q = 11/10: theta = -(1 - q^-2) mu_y with mu_y = 1.
BOUNDARY_PARAMS = {"theta": "-21/121", "mu_y": "1"}
BOUNDARY_TOKEN = "@boundary"

# Every run makes at least this many rounds.
MIN_ROUNDS = 2

RATIONAL_SQUARES = ("1", "121/100", "9/4")
QUADRATIC_IRRATIONALS = ("11/10", "101/100", "5/4")


@dataclass(frozen=True)
class Entry:
    """One catalogue entry.

    ``kind`` is ``cli`` (argv for ``qso_spectra.cli.main`` after the
    global ``--jobs``/``--out`` flags) or ``hodge`` (a direct
    ``fiber.verify_hodge_shape`` call at fiber rank ``m`` and point ``q``).
    ``oracle`` names the independent check in ``checks.py``.
    """

    key: str
    kind: str
    argv: tuple = ()
    m: int = 0
    q: str = ""
    oracle: str = ""
    weight: int = 1


def cli_entry(argv: str, oracle: str = "", weight: int = 1) -> Entry:
    return Entry(key=argv, kind="cli", argv=tuple(argv.split()),
                 oracle=oracle, weight=weight)


def _algebra_suites():
    # Five copies of each N = 5 suite put the median in the upper part of
    # that group, and three of covariance at N = 5 do the same for the
    # tail.  Covariance at N = 7 costs about 6 s, beyond the 0.03-5 s
    # band this workload covers; N = 5, 6 exercise the same code.
    out = []
    for n in (5, 6, 7):
        w = {5: 5, 6: 2, 7: 1}[n]
        out.append(cli_entry(f"verify rels --n {n}", weight=w))
        out.append(cli_entry(f"verify rep --n {n}"))
        out.append(cli_entry(f"verify spherical --n {n}", weight=w))
        out.append(cli_entry(f"verify orbit --n {n}", weight=w))
    out.append(cli_entry("verify covariance --n 5", weight=3))
    out.append(cli_entry("verify covariance --n 6"))
    return out


def _fiber_rank():
    squares = " ".join(f"--q {q}" for q in RATIONAL_SQUARES)
    irrationals = " ".join(f"--q {q}" for q in QUADRATIC_IRRATIONALS)
    # The three-point rational-square request at M = 4 carries the
    # median: with ten copies the median falls in the upper part of that
    # group, not on its edge, and measures the Fraction path with the
    # symbolic Lefschetz table build.  The single-point
    # quadratic-irrational requests above it carry the tail.
    out = [
        cli_entry(f"fiber lefschetz --n 5 {squares}", "lefschetz"),
        cli_entry(f"fiber lefschetz --n 5 {irrationals}", "lefschetz"),
        cli_entry(f"fiber lefschetz --n 6 {squares}", "lefschetz", weight=10),
    ]
    for q in QUADRATIC_IRRATIONALS:
        out.append(cli_entry(f"fiber lefschetz --n 6 --q {q}", "lefschetz", weight=3))
    # One point of each kind at M = 5: the quadratic irrational costs
    # about ten times its rational-square counterpart.
    out.append(cli_entry("fiber lefschetz --n 7 --q 1", "lefschetz"))
    out.append(cli_entry("fiber lefschetz --n 7 --q 11/10", "lefschetz"))
    for n, l in ((5, 2), (6, 4), (7, 5)):
        out.append(cli_entry(f"fiber kappa-powers --n {n} --l {l}"))
        out.append(cli_entry(f"fiber nonprimitive --n {n}"))
    out.append(Entry(key="hodge --m 3 --q 121/100", kind="hodge", m=3,
                     q="121/100", oracle="hodge"))
    return out


def _spectrum_shells():
    out = []
    # Eight copies of the N = 12, kmax = 10 table put the median in the
    # upper part of that group rather than in its middle, where it would
    # jump between the host's fast and slow phases.
    for n, k, w in ((7, 10, 1), (7, 15, 1), (7, 20, 1), (12, 10, 8),
                    (12, 15, 1), (20, 10, 1)):
        out.append(cli_entry(f"spectrum table --n {n} --kmax {k} --lmax {k}",
                             "table", weight=w))
    # The README's CSV example, with the global flag placed first.
    out.append(cli_entry("--format csv spectrum table --n 7 --kmax 12 --lmax 12"))
    for n, s, b in ((7, 150, 300), (12, 150, 100), (20, 150, 100),
                    (7, 200, 100)):
        out.append(cli_entry(f"spectrum diverge --n {n} --shell-max {s} --bound {b}",
                             "diverge"))
    out.append(cli_entry(f"spectrum table --n 7 --params {BOUNDARY_TOKEN} "
                         f"--kmax 10 --lmax 10", "table"))
    for n, b in ((7, 100), (20, 100), (12, 1000)):
        out.append(cli_entry(f"spectrum diverge --n {n} --params {BOUNDARY_TOKEN} "
                             f"--shell-max 150 --bound {b}", "boundary"))
    return out


CATALOGUES = {
    "algebra-suites": _algebra_suites,
    "fiber-rank": _fiber_rank,
    "spectrum-shells": _spectrum_shells,
}


def catalogue(workload: str) -> list:
    return CATALOGUES[workload]()


def round_entries(entries) -> list:
    """One round: every entry repeated ``weight`` times, catalogue order."""
    return [e for e in entries for _ in range(e.weight)]


def tail_percentile(samples: int) -> int:
    """Highest integer percentile with at least ten of ``samples`` beyond
    it.  Called with the request count of the shortest run (MIN_ROUNDS
    rounds), the percentile is a property of the workload and never of
    the program's speed."""
    p = 99
    while p > 1 and samples - nearest_rank(p, samples) < 10:
        p -= 1
    return p


def nearest_rank(p: int, n: int) -> int:
    """1-based rank of the nearest-rank p-th percentile of n samples."""
    return max(1, -(-p * n // 100))


def request_rounds(entries, seed: int, rounds: int) -> list:
    """``rounds`` seeded permutations of one round's requests."""
    rng = random.Random(seed)
    base = round_entries(entries)
    out = []
    for _ in range(rounds):
        order = list(base)
        rng.shuffle(order)
        out.append(order)
    return out


def write_params_file(workdir: str) -> str:
    path = os.path.join(workdir, "boundary-theta.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(BOUNDARY_PARAMS, fh)
    return path


def resolve_argv(entry: Entry, params_path: str) -> list:
    return [params_path if a == BOUNDARY_TOKEN else a for a in entry.argv]


def spectral_constants(entry: Entry) -> dict:
    """Laplacian constants (as Fractions) a spectrum entry runs with."""
    argv = list(entry.argv)
    consts = {"theta": Fraction(0), "theta1": Fraction(1), "theta2": Fraction(0),
              "theta3": Fraction(1), "mu_y": Fraction(1), "mu_z": Fraction(1),
              "q": Fraction(11, 10)}
    if BOUNDARY_TOKEN in argv:
        consts.update({k: Fraction(v) for k, v in BOUNDARY_PARAMS.items()})
    if "--q" in argv:
        consts["q"] = Fraction(argv[argv.index("--q") + 1])
    return consts


def flag(entry: Entry, name: str) -> str:
    argv = list(entry.argv)
    return argv[argv.index(name) + 1]
