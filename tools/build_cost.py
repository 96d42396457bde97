"""Fresh-process cost of the degree-2 rewriter build, per N.

Each measurement is one new Python process that imports qso_spectra
from a source tree, calls frt.rewriter(N) once and reports the CPU
seconds of that call and the process's peak resident set size.  With
two trees the runs alternate ABAB: each pair runs both trees, and
every other pair swaps which tree goes first, so a change of host speed
during the runs falls on both trees alike.  Run from anywhere:

    python3 tools/build_cost.py OLD_TREE NEW_TREE --n 5 6 7 --pairs 2
    python3 tools/build_cost.py .                      # one tree, N = 5..10

A tree is the root of a checkout (the directory that holds src/).  One
line is printed per tree and N: the CPU seconds and the peak RSS of
each run, in run order.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

_CHILD = """\
import resource, sys, time
sys.path.insert(0, sys.argv[1])
from qso_spectra import frt
N = int(sys.argv[2])
t0 = time.process_time()
frt.rewriter(N)
cpu = time.process_time() - t0
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(cpu, rss)
"""


def measure(tree: Path, N: int) -> tuple[float, float]:
    """(CPU seconds, peak RSS in MB) of frt.rewriter(N) in a new process
    that imports the package from tree/src."""
    out = subprocess.run(
        [sys.executable, "-B", "-c", _CHILD, str(tree / "src"), str(N)],
        check=True, capture_output=True, text=True).stdout
    cpu, rss = out.split()
    return float(cpu), float(rss)


def run(trees: list[Path], ns: list[int], pairs: int) -> dict:
    """{(tree index, N): [(cpu, rss), ...]}, the trees alternated ABAB
    within each N."""
    results = {}
    for N in ns:
        for k in range(pairs):
            order = range(len(trees)) if k % 2 == 0 else reversed(range(len(trees)))
            for t in order:
                results.setdefault((t, N), []).append(measure(trees[t], N))
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs="+", type=Path, help="one or two checkouts")
    ap.add_argument("--n", nargs="+", type=int, default=list(range(5, 11)))
    ap.add_argument("--pairs", type=int, default=2,
                    help="runs per tree and N (default 2)")
    args = ap.parse_args(argv)
    if len(args.trees) > 2:
        ap.error("give one or two trees")
    trees = [t.resolve() for t in args.trees]
    results = run(trees, args.n, args.pairs)
    for (t, N), runs in sorted(results.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        cpu = " ".join(f"{c:.2f}" for c, _ in runs)
        rss = " ".join(f"{r:.1f}" for _, r in runs)
        print(f"N={N} {trees[t]} cpu_s {cpu} peak_rss_mb {rss}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
