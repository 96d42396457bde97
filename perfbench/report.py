#!/usr/bin/env python3
"""Run every workload and print one row per workload, or compare two
sets of result files.

    python3 perfbench/report.py run [--seed 1] [--seconds 36] [--trace 0|1]
    python3 perfbench/report.py compare BASE_DIR NEW_DIR

``run`` starts ``perfbench/run.py`` once per workload, one after the
other, and prints the six end-to-end metrics by name and unit (or, with
``--trace 1``, the per-layer table with one column per workload).
``compare`` reads the untraced result files (``*-trace0.json``) in two
directories, for example two copies of ``.perfbench/results``, and
prints each side's median per workload and metric.  It refuses to
compare runs made on different kernel backends.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads
from run import END_TO_END_UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
E2E = tuple(END_TO_END_UNITS)


def run_all(args) -> int:
    results = {}
    for name in workloads.CATALOGUES:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode:
            print(f"{name}: run.py exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        path = os.path.join(".perfbench", "results",
                            f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, encoding="utf-8") as fh:
            results[name] = json.load(fh)
    first = next(iter(results.values()))["environment"]
    print(f"backend {first['backend']}, Python {first['python']}, "
          f"nproc {first['nproc']}, seed {args.seed}")
    if args.trace:
        print_layers(results)
    else:
        print_end_to_end(results)
    return 0


def print_end_to_end(results) -> None:
    units = next(iter(results.values()))["end_to_end"]
    head = "".join(f"{m + ' [' + units[m]['unit'] + ']':>24}" for m in E2E)
    print(f"{'workload':<16}{head}  tail")
    for name, r in results.items():
        row = "".join(f"{r['end_to_end'][m]['value']:>24.6g}" for m in E2E)
        print(f"{name:<16}{row}  p{r['tail_percentile']} of {r['samples']} samples")


def print_layers(results) -> None:
    names = list(results)
    tables = {}
    for name, r in results.items():
        with open(r["layer_table"], encoding="utf-8") as fh:
            rows = [line.rstrip("\n").split("\t") for line in fh][1:]
        tables[name] = {row[0]: row for row in rows}
    first = tables[names[0]]
    print(f"{'metric':<36}{'unit':<7}" + "".join(f"{n:>18}" for n in names))
    for metric, row in first.items():
        vals = "".join(f"{float(tables[n][metric][1]):>18.6g}" for n in names)
        print(f"{metric:<36}{row[2]:<7}{vals}")
    print("bases:")
    for metric, row in first.items():
        bases = {tables[n][metric][3] for n in names}
        if len(bases) == 1:
            print(f"  {metric}: {row[3]}")
        else:
            print(f"  {metric}: " + "; ".join(
                f"{n}: {tables[n][metric][3]}" for n in names))


def load_dir(path) -> list:
    out = []
    for fname in sorted(os.listdir(path)):
        if fname.endswith("-trace0.json"):
            with open(os.path.join(path, fname), encoding="utf-8") as fh:
                out.append(json.load(fh))
    return out


def compare(args) -> int:
    base, new = load_dir(args.base), load_dir(args.new)
    backends = {r["environment"]["backend"] for r in base + new}
    if len(backends) > 1:
        print(f"refusing to compare runs across backends {sorted(backends)}",
              file=sys.stderr)
        return 2
    for key in ("python", "nproc"):
        seen = {str(r["environment"][key]) for r in base + new}
        if len(seen) > 1:
            print(f"warning: runs differ in {key}: {sorted(seen)}", file=sys.stderr)
    print(f"{'workload':<16}{'metric':<18}{'base median':>14}{'new median':>14}"
          f"{'change':>9}  runs")
    for name in workloads.CATALOGUES:
        b = [r for r in base if r["workload"] == name]
        n = [r for r in new if r["workload"] == name]
        if not b or not n:
            continue
        for m in E2E:
            bv = statistics.median(r["end_to_end"][m]["value"] for r in b)
            nv = statistics.median(r["end_to_end"][m]["value"] for r in n)
            change = f"{(nv - bv) / bv:+.1%}" if bv else "n/a"
            print(f"{name:<16}{m:<18}{bv:>14.6g}{nv:>14.6g}{change:>9}  "
                  f"{len(b)}/{len(n)}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=36)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("new")
    args = ap.parse_args()
    return run_all(args) if args.cmd == "run" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
