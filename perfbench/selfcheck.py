#!/usr/bin/env python3
"""Fast self-check of the benchmark, from the root of a checkout:

    python3 perfbench/selfcheck.py

Runs a tiny catalogue of cheap entries (drawn from the real catalogues,
so their frozen answers apply) through ``run.py``'s own code, untraced
and traced, and checks that

* every end-to-end and per-layer metric of ``BENCHMARK.json`` is printed
  with its unit, and the summary names all six end-to-end metrics;
* every request of the tiny catalogue is verified;
* a deliberately wrong expected verdict is counted as failed.

Exits 0 when all checks hold.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import sys

import checks
import run
import workloads

TINY = "selfcheck"


TINY_KEYS = (
    "verify rep --n 5",
    "fiber lefschetz --n 5 --q 1 --q 121/100 --q 9/4",
    "fiber lefschetz --n 5 --q 11/10 --q 101/100 --q 5/4",
    "fiber kappa-powers --n 5 --l 2",
    "spectrum table --n 7 --kmax 10 --lmax 10",
    "--format csv spectrum table --n 7 --kmax 12 --lmax 12",
    f"spectrum table --n 7 --params {workloads.BOUNDARY_TOKEN} --kmax 10 --lmax 10",
)


def _tiny():
    """Cheap entries of the real catalogues, each once per round."""
    entries = {e.key: e for name in list(workloads.CATALOGUES) if name != TINY
               for e in workloads.catalogue(name)}
    return [dataclasses.replace(entries[key], weight=1) for key in TINY_KEYS]


def _run(trace: int):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run.main(["--workload", TINY, "--seed", "7", "--seconds", "0",
                         "--trace", str(trace)])
    return code, json.loads(out.getvalue().strip().splitlines()[-1]), err.getvalue()


def main() -> int:
    workloads.CATALOGUES[TINY] = _tiny
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, res, summary = _run(trace)
        expect(code == 0 and res["correct"] and res["failed"] == 0,
               f"trace {trace}: {res['attempted']} requests, all verified")
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        expect(got == want, f"trace {trace}: metrics and units match "
                            f"BENCHMARK.json {key}")
        if trace == 0:
            expect(all(f"  {m} " in summary for m in run.END_TO_END_UNITS),
                   "summary prints all six end-to-end metrics")

    answers = checks.load_answers()
    wrong = "verify rep --n 5"
    answers[wrong] = dict(answers[wrong], exit=2)
    real_load = checks.load_answers
    checks.load_answers = lambda path=None: answers
    try:
        code, res, _ = _run(0)
    finally:
        checks.load_answers = real_load
    rounds = res["attempted"] // len(_tiny())
    expect(code == 0 and not res["correct"] and res["failed"] == rounds,
           f"wrong expected verdict counted: {res['failed']} failed of "
           f"{res['attempted']} (failed_ratio {res['failed'] / res['attempted']:.3f})")

    print("self-check " + ("passed" if not problems else "FAILED"))
    return 1 if problems else 0


if __name__ == "__main__":
    os.environ.pop("QSO_SPECTRA_JOBS", None)
    sys.exit(main())
