#!/usr/bin/env python3
"""Record the known answers in ``answers.json``: for every catalogue
entry of every workload, its exit code and report digest.

Run from the root of a checkout whose outputs are trusted, and only when
a report format changes on purpose:

    python3 perfbench/freeze.py

Each entry that carries an independent oracle must pass it before its
answer is recorded, so a wrong program cannot freeze a wrong answer for
those entries.
"""

from __future__ import annotations

import json
import os
import sys

import checks
import run
import workloads


def main() -> int:
    sys.path.insert(0, run.source_dir())
    workdir = os.path.join(os.getcwd(), ".perfbench")
    os.makedirs(workdir, exist_ok=True)
    program = run.Program()
    params_path = workloads.write_params_file(workdir)
    client = run.Client(program, None, params_path,
                        os.path.join(workdir, "out-freeze.txt"))
    oracle = checks.Checker({})
    answers = {}
    bad = 0
    for name in sorted(workloads.CATALOGUES):
        for entry in workloads.catalogue(name):
            code = client.call(entry)
            text = client.read()
            answers[entry.key] = {"exit": code, "digest": checks.digest(text)}
            reason = checks.ORACLES[entry.oracle](oracle, entry, text) \
                if entry.oracle else None
            status = "ok" if reason is None else f"ORACLE FAILED: {reason}"
            bad += reason is not None
            print(f"{name:<16} exit {code}  {entry.key}  {status}", file=sys.stderr)
    if bad:
        print(f"{bad} oracle failure(s); answers.json left unchanged", file=sys.stderr)
        return 1
    with open(checks.ANSWERS_PATH, "w", encoding="utf-8") as fh:
        json.dump(answers, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
