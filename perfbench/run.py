#!/usr/bin/env python3
"""Time-to-verdict benchmark of qso-spectra.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload algebra-suites --seed 1 --seconds 36 --trace 0

A single process, one client, closed loop: each request starts when the
previous one has finished.  A request is one in-process
``qso_spectra.cli.main(["--jobs", "1", "--out", FILE, ...])`` call, so
argument parsing, the library work and the report serialisation are all
inside it (the Hodge check, which has no subcommand, calls
``fiber.verify_hodge_shape`` and ``reports.to_json``).  Requests are
issued in rounds; a round is a seeded permutation of the workload's
catalogue, and the run makes the whole number of rounds closest to
``--seconds``, and at least two.  Every outcome is checked against its
known answer (``checks.py``).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs one
untraced and one traced round and prints the per-layer metrics.  The
last line of standard output is one JSON object; a readable summary,
the environment and the result file's path go to standard error.
Outputs are written under ``.perfbench/`` in the current directory.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction

import checks
import workloads
from tracing import LAYERS, Tracer

SETUP_REPEATS = 9
MAX_ROUNDS = 64
PACKAGE = "qso_spectra"

END_TO_END_UNITS = {
    "verdict_s.p50": "s",
    "verdict_s.tail": "s",
    "throughput_rps": "1/s",
    "failed_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# failed_ratio is 0 on a correct program, so it is reported through the
# result line's "failed"/"attempted" fields and the summary, not as a
# compared metric.
RESULT_METRICS = ("verdict_s.p50", "verdict_s.tail", "throughput_rps",
                  "peak_rss_mb", "setup_s")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.CATALOGUES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def source_dir() -> str:
    """``src`` of the checkout in the current directory; the benchmark
    measures that tree and refuses to run without it."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, PACKAGE, "__init__.py")):
        raise SystemExit(f"error: no {PACKAGE} source under {src}; run from "
                         "the root of a qso-spectra checkout")
    return src


class Program:
    """The imported modules a request calls into."""

    def __init__(self):
        self.root = importlib.import_module(PACKAGE)
        self.cli = importlib.import_module(PACKAGE + ".cli")
        self.fiber = importlib.import_module(PACKAGE + ".fiber")
        self.reports = importlib.import_module(PACKAGE + ".reports")


def setup(workload: str, seed: int, workdir: str):
    """Import the program (backend selection happens at import), build
    the catalogue and generate the request sequence; returns
    (seconds, program, rounds, params path)."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    program = Program()
    entries = workloads.catalogue(workload)
    rounds = workloads.request_rounds(entries, seed, MAX_ROUNDS)
    params_path = workloads.write_params_file(workdir)
    return time.perf_counter() - t0, program, rounds, params_path


def environment(program) -> dict:
    return {
        "backend": program.root.BACKEND_NAME,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


class Client:
    """Issues requests one at a time and checks each outcome."""

    def __init__(self, program, checker, params_path, out_path):
        self.program = program
        self.checker = checker
        self.params_path = params_path
        self.out_path = out_path
        self.latencies = []
        self.by_entry = {}
        self.attempted = 0
        self.failures = []

    def request(self, entry) -> float:
        """Run one request; returns its wall time in seconds."""
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        self.attempted += 1
        error = None
        t0 = time.perf_counter()
        try:
            code = self.call(entry)
        except Exception:
            error = traceback.format_exc(limit=3)
        dt = time.perf_counter() - t0
        if error is None:
            error = self.checker.check(entry, code, self.read())
        if error is None:
            self.latencies.append(dt)
            self.by_entry.setdefault(entry.key, []).append(dt)
        else:
            self.failures.append({"entry": entry.key, "reason": error})
        return dt

    def call(self, entry) -> int:
        p = self.program
        if entry.kind == "hodge":
            rep = p.fiber.verify_hodge_shape(p.fiber.ExtAlgParams(entry.m),
                                             Fraction(entry.q))
            with open(self.out_path, "w", encoding="utf-8") as fh:
                fh.write(p.reports.to_json(rep))
            return p.reports.exit_code(rep["status"])
        argv = ["--jobs", "1", "--out", self.out_path]
        argv += workloads.resolve_argv(entry, self.params_path)
        return p.cli.main(argv)

    def read(self) -> str:
        try:
            with open(self.out_path, encoding="utf-8") as fh:
                return fh.read()
        except FileNotFoundError:
            return ""


def run_rounds(client, rounds, seconds: float, min_rounds: int,
               tracer=None) -> tuple:
    """At least ``min_rounds`` whole rounds, then more until the next one
    would end further past the deadline than stopping now leaves before
    it; returns (rounds made, summed request time)."""
    busy = 0.0
    made = 0
    start = time.perf_counter()
    for order in rounds:
        t_round = time.perf_counter()
        for i, entry in enumerate(order):
            if tracer is not None:
                tracer.request_id = f"{made}:{i}:{entry.key}"
            busy += client.request(entry)
        made += 1
        now = time.perf_counter()
        if made >= min_rounds and now - start + (now - t_round) / 2 > seconds:
            break
    return made, busy


def percentile(values, p: int) -> float:
    ordered = sorted(values)
    return ordered[workloads.nearest_rank(p, len(ordered)) - 1]


def end_to_end(client, busy, setup_s, tail_p) -> dict:
    lat = client.latencies
    return {
        "verdict_s.p50": statistics.median(lat) if lat else 0.0,
        "verdict_s.tail": percentile(lat, tail_p) if lat else 0.0,
        "throughput_rps": len(lat) / busy if busy else 0.0,
        "failed_ratio": len(client.failures) / client.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def per_layer(tracer, traced_rps, untraced_rps, requests):
    """Per-layer metrics of one traced round: {name: (value, unit, base)}."""
    def calls(name):
        return tracer.stat(name)[0]

    def busy(name):
        return tracer.stat(name)[1]

    per_round = f"per traced round of {requests} requests"
    out = {}
    for name in ("frt.build_rewriter", "frt.normal_form", "frt.complete_rewriter"):
        out[name + ".calls"] = (calls(name), "count", per_round)
        out[name + ".busy_s"] = (busy(name), "s", per_round)
    out["frt.rewriter_build.useful_ratio"] = (
        tracer.first_builds / tracer.builds if tracer.builds else 0.0, "ratio",
        f"{tracer.first_builds} first-time builds per N over {tracer.builds} builds")
    out["ncpoly.mul.calls"] = (calls("ncpoly.mul"), "count", per_round)
    out["ncpoly.mul.busy_s"] = (busy("ncpoly.mul"), "s", per_round)
    out["actions.vector_rep.calls"] = (calls("actions.vector_rep"), "count", per_round)
    out["actions.act.calls"] = (calls("actions.act"), "count", per_round)
    out["actions.act.busy_s"] = (busy("actions.act"), "s", per_round)
    out["field.lp_mul.calls"] = (calls("field.lp_mul"), "count", per_round)
    out["field.plist_gcd.calls"] = (calls("field.plist_gcd"), "count", per_round)
    out["field.rf_norm.calls"] = (calls("field.rf_norm"), "count", per_round)
    out["field.rf_norm.busy_s"] = (busy("field.rf_norm"), "s", per_round)
    out["field.gcd.useful_ratio"] = (
        tracer.gcds_useful / tracer.gcds if tracer.gcds else 0.0, "ratio",
        f"{tracer.gcds_useful} gcds that cancel a factor over {tracer.gcds} gcds")
    out["field.eval.calls"] = (calls("field.eval"), "count", per_round)
    out["quadext.mul.calls"] = (calls("quadext.mul"), "count", per_round)
    out["quadext.inverse.calls"] = (calls("quadext.inverse"), "count", per_round)
    out["fiber.echelon.calls"] = (calls("fiber.echelon"), "count", per_round)
    out["fiber.echelon.busy_s"] = (busy("fiber.echelon"), "s", per_round)
    out["fiber.echelon.cells"] = (tracer.echelon_cells, "count",
                                  "rows x columns entering elimination, computed, " + per_round)
    out["fiber.lefschetz_table.busy_s"] = (busy("fiber.lefschetz_table"), "s", per_round)
    out["fiber.straighten.calls"] = (calls("fiber.straighten"), "count", per_round)
    out["spectrum.eigen_evals"] = (tracer.eigen_evals, "count",
                                   "lambda(k, l) evaluations, " + per_round)
    out["spectrum.value_bits.max"] = (tracer.value_bits_max, "bits",
                                      "numerator + denominator bit length, computed")
    out["spectrum.check_divergence.busy_s"] = (busy("spectrum.check_divergence"), "s", per_round)
    out["spectrum.spectrum_table.busy_s"] = (busy("spectrum.spectrum_table"), "s", per_round)
    out["cartan.weyl_dim.calls"] = (calls("cartan.weyl_dim"), "count", per_round)
    out["cartan.weyl_dim.busy_s"] = (busy("cartan.weyl_dim"), "s", per_round)
    out["reports.to_json.busy_s"] = (busy("reports.to_json"), "s", per_round)
    out["reports.bytes_out"] = (tracer.bytes_out, "bytes",
                                "report text serialised, " + per_round)
    out["cli.busy_s"] = (tracer.stat("cli.main")[2], "s", "self time, " + per_round)
    for layer in LAYERS[1:]:
        out[layer + ".self_s"] = (tracer.layer_self(layer), "s",
                                  "self time of wrapped functions, " + per_round)
    out["trace.overhead_rps"] = (traced_rps - untraced_rps, "1/s",
                                 f"traced {traced_rps:.4f} minus untraced "
                                 f"{untraced_rps:.4f} requests per second")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, source_dir())
    os.environ.pop("QSO_SPECTRA_JOBS", None)
    workdir = os.path.join(os.getcwd(), ".perfbench")
    os.makedirs(os.path.join(workdir, "results"), exist_ok=True)

    times = []
    for _ in range(SETUP_REPEATS):
        dt, program, rounds, params_path = setup(
            args.workload, args.seed, workdir)
        times.append(dt)
    setup_s = statistics.median(times)
    env = environment(program)
    round_size = len(rounds[0])
    tail_p = workloads.tail_percentile(workloads.MIN_ROUNDS * round_size)
    checker = checks.Checker(checks.load_answers())
    client = Client(program, checker, params_path,
                    os.path.join(workdir, f"out-{args.workload}.txt"))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "round_size": round_size}

    if args.trace:
        _, busy = run_rounds(client, rounds[:1], 0, 1)
        untraced_rps = round_size / busy
        tracer = Tracer(PACKAGE)
        tracer.install()
        try:
            _, busy = run_rounds(client, rounds[:1], 0, 1, tracer)
        finally:
            tracer.uninstall()
        layers = per_layer(tracer, round_size / busy, untraced_rps, round_size)
        spans_path = os.path.join(workdir, "results", tag + ".spans.jsonl")
        tracer.write_spans(spans_path)
        table_path = os.path.join(workdir, "results", tag + ".layers.tsv")
        with open(table_path, "w", encoding="utf-8") as fh:
            fh.write("metric\tvalue\tunit\tbase\n")
            for name, (value, unit, base) in layers.items():
                fh.write(f"{name}\t{value}\t{unit}\t{base}\n")
        metrics = {k: {"value": v[0], "unit": v[1]} for k, v in layers.items()}
        result.update(rounds=2, spans=spans_path, layer_table=table_path,
                      span_count=len(tracer.spans))
    else:
        made, busy = run_rounds(client, rounds, args.seconds,
                                 workloads.MIN_ROUNDS)
        e2e = end_to_end(client, busy, setup_s, tail_p)
        result.update(rounds=made, tail_percentile=tail_p,
                      samples=len(client.latencies),
                      samples_beyond_tail=len(client.latencies)
                      - workloads.nearest_rank(tail_p, len(client.latencies))
                      if client.latencies else 0,
                      end_to_end={k: {"value": v, "unit": END_TO_END_UNITS[k]}
                                  for k, v in e2e.items()})
        metrics = {k: {"value": e2e[k], "unit": END_TO_END_UNITS[k]}
                   for k in RESULT_METRICS}

    result["entry_latencies_s"] = dict(sorted(client.by_entry.items()))
    result.update(attempted=client.attempted, failed=len(client.failures),
                  failures=client.failures[:20], metrics=metrics)
    result_path = os.path.join(workdir, "results", tag + ".json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    summarize(result, result_path)
    print(json.dumps({"correct": not client.failures,
                      "attempted": client.attempted,
                      "failed": len(client.failures),
                      "metrics": metrics}), flush=True)
    return 0


def summarize(result, path) -> None:
    err = sys.stderr
    env = result["environment"]
    err.write(f"{result['workload']} seed {result['seed']} trace {result['trace']}: "
              f"backend {env['backend']}, Python {env['python']}, "
              f"nproc {env['nproc']}; {result['rounds']} round(s) of "
              f"{result['round_size']} requests\n")
    rows = result.get("end_to_end", result["metrics"])
    for name, m in rows.items():
        err.write(f"  {name:<36} {m['value']:>14.6g} {m['unit']}\n")
    if "tail_percentile" in result:
        err.write(f"  verdict_s.tail is p{result['tail_percentile']} of "
                  f"{result['samples']} samples "
                  f"({result['samples_beyond_tail']} beyond it)\n")
    for f in result["failures"]:
        err.write(f"  FAILED {f['entry']}: {f['reason'].strip()}\n")
    err.write(f"  result file: {path}\n")


if __name__ == "__main__":
    sys.exit(main())
