"""Command-line driver.

Subcommands expose the verification suites and table generators with
machine-readable output (JSON by default, CSV for the tabular
commands).  Each command returns its report, and main reads the exit
code from the report's "status": 0 every check verified, 1 at least
one inconclusive result, 2 a definite failure.  Invalid input exits 2
with a message and no report.  All rationals are exact "p/q" strings;
output is deterministic for a fixed configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache

from . import actions, fiber, frt, reports, spectrum
from .cartan import cartan_data
from .errors import BoundNotCleared, QsoError


# input keeps Python's default digit limit while main lifts it
_MAX_DIGITS = sys.int_info.default_max_str_digits


def _exact(text: str) -> Fraction:
    """text as a Fraction; ValueError, before any big number is built,
    beyond _MAX_DIGITS digits written out or in the exponent."""
    exp = text.lower().partition("e")[2]
    try:
        if sum(map(str.isdigit, text)) <= _MAX_DIGITS \
                and abs(int(exp or 0)) <= _MAX_DIGITS:
            return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not an exact rational: {text!r}") from None
    raise ValueError(f"longer than {_MAX_DIGITS} digits")


def _fraction(text: str) -> Fraction:
    try:
        return _exact(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _positive_fraction(text: str) -> Fraction:
    value = _fraction(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"q must be a positive rational: {text!r}")
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer: {text!r}")
    return value


# the global flags, all of which take a value; they come before the subcommand
_GLOBAL_FLAGS = ("--out", "--format", "--jobs", "--config")


def _unknown_global_flag(argv):
    """The first flag before the subcommand that is no global flag (nor
    an abbreviation of exactly one), or None.  argparse would set such a
    flag aside and read its value as the subcommand, so its error would
    name the value instead of the flag."""
    i = 0
    while i < len(argv) and argv[i].startswith("-") and argv[i] != "--":
        name, eq, _ = argv[i].partition("=")
        if name in ("-h", "--help"):
            return None
        if sum(flag.startswith(name) for flag in _GLOBAL_FLAGS) != 1:
            return name
        i += 1 if eq else 2
    return None


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qso-spectra",
        description="Exact verification suites for q-deformed orthogonal "
                    "coordinate algebras, exterior fiber algebras and the "
                    "zero-form Laplacian spectrum.")
    parser.add_argument("--out", help="write the report to this path instead of stdout")
    parser.add_argument("--format", choices=("json", "csv"),
                        help="report format (default: json)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility; has no effect")
    parser.add_argument("--config", help="JSON config file; flags take precedence")

    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="algebra/representation suites")
    vsub = verify.add_subparsers(dest="suite", required=True)
    for name, help_text in (
        ("rels", "defining commutation relation families"),
        ("rep", "vector representation: defining + Serre relations"),
        ("covariance", "invariance of the quadratic span under all actions"),
        ("spherical", "highest-weight and q-commutation identities for z, y"),
        ("orbit", "F-orbit scan of y with terminal-element classification"),
    ):
        p = vsub.add_parser(name, help=help_text)
        p.add_argument("--n", type=int, required=True)

    fib = sub.add_parser("fiber", help="exterior fiber algebra suites")
    fsub = fib.add_subparsers(dest="suite", required=True)
    p = fsub.add_parser("kappa-powers", help="coefficients of kappa^l")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p = fsub.add_parser("lefschetz", help="Lefschetz bijectivity by rank mod p, "
                                          "exact elimination as fallback")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=_positive_fraction, action="append",
                   help="sample point(s); default 1, 11/10, 101/100")
    p = fsub.add_parser("nonprimitive", help="top-form non-primitivity witnesses")
    p.add_argument("--n", type=int, required=True)

    spec = sub.add_parser("spectrum", help="zero-form Laplacian spectrum")
    ssub = spec.add_subparsers(dest="suite", required=True)
    p = ssub.add_parser("table", help="sorted eigenvalue table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=_positive_fraction, default=Fraction(11, 10))
    p.add_argument("--params", default="default",
                   help='"default" or a JSON file with the six constants')
    p.add_argument("--kmax", type=_nonnegative_int, default=5)
    p.add_argument("--lmax", type=_nonnegative_int, default=5)
    p = ssub.add_parser("diverge", help="shell divergence certification")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=_positive_fraction, default=Fraction(11, 10))
    p.add_argument("--params", default="default")
    p.add_argument("--shell-max", type=_nonnegative_int, default=200)
    p.add_argument("--bound", type=_fraction, default=Fraction(100))

    p = sub.add_parser("all", help="full pipeline in dependency order")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=_positive_fraction, default=Fraction(11, 10))

    return parser


def _load_json(where: str, path: str):
    """The JSON value in the file at path, integers read by _exact.  A
    file that cannot be read, is not JSON in UTF-8, nests too deep for
    the decoder or that _exact refuses raises QsoError prefixed with
    where, the flag that named it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_int=lambda s: int(_exact(s)))
    except (OSError, ValueError, RecursionError) as exc:
        raise QsoError(f"{where}: {exc}") from exc


def _load_config(args) -> None:
    """Fill --format and --out from the --config file where the flag is
    unset; --format defaults to json."""
    cfg = {}
    if args.config:
        where = f"--config {args.config}"
        cfg = _load_json(where, args.config)
        if not isinstance(cfg, dict):
            raise QsoError(f"{where}: expected a JSON object")
        for key, value in cfg.items():
            if key == "out":
                if not isinstance(value, str):
                    raise QsoError(f"{where}: out must be a path string, got {value!r}")
            elif key != "format":
                raise QsoError(f"{where}: unknown key {key!r}; expected format or out")
            elif value not in ("json", "csv"):
                raise QsoError(f"{where}: format must be one of json, csv, "
                               f"got {value!r}")
    args.format = args.format or cfg.get("format", "json")
    if "out" in cfg and not args.out:
        args.out = cfg["out"]


_PARAM_KEYS = ("theta", "theta1", "theta2", "theta3", "mu_y", "mu_z")


def _spectral_params(spec: str, q: Fraction) -> spectrum.SpectralParams:
    if spec == "default":
        return spectrum.SpectralParams(q=q)
    raw = _load_json(f"--params {spec}", spec)
    if not isinstance(raw, dict):
        raise QsoError(f"--params {spec}: expected a JSON object of constants")
    kwargs = {}
    for k, x in raw.items():
        if k not in _PARAM_KEYS:
            raise QsoError(f"--params {spec}: unknown key {k!r}; expected "
                           f"{', '.join(_PARAM_KEYS)}")
        # only JSON integers and strings are exact: a number with a
        # fraction or exponent loads as a binary float, true/false as bool
        try:
            if type(x) not in (int, str):
                raise ValueError(f"not an exact rational: {x!r}")
            kwargs[k] = _exact(str(x))
        except ValueError as exc:
            raise QsoError(f"--params {spec}: {k} is {exc}") from None
    return spectrum.SpectralParams(q=q, **kwargs)


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- command implementations ----------------------------------------------

def _results(command, results, **head):
    """The report of a suite that returns a list of results: command,
    the head keys, the results and their aggregate status."""
    return {"command": command, **head, "results": results,
            "status": reports.aggregate_status(r["status"] for r in results)}


def _cmd_verify(args):
    n, command = args.n, f"verify {args.suite}"
    if args.suite == "rels":
        return _results(command, frt.verify_lemma_rels(n), N=n)
    if args.suite == "rep":
        # entries lie in Q(v) with v = q^(1/2); the key keeps the layout
        return _results(command, actions.verify_qea_relations(n), N=n,
                        q2_convention="qhalf")
    suite = {"covariance": actions.verify_covariance,
             "spherical": actions.verify_spherical,
             "orbit": actions.orbit_scan}[args.suite]
    return {**suite(n), "command": command}


def _kappa_power_entries(M: int, l: int):
    exp = fiber.kappa_power(fiber.ExtAlgParams(M), l)
    entries = []
    for (I, J), c in sorted(exp.items()):
        entries.append({"I": list(I), "J": list(J),
                        "f": c.to_text(), "f_at_1": str(c.eval_v(1))})
    return entries


def _cmd_fiber(args):
    M = args.n - 2
    if M < 1:
        raise QsoError("need --n >= 3 for a nonempty fiber")
    params = fiber.ExtAlgParams(M)
    if args.suite == "kappa-powers":
        if not 0 <= args.l <= 2 * M:
            raise QsoError(f"need 0 <= l <= {2 * M}")
        return {"command": "fiber kappa-powers", "M": M, "l": args.l,
                "entries": _kappa_power_entries(M, args.l),
                "status": "verified"}
    if args.suite == "lefschetz":
        samples = args.q or [Fraction(1), Fraction(11, 10), Fraction(101, 100)]
        runs = [fiber.verify_lefschetz_iso(params, q0) for q0 in samples]
        return {"command": "fiber lefschetz", "M": M, "runs": runs,
                "status": reports.aggregate_status(r["status"] for r in runs)}
    return {**fiber.verify_nonprimitive(params), "command": "fiber nonprimitive"}


def _diverge(p, validation, cartan, shell_max, bound, **head):
    """check_divergence's report at p, or, when p failed its validation
    or the bound is not cleared, the failed report: the head keys, the
    validation, the error if any and the status."""
    error = {}
    if validation["status"] == "verified":
        try:
            return spectrum.check_divergence(p, cartan, shell_max, bound)
        except BoundNotCleared as exc:
            error = {"error": str(exc)}
    return {**head, "validation": validation, **error, "status": "failed"}


def _cmd_spectrum(args):
    cartan = cartan_data(args.n)
    p = _spectral_params(args.params, args.q)
    validation = spectrum.validate_params(p)
    if args.suite == "table":
        records = spectrum.spectrum_table(p, cartan, args.kmax, args.lmax)
        return {"command": "spectrum table", "N": args.n,
                "params": p.as_dict(), "validation": validation,
                "records": records, "status": validation["status"]}
    rep = _diverge(p, validation, cartan, args.shell_max, args.bound,
                   command="spectrum diverge", N=args.n)
    if rep["status"] == "failed":
        return rep
    return {**rep, "command": "spectrum diverge", "validation": validation}


def _cmd_all(args):
    n = args.n
    plan = (
        ("rep", lambda: _results("verify rep", actions.verify_qea_relations(n))),
        ("rels", lambda: _results("verify rels", frt.verify_lemma_rels(n))),
        ("covariance", lambda: actions.verify_covariance(n)),
        ("spherical", lambda: actions.verify_spherical(n)),
        ("orbit", lambda: actions.orbit_scan(n)),
        ("fiber", lambda: _stage_fiber(n)),
        ("spectrum", lambda: _stage_spectrum(n, args.q)),
    )
    stages, overall = [], "verified"
    for name, stage in plan:
        report = stage()
        status = report["status"]
        stages.append({"stage": name, "status": status, "report": report})
        if status == "inconclusive":
            overall = "inconclusive"
        elif status != "verified":
            overall = "failed"
            break
    return {"command": "all", "N": n, "stages": stages, "status": overall}


def _stage_fiber(n):
    params = fiber.ExtAlgParams(n - 2)
    parts = {"f_law": fiber.verify_f_properties(params),
             "nonprimitive": fiber.verify_nonprimitive(params),
             "lefschetz": fiber.verify_lefschetz_iso(params, Fraction(11, 10))}
    return {**parts, "status": reports.aggregate_status(
        r["status"] for r in parts.values())}


def _stage_spectrum(n, q):
    p = spectrum.SpectralParams(q=q)
    validation = spectrum.validate_params(p)
    div = _diverge(p, validation, cartan_data(n), 60, 50)
    if div["status"] == "failed":
        return div
    return {"validation": validation,
            "divergence": {k: v for k, v in div.items() if k != "shell_minima"},
            "status": "verified"}


# -- entry point ------------------------------------------------------------

# the (command, suite) pairs whose report is a table, the only ones with csv
_TABULAR = (("spectrum", "table"), ("fiber", "kappa-powers"))


def _render(args, report) -> str:
    if args.format == "json":
        return reports.to_json(report)
    if report["command"] == "spectrum table":
        rows = [{"k": r["k"], "l": r["l"], "value": r["value"],
                 "multiplicity": r["multiplicity"],
                 "weight": " ".join(str(c) for c in r["weight"])}
                for r in report["records"]]
        return reports.to_csv(rows, ["k", "l", "value", "multiplicity", "weight"])
    rows = [{"M": report["M"], "l": report["l"], "I": " ".join(map(str, e["I"])),
             "J": " ".join(map(str, e["J"])), "f_at_1": e["f_at_1"]}
            for e in report["entries"]]
    return reports.to_csv(rows, ["M", "l", "I", "J", "f_at_1"])


_COMMANDS = {"verify": _cmd_verify, "fiber": _cmd_fiber,
             "spectrum": _cmd_spectrum, "all": _cmd_all}


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        unknown = _unknown_global_flag(argv)
        if unknown:
            parser.error(f"unrecognized arguments: {unknown}")
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    limit = sys.get_int_max_str_digits()
    try:
        _load_config(args)
        if args.format == "csv" and \
                (args.command, getattr(args, "suite", None)) not in _TABULAR:
            raise QsoError("csv output is only available for tabular subcommands")
        if args.out and os.path.isdir(args.out):
            raise QsoError(f"--out {args.out}: is a directory")
        if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise QsoError(f"--out {args.out}: no such directory")
        if args.command != "fiber" and args.n < 5:
            raise QsoError(f"need --n >= 5, got {args.n}")
        # reports print exact values of any length
        sys.set_int_max_str_digits(0)
        report = _COMMANDS[args.command](args)
        _emit(args, _render(args, report))
    except (QsoError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError:
        # exit 1 means inconclusive, so a request too large to hold in
        # memory is refused like bad input
        sys.stderr.write("error: out of memory\n")
        return 2
    finally:
        sys.set_int_max_str_digits(limit)
    return reports.exit_code(report["status"])


if __name__ == "__main__":
    sys.exit(main())
