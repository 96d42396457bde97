"""Command-line driver: subcommands, exit codes, formats, determinism."""

import csv
import hashlib
import io
import json
import os
import resource
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qso_spectra import actions, fiber, frt, reports, spectrum
from qso_spectra.cartan import cartan_data
from qso_spectra.cli import _build_parser, main
from qso_spectra.errors import RepresentationInconsistent

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_rels_json(capsys):
    code, out, err = run(capsys, "verify", "rels", "--n", "5")
    assert code == 0 and not err
    report = json.loads(out)
    assert report["command"] == "verify rels"
    assert report["status"] == "verified"
    assert all("millis" not in r for r in report["results"])


def test_verify_rep_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "rep", "--n", "5")
    assert code == 0
    report = json.loads(out)
    assert all(r["status"] == "verified" for r in report["results"])


def test_spectrum_table_csv(capsys):
    code, out, _ = run(capsys, "--format", "csv",
                       "spectrum", "table", "--n", "7",
                       "--kmax", "2", "--lmax", "2")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 9
    assert rows[0]["value"] == "0" and rows[0]["multiplicity"] == "1"
    assert set(rows[0]) == {"k", "l", "value", "multiplicity", "weight"}


def test_kappa_powers_csv(capsys):
    code, out, _ = run(capsys, "--format", "csv",
                       "fiber", "kappa-powers", "--n", "5", "--l", "2")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    # diagonal pairs for l = 2, M = 3 plus any off-diagonal corrections
    diag = [r for r in rows if r["I"] == r["J"]]
    assert len(diag) >= 3
    assert all(r["f_at_1"] == "-2" for r in diag)


def test_csv_unsupported_subcommand(capsys):
    code, out, err = run(capsys, "--format", "csv", "verify", "rels", "--n", "5")
    assert code == 2
    assert "csv" in err


def test_csv_on_a_non_tabular_command_is_rejected_before_the_work(
        tmp_path, capsys, monkeypatch):
    def work(n):
        raise AssertionError("the suite ran")

    monkeypatch.setattr(frt, "verify_lemma_rels", work)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "csv"}))
    for argv in (["--format", "csv"], ["--config", str(cfg)]):
        code, out, err = run(capsys, *argv, "verify", "rels", "--n", "8")
        assert code == 2 and not out
        assert err == "error: csv output is only available for tabular subcommands\n"


def test_out_in_a_missing_directory_is_rejected_before_the_work(
        tmp_path, capsys, monkeypatch):
    def work(n):
        raise AssertionError("the suite ran")

    monkeypatch.setattr(frt, "verify_lemma_rels", work)
    missing = str(tmp_path / "missing" / "x.json")
    cfg = tmp_path / "cfg.json"
    # an existing directory is no file to write either
    for target, reason in ((missing, "no such directory"),
                           (str(tmp_path), "is a directory")):
        cfg.write_text(json.dumps({"out": target}))
        for argv in (["--out", target], ["--config", str(cfg)]):
            code, out, err = run(capsys, *argv, "verify", "rels", "--n", "7")
            assert code == 2 and not out
            assert err == f"error: --out {target}: {reason}\n"
    assert not (tmp_path / "missing").exists()


def test_usage_error_exit_two(capsys):
    code, _, _ = run(capsys, "verify", "rels")  # missing --n
    assert code == 2
    code, _, _ = run(capsys, "spectrum", "table", "--n", "7", "--q", "1/0")
    assert code == 2
    # the representation has no normalization option: there is no --q2 flag
    code, out, err = run(capsys, "--q2", "q", "verify", "rep", "--n", "6")
    assert code == 2 and not out and "qso-spectra: error: " in err
    # an unknown flag before the subcommand is named, not its value
    for argv, flag in ((("--q2", "q", "verify", "rep", "--n", "6"), "--q2"),
                       (("--bogus", "3", "spectrum", "table", "--n", "7"), "--bogus"),
                       (("--jobs", "1", "--bogus=3", "spectrum", "table", "--n", "7"),
                        "--bogus"),
                       (("-x", "fiber", "nonprimitive", "--n", "5"), "-x")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out, argv
        assert f"unrecognized arguments: {flag}" in err, (argv, err)
        assert "invalid choice" not in err, (argv, err)
    # global flags and their unique abbreviations still parse
    code, out, _ = run(capsys, "--jobs", "1", "--form", "csv", "spectrum", "table",
                       "--n", "5", "--kmax", "0", "--lmax", "0")
    assert code == 0 and out.startswith("k,l,value")


@pytest.mark.parametrize("argv", [
    ("fiber", "lefschetz", "--n", "5", "--q", "-1"),
    ("fiber", "lefschetz", "--n", "5", "--q", "1", "--q", "0"),
    ("spectrum", "table", "--n", "7", "--q", "0"),
    ("spectrum", "diverge", "--n", "7", "--q=-3/2"),
    ("all", "--n", "5", "--q", "-1"),
])
def test_nonpositive_q_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert "positive rational" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("spectrum", "table", "--n", "7", "--kmax", "-2"),
    ("spectrum", "table", "--n", "7", "--lmax=-1"),
    ("spectrum", "diverge", "--n", "7", "--shell-max", "-1"),
])
def test_negative_size_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert "nonnegative integer" in err and "Traceback" not in err


def test_out_of_memory_exits_two(capsys):
    # M = 10^12 - 2 asks for a tuple of 8 TB, which fails at once; exit 1
    # would read as an inconclusive verdict.  A 1 TB address-space limit
    # makes the allocation fail whatever the host's overcommit policy.
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 2 ** 40 if hard == resource.RLIM_INFINITY else min(hard, 2 ** 40)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        code, out, err = run(capsys, "fiber", "nonprimitive", "--n", "1000000000000")
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    assert code == 2 and not out
    assert err == "error: out of memory\n"


def test_bad_fiber_size(capsys):
    code, _, err = run(capsys, "fiber", "kappa-powers", "--n", "2", "--l", "1")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("argv", [
    ("verify", "rels", "--n", "4"),
    ("verify", "orbit", "--n", "3"),
    ("spectrum", "table", "--n", "4"),
    ("spectrum", "diverge", "--n", "2"),
    ("all", "--n", "4"),
])
def test_bad_ambient_size(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert err.startswith("error: ") and "--n >= 5" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("content, reason", [
    ('{"theta": "abc"}', "not an exact rational"),
    ('{"theta": [1]}', "not an exact rational"),
    ('{"mu_y": "1/0"}', "not an exact rational"),
    ("[1, 2]", "JSON object"),
    ('{"theta": 0.5}', "theta is not an exact rational: 0.5"),
    ('{"mu_z": 0.1}', "mu_z is not an exact rational: 0.1"),
    ('{"theta": true}', "theta is not an exact rational: True"),
    ('{"theta_1": "2"}', "unknown key 'theta_1'"),
    (b'\xff\xfe{"theta": "1"}', "params.json: 'utf-8' codec can't decode"),
])
def test_malformed_params_file_exits_two(tmp_path, capsys, content, reason):
    pf = tmp_path / "params.json"
    if isinstance(content, bytes):
        pf.write_bytes(content)
    else:
        pf.write_text(content)
    for suite in ("table", "diverge"):
        code, out, err = run(capsys, "spectrum", suite, "--n", "5",
                             "--params", str(pf))
        assert code == 2 and not out
        assert err.startswith("error: ") and reason in err
        assert "Traceback" not in err


def _cli(*argv):
    """The command line in a fresh interpreter under a timeout, so that
    an input that hangs the program fails the test instead of stalling
    the suite."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-m", "qso_spectra.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize("flag, value", [
    ("--q", "1e999999999"),
    ("--q", "1e4301"),
    ("--q", "1" * 4301),
    ("--bound", "1e-999999999"),
], ids=["q-exponent", "q-exponent-4301", "q-digits-4301", "bound-exponent"])
def test_long_number_flag_exits_two(flag, value):
    suite = "diverge" if flag == "--bound" else "table"
    proc = _cli("spectrum", suite, "--n", "5", flag, value)
    assert proc.returncode == 2 and not proc.stdout
    assert f"argument {flag}: longer than 4300 digits" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("flag, content, reason", [
    ("--params", '{"theta": "1e-999999999"}', "theta is longer than 4300 digits"),
    ("--params", '{"mu_y": "%s"}' % ("7" * 5000), "mu_y is longer than 4300 digits"),
    ("--params", '{"theta": %s}' % ("1" * 5000), "longer than 4300 digits"),
    ("--config", '{"out": %s}' % ("1" * 5000), "longer than 4300 digits"),
    # refused as the file loads, before a quadratic-time int conversion
    ("--params", '{"theta": %s}' % ("1" * 5_000_000), "longer than 4300 digits"),
], ids=["params-exponent", "params-string", "params-integer", "config-integer",
        "params-integer-5M"])
def test_long_number_in_a_file_exits_two(tmp_path, flag, content, reason):
    path = tmp_path / "input.json"
    path.write_text(content)
    argv = ["spectrum", "table", "--n", "5"]
    argv = argv + [flag, str(path)] if flag == "--params" else [flag, str(path)] + argv
    proc = _cli(*argv)
    assert proc.returncode == 2 and not proc.stdout
    assert proc.stderr.startswith(f"error: {flag} {path}: ") and reason in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("flag", ["--params", "--config"])
@pytest.mark.parametrize("content", [
    "[" * 100_000 + "]" * 100_000,
    '{"theta": ' + "[" * 100_000 + "]" * 100_000 + "}",
], ids=["top", "in-a-key"])
def test_deeply_nested_file_exits_two(tmp_path, flag, content):
    # the JSON decoder recurses once per level and gives up with
    # RecursionError, which must not escape as a traceback
    path = tmp_path / "input.json"
    path.write_text(content)
    argv = (["spectrum", "table", "--n", "5", flag, str(path)] if flag == "--params"
            else [flag, str(path), "verify", "rels", "--n", "5"])
    proc = _cli(*argv)
    assert proc.returncode == 2 and not proc.stdout
    assert proc.stderr.startswith(f"error: {flag} {path}: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, longest", [
    (["spectrum", "diverge", "--n", "5", "--q", "10001/10000",
      "--shell-max", "600", "--bound", "100"],
     lambda r: max(map(len, r["shell_minima"]))),
    (["spectrum", "table", "--n", "5", "--kmax", "0", "--lmax", "0",
      "--q", "1e4300"], lambda r: len(r["params"]["q"])),
], ids=["diverge-minima", "table-q"])
def test_exact_values_print_at_any_length(capsys, argv, longest):
    # main lifts the int-to-string limit for the report and restores it
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, *argv)
    assert code == 0 and not err
    report = json.loads(out)
    assert report["status"] == "verified" and longest(report) > 4300
    assert sys.get_int_max_str_digits() == limit


def test_long_params_integer_is_refused_while_the_limit_is_lifted(tmp_path, capsys):
    pf = tmp_path / "params.json"
    pf.write_text('{"theta": %s}' % ("1" * 5000))
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "spectrum", "table", "--n", "5", "--params", str(pf))
    assert code == 2 and not out and "longer than 4300 digits" in err
    assert sys.get_int_max_str_digits() == limit


def test_divergence_failure_exit_two(capsys):
    # boundary theta with a bound above the finite l = 0 lane limit
    # can still clear on full shells only if the lane clears; a huge
    # bound with a tiny shell_max must fail cleanly
    code, out, _ = run(capsys, "spectrum", "diverge", "--n", "7",
                       "--shell-max", "5", "--bound", "1000000")
    assert code == 2
    report = json.loads(out)
    assert report["status"] == "failed" and "error" in report


def test_diverge_invalid_params_report(capsys):
    code, out, _ = run(capsys, "spectrum", "diverge", "--n", "7", "--q", "1")
    assert code == 2
    report = json.loads(out)
    assert list(report) == ["command", "N", "validation", "status"]
    assert report["status"] == "failed"
    assert report["validation"]["failures"] == ["q > 1"]


def test_out_file_and_idempotence(tmp_path, capsys):
    target = tmp_path / "report.json"
    for _ in range(2):
        code, out, _ = run(capsys, "--out", str(target),
                           "verify", "orbit", "--n", "5")
        assert code == 0 and out == ""
        texts = target.read_text()
    code, _, _ = run(capsys, "--out", str(tmp_path / "again.json"),
                     "verify", "orbit", "--n", "5")
    assert code == 0
    assert (tmp_path / "again.json").read_text() == texts
    report = json.loads(texts)
    assert report["terminal"]["family"] == "iv'"


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "csv"}))
    code, out, _ = run(capsys, "--config", str(cfg),
                       "spectrum", "table", "--n", "5",
                       "--kmax", "1", "--lmax", "1")
    assert code == 0
    assert out.splitlines()[0] == "k,l,value,multiplicity,weight"
    # an explicit flag wins over the config file, even at its default value
    code, out, _ = run(capsys, "--format", "json", "--config", str(cfg),
                       "spectrum", "table", "--n", "5",
                       "--kmax", "1", "--lmax", "0")
    assert code == 0
    assert json.loads(out)["command"] == "spectrum table"


def test_spectrum_params_file(tmp_path, capsys):
    pf = tmp_path / "params.json"
    pf.write_text(json.dumps({"mu_y": "2", "theta1": "-1"}))
    code, out, _ = run(capsys, "spectrum", "table", "--n", "5",
                       "--params", str(pf), "--kmax", "1", "--lmax", "1")
    assert code == 2
    report = json.loads(out)
    assert "theta1 > 0" in report["validation"]["failures"]


STAGES = ["rep", "rels", "covariance", "spherical", "orbit", "fiber", "spectrum"]


def test_all_pipeline(capsys):
    code, out, _ = run(capsys, "all", "--n", "5")
    assert code == 0
    report = json.loads(out)
    assert [s["stage"] for s in report["stages"]] == STAGES
    assert report["status"] == "verified"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "42ae2eb9968d7950c47617cf3fba200b9b338c6c5fe5df720ea3e10feddac06d")


def test_all_stops_at_the_failed_spectrum_stage(capsys):
    code, out, _ = run(capsys, "all", "--n", "5", "--q", "1")
    assert code == 2
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "dd058ee5d7ce825c995201a8ef264e160fa31db7edf09db36d963bf50c530caa")
    report = json.loads(out)
    assert report["status"] == "failed"
    assert [(s["stage"], s["status"]) for s in report["stages"]] == (
        [(name, "verified") for name in STAGES[:-1]] + [("spectrum", "failed")])
    spec = report["stages"][-1]["report"]
    assert list(spec) == ["validation", "status"]
    assert spec["validation"]["failures"] == ["q > 1"]


def test_all_stages_are_the_standalone_reports(capsys):
    code, out, _ = run(capsys, "all", "--n", "5")
    assert code == 0
    stages = {s["stage"]: s["report"] for s in json.loads(out)["stages"]}
    for suite, drop in (("rels", ("N", "q2_convention")),
                        ("rep", ("N", "q2_convention")),
                        ("covariance", ("command",)),
                        ("spherical", ("command",)),
                        ("orbit", ("command",))):
        code, out, _ = run(capsys, "verify", suite, "--n", "5")
        assert code == 0
        alone = {k: v for k, v in json.loads(out).items() if k not in drop}
        assert stages[suite] == alone, suite
    p = spectrum.SpectralParams(q=Fraction(11, 10))
    assert spectrum.validate_params(p)["status"] == "verified"
    div = spectrum.check_divergence(p, cartan_data(5), 60, 50)
    del div["shell_minima"]
    assert stages["spectrum"]["divergence"] == json.loads(reports.to_json(div))


def test_one_rewriter_build_per_n(tmp_path):
    # one R table, one rewriter and one z-span per N across the suites
    shared = (frt._r_tables, frt.rewriter, actions.z_span)
    for cached in shared:
        cached.cache_clear()
    out = str(tmp_path / "report.json")
    for n in ("5", "6"):
        for suite in ("rels", "covariance", "spherical", "orbit"):
            assert main(["--out", out, "verify", suite, "--n", n]) == 0
    assert [cached.cache_info().misses for cached in shared] == [2, 2, 2]


def test_one_action_engine_per_n(tmp_path, monkeypatch):
    actions.vector_rep.cache_clear()
    built = []
    init = actions.ActionEngine.__init__

    def counting(self, N, *rest):
        built.append(N)
        init(self, N, *rest)

    monkeypatch.setattr(actions.ActionEngine, "__init__", counting)
    out = str(tmp_path / "report.json")
    for n in ("5", "6"):
        for suite in ("rep", "covariance", "spherical", "orbit"):
            assert main(["--out", out, "verify", suite, "--n", n]) == 0
    assert built == [5, 6]


def test_one_lefschetz_table_per_m(tmp_path, monkeypatch):
    fiber.lefschetz_table.cache_clear()
    builds = []
    init = fiber._LefschetzTable.__init__

    def counting(self, params):
        builds.append(params.M)
        init(self, params)

    monkeypatch.setattr(fiber._LefschetzTable, "__init__", counting)
    out = str(tmp_path / "report.json")
    for n in ("5", "5", "6"):
        assert main(["--out", out, "fiber", "lefschetz", "--n", n]) == 0
    for _ in range(2):
        rep = fiber.verify_hodge_shape(fiber.ExtAlgParams(3))
        assert rep["status"] == "verified"
    assert builds == [3, 4]


def test_inconclusive_status_exits_one():
    status = reports.aggregate_status(["verified", "inconclusive"])
    assert status == "inconclusive"
    assert reports.exit_code(status) == 1


def test_aggregate_status_folds_unknown_statuses_to_failed():
    # only verified and excluded are ok: a per-check "pass" is not a verdict
    assert reports.aggregate_status(["verified", "excluded"]) == "verified"
    assert reports.aggregate_status(["verified", "pass"]) == "failed"


def test_to_json_matches_the_json_module():
    import enum

    from qso_spectra.field import FieldElem

    class Level(enum.IntEnum):
        LOW = 3

    value = {
        "s": "café \"x\"\n", "3": [1, -2, 10**30], "1,2": True,
        "4": None, "f": Fraction(-3, 4),
        "t": (False, {}, [], ()),
        "deep": [{"a": [[], [{}]], "b": {"c": (Fraction(2),)}}],
    }
    plain = {
        "s": "café \"x\"\n", "3": [1, -2, 10**30], "1,2": True,
        "4": None, "f": "-3/4",
        "t": [False, {}, [], []],
        "deep": [{"a": [[], [{}]], "b": {"c": ["2"]}}],
    }
    assert reports.to_json(value) == json.dumps(plain, indent=2) + "\n"
    for n in (5, 6):
        report = {"command": "verify rels", "N": n,
                  "results": frt.verify_lemma_rels(n), "status": "verified"}
        text = reports.to_json(report)
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
    with pytest.raises(TypeError):
        reports.to_json({"x": [0.5]})
    # the leaves the exact-type dispatch passes to the isinstance chain
    value = {"flags": [True, False, [True]], "on": True, "off": False,
             "enum": Level.LOW, "enums": [Level.LOW], "whole": Fraction(6, 3),
             "neg": -(10**40) - 7, "mixed": [0, -1, Fraction(-5, 1)]}
    plain = {"flags": [True, False, [True]], "on": True, "off": False,
             "enum": Level.LOW, "enums": [Level.LOW], "whole": "2",
             "neg": -(10**40) - 7, "mixed": [0, -1, "-5"]}
    assert reports.to_json(value) == json.dumps(plain, indent=2) + "\n"
    with pytest.raises(TypeError):
        reports.to_json({"a": [{"b": 0.5}]})
    # a leaf is a str, int, Fraction, bool or None and a key is a str:
    # a FieldElem, a set or a non-str key raises wherever it sits
    v = FieldElem.v_pow(1)
    for bad in ({"e": v + v.inverse()}, {"set": {3, 1, 2}}, {"t": [(set(),)]},
                {"k": {3: [1]}}, {(1, 2): True}, {frozenset([4]): None}):
        with pytest.raises(TypeError):
            reports.to_json(bad)


def _readme_commands():
    """argv of every qso-spectra line in the README's CLI block."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(ln, comments=True)[1:] for ln in block.splitlines()
            if ln.startswith("qso-spectra ")]


def test_readme_command_lines_parse():
    commands = _readme_commands()
    assert len(commands) >= 10
    parser = _build_parser()
    for argv in commands:
        parser.parse_args(argv)  # argparse exits 2 on a bad command line


def test_readme_commands_run(tmp_path):
    out = str(tmp_path / "report.out")
    for argv in _readme_commands():
        assert main(["--out", out] + argv) == 0, argv


@pytest.mark.parametrize("content, reason", [
    pytest.param('{"q2_convention": "qhalf"}', "unknown key 'q2_convention'",
                 id="q2_convention-unknown-key"),
    ("[1, 2]", "expected a JSON object"),
    ('{"format": "xml"}', "format must be one of json, csv"),
    ('{"n": 5}', "unknown key 'n'"),
    ('{"out": 3}', "out must be a path string"),
    ("{", "Expecting property name"),
    (b'\xff\xfe{"format": "json"}', "can't decode byte 0xff"),
])
def test_malformed_config_file_exits_two(tmp_path, capsys, content, reason):
    cfg = tmp_path / "cfg.json"
    if isinstance(content, bytes):
        cfg.write_bytes(content)
    else:
        cfg.write_text(content)
    code, out, err = run(capsys, "--config", str(cfg), "verify", "rels", "--n", "5")
    assert code == 2 and not out
    assert err.startswith("error: --config ") and reason in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag, argv", [
    ("--params", ("spectrum", "table", "--n", "5", "--params", "{}")),
    ("--config", ("--config", "{}", "verify", "rels", "--n", "5")),
], ids=["params", "config"])
@pytest.mark.parametrize("name", ["missing.json", ""], ids=["missing", "directory"])
def test_unreadable_file_exits_two_naming_the_flag(tmp_path, capsys, flag, argv, name):
    path = str(tmp_path / name) if name else str(tmp_path)
    code, out, err = run(capsys, *(a.format(path) for a in argv))
    assert code == 2 and not out
    assert err.startswith(f"error: {flag} {path}: ")
    assert "Traceback" not in err


def test_rep_sign_fault_raises_and_exits_two(monkeypatch, capsys):
    # negate the conjugate entry of the left F_1 table, on column 1' = N:
    # the left E-F commutator fails
    ef_tables = actions._ef_tables

    def faulty(N, side):
        Es, Fs = ef_tables(N, side)
        if side == "left":
            target, coeff = Fs[1][N]
            Fs[1][N] = (target, -coeff)
        return Es, Fs

    monkeypatch.setattr(actions, "_ef_tables", faulty)
    actions.vector_rep.cache_clear()
    try:
        with pytest.raises(RepresentationInconsistent):
            actions.vector_rep(5)
        code, out, err = run(capsys, "verify", "rep", "--n", "5")
    finally:
        actions.vector_rep.cache_clear()
    assert code == 2 and not out
    assert err.startswith("error: ") and "E-F commutator" in err
    assert "Traceback" not in err
