"""Report bytes of the benchmark catalogue stay pinned.

perfbench/answers.json freezes the exit code and the report digest of
every catalogue request.  This test runs every entry of the catalogue as
the benchmark does (a command-line entry through cli.main, the Hodge
entry through fiber.verify_hodge_shape) and compares each outcome with
the frozen answer and the entry's oracle, so a change of report bytes
fails here, not only in a benchmark run.  Entries on the boundary
parameter file read the file the benchmark writes at run time; the test
writes it into its own directory.
"""

from fractions import Fraction
from pathlib import Path

from qso_spectra import fiber, reports
from qso_spectra.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_cli_entries_match_their_frozen_answers(monkeypatch, capsys, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks
    import workloads

    answers = checks.load_answers()
    checker = checks.Checker(answers)
    params_path = workloads.write_params_file(str(tmp_path))
    entries = {e.key: e for name in workloads.CATALOGUES
               for e in workloads.catalogue(name)}
    assert entries.keys() == answers.keys()
    assert any(workloads.BOUNDARY_TOKEN in e.argv for e in entries.values())
    mismatches = []
    for key, entry in sorted(entries.items()):
        if entry.kind == "hodge":
            rep = fiber.verify_hodge_shape(fiber.ExtAlgParams(entry.m),
                                           Fraction(entry.q))
            code, out = reports.exit_code(rep["status"]), reports.to_json(rep)
        else:
            code = main(workloads.resolve_argv(entry, params_path))
            out = capsys.readouterr().out
        reason = checker.check(entry, code, out)
        if reason:
            mismatches.append((key, reason))
    assert not mismatches, f"report differs from the frozen answer: {mismatches}"
