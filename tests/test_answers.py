"""Report bytes of the benchmark catalogue stay pinned.

perfbench/answers.json freezes the exit code and the report digest of
every catalogue request.  This test runs each command-line entry of the
catalogue through cli.main and compares both with the frozen answer, so
a change of report bytes fails here, not only in a benchmark run.
Entries on the boundary parameter file need a file the benchmark writes
at run time and are left to it.
"""

from pathlib import Path

from qso_spectra.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_cli_entries_match_their_frozen_answers(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks
    import workloads

    answers = checks.load_answers()
    entries = {e.key: e for name in workloads.CATALOGUES
               for e in workloads.catalogue(name)
               if e.kind == "cli" and workloads.BOUNDARY_TOKEN not in e.argv}
    assert entries
    mismatches = []
    for key, entry in sorted(entries.items()):
        code = main(list(entry.argv))
        out = capsys.readouterr().out
        want = answers[key]
        if code != want["exit"] or checks.digest(out) != want["digest"]:
            mismatches.append(key)
    assert not mismatches, f"report differs from the frozen answer: {mismatches}"
