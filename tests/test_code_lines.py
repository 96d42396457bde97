"""tools/code_lines.py counts the lines that hold code."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
over two lines."""
# a comment

import os  # code with a comment


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """not a
        docstring"""
        return text


def g(): """Docstring on the def line."""
'''


def test_counts_code_not_comments_docstrings_or_blanks(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    # import, class, def f, the two lines of text, return, def g
    assert code_lines.code_lines(path) == 7


def test_prints_each_module_and_the_total(capsys):
    assert code_lines.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    counts = [int(ln.split()[0].replace(",", "")) for ln in lines]
    assert lines[-1].endswith("  total")
    assert sum(counts[:-1]) == counts[-1] > 0
    assert any(ln.endswith("  cli.py") for ln in lines)
