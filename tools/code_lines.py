"""Count the code lines of the package, per module and in total.

A code line holds at least one token that is not a comment, not part
of a docstring and not whitespace.  A token that spans several lines
(a triple-quoted string that is no docstring) makes each of them a code
line.  Run from the root of a checkout:

    python3 tools/code_lines.py            # src/qso_spectra/*.py
    python3 tools/code_lines.py FILE...    # the given files
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qso_spectra"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_spans(tree: ast.Module) -> list[tuple[tuple, tuple]]:
    """The (start, end) positions of every module, class and function
    docstring, as tokenize gives them: (line, column)."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    docs = _docstring_spans(ast.parse(source, str(path)))
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in _NOT_CODE or tok.type == tokenize.STRING and any(
                    start <= tok.start and tok.end <= end for start, end in docs):
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted(PACKAGE.glob("*.py"))
    total = 0
    for path in paths:
        n = code_lines(path)
        total += n
        print(f"{n:6,d}  {path.name}")
    print(f"{total:6,d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
