"""Deterministic machine-readable report serialization.

All rationals cross the boundary as exact "p/q" strings; no floats
anywhere.  Reports carry no timing fields, so identical configurations
produce byte-identical output.

A report is a dict with str keys whose values are dicts, lists, tuples
and leaves.  A leaf is a str, an int, a Fraction (written as its "p/q"
text), a bool or None; anything else, a float, a FieldElem or a set
among them, raises TypeError wherever it sits, and so does a key that
is not a str.  The JSON writer dispatches on exact type first: an
object whose type is Fraction or int, the leaves of every report, is
written at once, and the rest go through the isinstance chain.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _enc


def _leaf(obj):
    """JSON-safe value of a leaf: a Fraction as its "p/q" text, a str,
    int, bool or None as itself; anything else raises TypeError."""
    if isinstance(obj, Fraction):
        return str(obj)
    if obj is None or isinstance(obj, (str, int)):
        return obj
    raise TypeError(f"{type(obj).__name__} is not a report leaf")


def to_json(report) -> str:
    """The report as JSON in the layout of json.dumps(..., indent=2),
    with a final newline.  Keys must be str; leaves (str, int, Fraction,
    bool, None) convert as in _leaf, and any other key or leaf raises
    TypeError."""
    return _dump(report, "\n") + "\n"


def _dump(obj, nl):
    """JSON text of one value; ``nl`` is a newline followed by the
    indentation of the line the value starts on."""
    t = type(obj)
    if t is Fraction:
        return _enc(str(obj))
    if t is int:
        return int.__repr__(obj)
    if isinstance(obj, str):
        return _enc(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = nl + "  "
        # _enc raises TypeError on a key that is not a str
        return ("{" + inner + ("," + inner).join(
            [_enc(k) + ": " + _dump(v, inner) for k, v in obj.items()])
            + nl + "}")
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = nl + "  "
        return ("[" + inner + ("," + inner).join([_dump(v, inner) for v in obj])
                + nl + "]")
    v = _leaf(obj)
    if isinstance(v, str):
        return _enc(v)
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    return int.__repr__(v)


def to_csv(rows, fieldnames) -> str:
    """CSV text from a list of flat dicts (values already JSON-safe)."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _leaf(row.get(k)) for k in fieldnames})
    return buf.getvalue()


def aggregate_status(statuses) -> str:
    """Fold per-check statuses into verified / inconclusive / failed."""
    worst = "verified"
    for s in statuses:
        if s in ("verified", "excluded"):
            continue
        if s == "inconclusive":
            worst = "inconclusive"
        else:
            return "failed"
    return worst


def exit_code(status: str) -> int:
    return {"verified": 0, "inconclusive": 1}.get(status, 2)
