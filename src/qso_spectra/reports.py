"""Deterministic machine-readable report serialization.

All rationals cross the boundary as exact "p/q" strings and symbolic
coefficients as their canonical text form; no floats anywhere.  Reports
carry no timing fields, so identical configurations produce
byte-identical output.

The JSON writer dispatches on exact type first: an object whose type
is Fraction or int, the leaves of every report, is written at once.
Anything else goes through the isinstance chain: a bool prints
true/false, an int subclass such as an IntEnum member prints as
json.dumps prints it, a FieldElem as its text form, and a float raises
TypeError wherever it sits.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _enc

from .field import FieldElem


def _leaf(obj):
    """JSON-safe value of anything but a dict or a sequence."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, FieldElem):
        return obj.to_text()
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        raise TypeError("floats are not allowed in reports")
    if hasattr(obj, "to_text"):
        return obj.to_text()
    return str(obj)


def _key(k):
    if isinstance(k, (tuple, frozenset)):
        return ",".join(str(x) for x in k)
    return k if isinstance(k, str) else str(k)


def to_json(report) -> str:
    """The report as JSON in the layout of json.dumps(..., indent=2),
    with a final newline.  Keys become strings, sets are sorted by repr
    and leaves convert as in _leaf."""
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
        items = {_key(k): v for k, v in obj.items()}
        return ("{" + inner + ("," + inner).join(
            [_enc(k) + ": " + _dump(v, inner) for k, v in items.items()])
            + nl + "}")
    if isinstance(obj, (list, tuple, set, frozenset)):
        if not obj:
            return "[]"
        if isinstance(obj, (set, frozenset)):
            obj = sorted(obj, key=repr)
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
