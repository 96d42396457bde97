"""Deterministic machine-readable report serialization.

All rationals cross the boundary as exact "p/q" strings and symbolic
coefficients as their canonical text form; no floats anywhere.  Reports
carry no timing fields, so identical configurations produce
byte-identical output.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

from .field import FieldElem


def jsonable(obj):
    """Recursively convert report payloads to JSON-safe values."""
    if isinstance(obj, dict):
        return {_key(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj, key=repr) if isinstance(obj, (set, frozenset)) else obj
        return [jsonable(v) for v in items]
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
    return json.dumps(jsonable(report), indent=2) + "\n"


def to_csv(rows, fieldnames) -> str:
    """CSV text from a list of flat dicts (values already JSON-safe)."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: jsonable(row.get(k)) for k in fieldnames})
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
