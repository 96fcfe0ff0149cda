"""Canonical JSON matrix files.

A matrix file is {"field": "R"|"C"|"H", "rows": n, "cols": n, "data": [...]}
with entries encoded per field (number, [re, im], or [a, b, c, d]).  The
serializer is canonical: sorted keys, no whitespace, floats rendered with
%.17g, so parse followed by serialize is byte-stable.  The parser rejects a
NaN or infinite entry with a ValueError naming its (0-based) row and column.
"""

from __future__ import annotations

import json

import numpy as np

from .matcore import QMatrix, field_of
from .scalars import scalar_from_json, scalar_to_json


def matrix_to_payload(X) -> dict:
    field = field_of(X)
    rows, cols = X.shape
    data = [[scalar_to_json(X[i, j], field) for j in range(cols)]
            for i in range(rows)]
    return {"field": field, "rows": rows, "cols": cols, "data": data}


def payload_to_matrix(payload: dict):
    field = payload["field"]
    rows, cols = int(payload["rows"]), int(payload["cols"])
    data = payload["data"]
    if len(data) != rows or any(len(r) != cols for r in data):
        raise ValueError("data shape disagrees with rows/cols")
    entries = [[scalar_from_json(v, field) for v in row] for row in data]
    if field == "H":
        X = QMatrix.from_quaternions(entries)
        finite = np.isfinite(X.a) & np.isfinite(X.b)
    else:
        X = np.array(entries, dtype=complex if field == "C" else float)
        finite = np.isfinite(X)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ValueError(f"non-finite entry at row {i}, column {j}")
    return X


def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("non-finite number in canonical JSON")
    if x == 0.0:
        return "0"  # either sign: a sign flip of a zero entry must not show
    return format(float(x), ".17g")


def canonical_dumps(obj) -> str:
    """Deterministic JSON: sorted keys, compact separators, %.17g floats."""
    if isinstance(obj, dict):
        items = sorted(obj.items())
        body = ",".join(f"{json.dumps(k)}:{canonical_dumps(v)}" for k, v in items)
        return "{" + body + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_dumps(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def write_matrix(path: str, X):
    with open(path, "w") as fh:
        fh.write(canonical_dumps(matrix_to_payload(X)) + "\n")


def read_matrix(path: str):
    with open(path) as fh:
        return payload_to_matrix(json.load(fh))
