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

_ENTRY_SHAPE = {"R": (), "C": (2,), "H": (4,)}  # the axis of an entry's real parts


def matrix_to_payload(X) -> dict:
    """The file payload of X.  Its data are the real parts of the entries:
    x over R, [re, im] over C and [a, b, c, d] over H for a + b i + c j + d k,
    that is [Re A, Im A, Re B, Im B] for X = A + B j."""
    field = field_of(X)
    rows, cols = X.shape
    if field == "H":
        parts = np.stack([X.a, X.b], axis=-1).view(float)
    elif field == "C":
        parts = np.ascontiguousarray(X, dtype=complex)[..., None].view(float)
    else:
        parts = np.asarray(X, dtype=float)
    return {"field": field, "rows": rows, "cols": cols, "data": parts.tolist()}


def payload_to_matrix(payload: dict):
    field = payload["field"]
    rows, cols = int(payload["rows"]), int(payload["cols"])
    if field not in _ENTRY_SHAPE:
        raise ValueError(f"unknown field {field!r}")
    try:
        parts = np.array(payload["data"])
    except ValueError:  # ragged rows or entries
        parts = np.array(None)
    shape = (rows, cols) + _ENTRY_SHAPE[field]
    if parts.dtype.kind not in "fiu" or parts.shape != shape:  # numbers only
        raise ValueError(f"data is not {rows} rows of {cols} {field} entries")
    parts = parts.astype(float, copy=False)
    bad = ~np.isfinite(parts)
    if bad.any():
        i, j = np.argwhere(bad)[0][:2]
        raise ValueError(f"non-finite entry at row {i}, column {j}")
    if field == "R":
        return parts
    z = parts.view(complex)
    return z[..., 0] if field == "C" else QMatrix(z[..., 0], z[..., 1])


def canonical_dumps(obj) -> str:
    """Deterministic JSON: sorted keys, compact separators, %.17g floats, a
    zero of either sign written 0.  All floats are formatted in one pass."""
    floats = []
    template = _template(obj, floats)
    # + 0.0 turns -0.0 into 0.0: a sign flip of a zero entry must not show.
    values = np.array(floats, dtype=float) + 0.0
    if not np.isfinite(values).all():
        raise ValueError("non-finite number in canonical JSON")
    return template % tuple(values.tolist())


def _template(obj, floats: list) -> str:
    """obj as canonical JSON with a %.17g field for each float, whose value is
    appended to floats, and every literal % doubled."""
    if isinstance(obj, dict):
        return "{" + ",".join(_template(k, floats) + ":" + _template(v, floats)
                              for k, v in sorted(obj.items())) + "}"
    if isinstance(obj, (list, tuple)):
        if set(map(type, obj)) == {float}:  # a row of numbers: no call per entry
            floats.extend(obj)
            return "[" + ",".join(["%.17g"] * len(obj)) + "]"
        return "[" + ",".join([_template(v, floats) for v in obj]) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        floats.append(float(obj))
        return "%.17g"
    if isinstance(obj, str):
        return json.dumps(obj).replace("%", "%%")
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def write_matrix(path: str, X):
    with open(path, "w") as fh:
        fh.write(canonical_dumps(matrix_to_payload(X)) + "\n")


def read_matrix(path: str):
    with open(path) as fh:
        return payload_to_matrix(json.load(fh, parse_int=float))
