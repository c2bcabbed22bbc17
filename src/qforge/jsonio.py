"""Canonical JSON: rationals as exact "p/q" strings, keys sorted, so two
runs with the same inputs produce byte-identical files."""

from __future__ import annotations

import json

from .errors import ParameterError, QForgeError
from .linalg import RMatrix, WindowVector, frac


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(canonical_dumps(obj))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# what a JSON value of the wrong shape raises while it is parsed
_MALFORMED = (LookupError, TypeError, ValueError, AttributeError, ParameterError)


def load_json(path, parse, what):
    """parse(JSON read from path); a file that is not valid JSON or does
    not have the shape of `what` raises one QForgeError."""
    try:
        return parse(read_json(path))
    except _MALFORMED as e:
        raise QForgeError("malformed %s %s: %s: %s"
                          % (what, path, type(e).__name__, e)) from e


def rmatrix_to_json(m: RMatrix):
    entries = sorted((i, j, str(v)) for i, row in m.rows.items()
                     for j, v in row.items() if v != 0)
    return {"row_lo": m.row_lo, "row_hi": m.row_hi,
            "col_lo": m.col_lo, "col_hi": m.col_hi,
            "entries": [[i, j, v] for i, j, v in entries]}


def rmatrix_from_json(obj) -> RMatrix:
    rows = {}
    for i, j, v in obj["entries"]:
        rows.setdefault(i, {})[j] = frac(v)
    return RMatrix(obj["row_lo"], obj["row_hi"],
                   obj["col_lo"], obj["col_hi"], rows)


def window_vector_to_json(v: WindowVector):
    return {"lo": v.lo, "hi": v.hi, "coords": [str(c) for c in v.coords]}


def window_vector_from_json(obj) -> WindowVector:
    return WindowVector(obj["lo"], obj["hi"],
                        tuple(frac(c) for c in obj["coords"]))
