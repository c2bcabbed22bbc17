"""Canonical JSON: rationals as exact "p/q" strings, keys sorted, so two
runs with the same inputs produce byte-identical files.

`canonical_dumps` writes the bytes that the standard `json` encoder
writes with sort_keys=True and indent=2, plus a newline, in one
recursive walk instead of that encoder's pure-Python path.  The walk
is where a `Fraction` becomes its "p/q" string (or "p" when the
denominator is 1) and a tuple becomes a list; a float, a dict key that
is not a string, or any other object is refused with a ParameterError,
so no floating point reaches an output.  Values of one dict that are one
object, such as the equal pairwise certificates of a family, which share
one list, are written once and their text is reused.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .errors import ParameterError, QForgeError
from .linalg import RMatrix, WindowVector


def canonical_dumps(obj) -> str:
    return _dumps(obj, "\n", "\n")


def _dumps(obj, nl, end=""):
    """obj as canonical JSON text followed by end, its nested lines
    starting with nl plus two spaces; a container joins end into its own
    text, so ending an output copies none of it.  The exact-int test in
    the list case spares the call for the ints of a certificate."""
    if isinstance(obj, str):
        return _quote(obj) + end
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]" + end
        inner = nl + "  "
        return "".join(("[", inner, ("," + inner).join([
            repr(v) if type(v) is int else _dumps(v, inner)
            for v in obj]), nl, "]", end))
    if isinstance(obj, dict):
        if not obj:
            return "{}" + end
        for k in obj:
            if not isinstance(k, str):
                raise ParameterError("canonical JSON keys are strings, not %s"
                                     % type(k).__name__)
        # values that are one object share one text; every node stays
        # alive and unchanged during the walk, so an id names one value
        inner = nl + "  "
        texts, parts, sep = {}, [], "{" + inner
        for k in sorted(obj):
            v = obj[k]
            text = texts.get(id(v))
            if text is None:
                text = texts[id(v)] = _dumps(v, inner)
            parts += (sep, _quote(k), ": ", text)
            sep = "," + inner
        parts += (nl, "}", end)
        return "".join(parts)
    if obj is None:
        return "null" + end
    if obj is True:
        return "true" + end
    if obj is False:
        return "false" + end
    if isinstance(obj, int):
        return int.__repr__(obj) + end
    if isinstance(obj, Fraction):
        return _quote(str(obj)) + end
    raise ParameterError("cannot write a %s as canonical JSON"
                         % type(obj).__name__)


def write_json(path, obj) -> str:
    """Write obj to path as canonical JSON; the text written."""
    text = canonical_dumps(obj)
    with open(path, "w") as fh:
        fh.write(text)
    return text


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
    return {"row_lo": m.row_lo, "row_hi": m.row_hi,
            "col_lo": m.col_lo, "col_hi": m.col_hi,
            "entries": m.entry_texts()}


def rmatrix_from_json(obj) -> RMatrix:
    return RMatrix.from_entries(obj["row_lo"], obj["row_hi"],
                                obj["col_lo"], obj["col_hi"], obj["entries"])


def window_vector_to_json(v: WindowVector):
    return {"lo": v.lo, "hi": v.hi, "coords": [str(c) for c in v.coords]}


def window_vector_from_json(obj) -> WindowVector:
    return WindowVector(obj["lo"], obj["hi"], obj["coords"])
