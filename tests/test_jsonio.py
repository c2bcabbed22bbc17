"""canonical_dumps against the standard json encoder it replaces.

The walk must write the bytes of json.dumps(sort_keys=True, indent=2)
plus a newline for every JSON value without floats, write a Fraction as
its "p/q" string and a tuple as a list, and refuse anything else.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_oracles import from_dense, to_dense
from qforge import linalg
from qforge.errors import ParameterError
from qforge.jsonio import canonical_dumps, rmatrix_from_json, rmatrix_to_json
from qforge.linalg import RMatrix

# any code point, with control characters and lone surrogates drawn often
strings = st.text(st.characters(exclude_categories=())
                  | st.characters(categories=["Cc"])
                  | st.characters(categories=["Cs"]))
scalars = (st.none() | st.booleans() | strings
           | st.integers() | st.integers(min_value=2 ** 64) | st.integers(max_value=-2 ** 64))


def values(leaves):
    return st.recursive(
        leaves,
        lambda kids: (st.lists(kids) | st.lists(kids).map(tuple)
                      | st.dictionaries(strings, kids)),
        max_leaves=25)


def oracle(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# every kind of top-level value, whose text the final newline follows
@given(scalars | st.just([]) | st.just({}) | st.lists(values(scalars), min_size=1)
       | st.dictionaries(strings, values(scalars), min_size=1))
@example(7)
@example([])
@example({})
@example([[1, 2], "a"])
@example({"a": [1, {}], "b": None})
@settings(max_examples=100, deadline=None)
def test_same_bytes_as_json_dumps(obj):
    assert canonical_dumps(obj) == oracle(obj)


def test_scalars_and_empty_containers():
    assert canonical_dumps([True, False, None, 1, 0, [], {}, ()]) == (
        "[\n  true,\n  false,\n  null,\n  1,\n  0,\n  [],\n  {},\n  []\n]\n")
    assert canonical_dumps({"b": [1, {"c": ()}], "a": "\u00e9"}) == (
        '{\n  "a": "\\u00e9",\n  "b": [\n    1,\n    {\n      "c": []\n'
        '    }\n  ]\n}\n')


def _as_strings(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [_as_strings(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _as_strings(v) for k, v in obj.items()}
    return obj


@given(values(scalars | st.fractions()))
@settings(max_examples=60, deadline=None)
def test_fractions_are_written_as_their_strings(obj):
    assert canonical_dumps(obj) == oracle(_as_strings(obj))


@given(st.lists(st.integers()), st.dictionaries(strings, scalars, max_size=3),
       st.lists(st.fractions(), max_size=4),
       st.lists(strings, min_size=4, max_size=8, unique=True), st.data())
@settings(max_examples=100, deadline=None)
def test_values_that_are_one_object_are_written_at_their_own_depth(
        ints, nested, fracs, keys, data):
    # a dict writes one text per distinct value object; four keys over
    # three objects repeat one, and the int list is placed deeper again,
    # where its text has a wider indent
    shared = [ints, nested, fracs]
    repeats = {k: shared[data.draw(st.integers(0, 2))] for k in keys}
    obj = {"repeats": repeats, "deeper": [{"ints": ints, "again": repeats}, ints]}
    assert canonical_dumps(obj) == oracle(_as_strings(obj))
    assert canonical_dumps(repeats) == oracle(_as_strings(repeats))


def test_fraction_strings():
    assert canonical_dumps([Fraction(6, 2), Fraction(-1, 2)]) == (
        '[\n  "3",\n  "-1/2"\n]\n')


@pytest.mark.parametrize("obj, name", [
    (1.5, "float"),
    ([0.0], "float"),
    ({"x": float("nan")}, "float"),
    ([[float("inf")]], "float"),
    ({1: "a"}, "int"),
    ({"a": 1, None: 2}, "NoneType"),
    ({(0, 1): []}, "tuple"),
    ({1, 2}, "set"),
    ([object()], "object"),
])
def test_non_json_values_are_refused(obj, name):
    with pytest.raises(ParameterError) as info:
        canonical_dumps(obj)
    message = str(info.value)
    assert name in message and "\n" not in message


def sorted_triples_json(m):
    """The matrix writer as it was when it read a Fraction copy of the
    rows: the nonzero entries as sorted (i, j, str(v)) triples."""
    entries = sorted((m.row_lo + i, m.col_lo + j, str(v))
                     for i, row in enumerate(to_dense(m))
                     for j, v in enumerate(row) if v)
    return {"row_lo": m.row_lo, "row_hi": m.row_hi,
            "col_lo": m.col_lo, "col_hi": m.col_hi,
            "entries": [[i, j, v] for i, j, v in entries]}


matrix_entries = st.sampled_from([Fraction(v) for v in (
    0, 0, 0, 0, 1, -1, 3, "1/2", "-2/3", "5/6", "-7/4")])


@st.composite
def matrices(draw):
    """A matrix on offset windows; a product of two when drawn, so that
    its rows are stored in the order the product builds them."""
    n, k, p = (draw(st.integers(0, 4)) for _ in range(3))
    lo_r, lo_k, lo_c = (draw(st.integers(-3, 3)) for _ in range(3))
    def dense(rows, cols):
        return [draw(st.lists(matrix_entries, min_size=cols, max_size=cols))
                for _ in range(rows)]
    a = RMatrix(lo_r, lo_r + n, lo_k, lo_k + k, {
        lo_r + i: {lo_k + j: v for j, v in enumerate(row)}
        for i, row in enumerate(dense(n, k))})
    if not draw(st.booleans()):
        return a
    b = RMatrix(lo_k, lo_k + k, lo_c, lo_c + p, {
        lo_k + i: {lo_c + j: v for j, v in enumerate(row)}
        for i, row in enumerate(dense(k, p))})
    return a.matmul(b)


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_matrix_json_is_the_sorted_triples(m):
    obj = rmatrix_to_json(m)
    assert obj == sorted_triples_json(m)
    assert canonical_dumps(obj) == canonical_dumps(sorted_triples_json(m))
    assert rmatrix_from_json(obj) == m


@given(st.lists(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=12),
                        max_size=5), max_size=4))
@example([[Fraction(1, 2), Fraction(-1, 3), Fraction(-5, 6), Fraction(-4), 0]])
@settings(max_examples=150, deadline=None)
def test_entry_texts_are_the_fraction_strings(rows):
    # a row is stored over the lcm of its denominators, so 1/2 beside 1/3
    # is 3/6 there and its text must be reduced back to "1/2"
    m = RMatrix(0, len(rows), 0, 5, {i: dict(enumerate(row)) for i, row in enumerate(rows)})
    assert m.entry_texts() == [[i, j, str(v)] for i, j, v in m.items()]


def test_a_read_checks_each_index_once(monkeypatch):
    # the repeat test needs each index checked as it is read, and the
    # matrix is then built without checking the indices again
    want = from_dense([[1, Fraction(2, 3)], [0, 3]])
    seen = []
    check_int = linalg.check_int

    def counted(x, what):
        seen.append(what)
        return check_int(x, what)
    monkeypatch.setattr(linalg, "check_int", counted)
    m = rmatrix_from_json({"row_lo": 0, "row_hi": 2, "col_lo": 0, "col_hi": 2,
                           "entries": [[0, 0, "1"], [0, 1, "2/3"], [1, 1, "3"]]})
    assert sorted(seen) == ["col index"] * 3 + ["row index"] * 3 + ["window bound"] * 4
    assert m == want
