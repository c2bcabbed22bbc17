"""A non-rational or out-of-range CLI parameter or a malformed config
file exits 2 with one line on stderr and nothing on stdout."""

import copy
import functools
import json
import operator
import time
from fractions import Fraction

import pytest

from qforge.adf.certset import CertSet
from qforge.adf.families import MAX_BLOCKS, MAX_VALUATION
from qforge.cli import main
from qforge.config import ENV_CONFIG, MAX_HORIZON, RunConfig
from qforge.errors import ParameterError
from qforge.forcing import Condition
from qforge.jsonio import rmatrix_from_json, write_json
from qforge.linalg import RMatrix, WindowVector, frac
from qforge.tails import MAX_TAIL, TailVector, check_pi_injective

BAD_CONFIGS = ['{"rho": "x"}', "not json", '{"horizon": "x"}',
               '{"horizon": 64.9}', '{"horizon": "512"}', '{"horizon": true}']


def assert_one_line_exit_2(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    return captured.err


@pytest.mark.parametrize("text", ["abc", "1/0", "", "1/2/3"])
def test_frac_rejects_a_non_rational_string(text):
    with pytest.raises(ParameterError):
        frac(text)


def test_non_rational_rho(capsys, tmp_path):
    path = tmp_path / "pf.json"
    write_json(path, {"f": {"kind": "branch", "count": 2},
                      "g": {"kind": "progression", "count": 2}})
    assert_one_line_exit_2(capsys, ["forge-matrix", "--families", str(path),
                                    "--rho", "abc"])


@pytest.mark.parametrize("option, value", [("--horizon", "0"), ("--rho", ""),
                                           ("--c2", "")])
def test_explicit_empty_or_zero_forge_option(capsys, tmp_path, option, value):
    # an explicit value is checked like any other, not replaced by the
    # config's value because it is falsy
    path = tmp_path / "pf.json"
    write_json(path, {"f": {"kind": "branch", "count": 2},
                      "g": {"kind": "progression", "count": 2}})
    assert_one_line_exit_2(capsys, ["forge-matrix", "--families", str(path),
                                    option, value])


@pytest.mark.parametrize("options, config", [
    (["--rho", "1"], None), (["--c2", "3"], None),  # the default rho is 4
    ([], '{"c1": "0"}'), ([], '{"delta": "0"}')])
def test_config_outside_its_bounds(capsys, tmp_path, options, config):
    path = tmp_path / "pf.json"
    write_json(path, {"f": {"kind": "branch", "count": 2},
                      "g": {"kind": "progression", "count": 2}})
    argv = ["forge-matrix", "--families", str(path)] + options
    if config:
        (tmp_path / "c.json").write_text(config)
        argv = ["--config", str(tmp_path / "c.json")] + argv
    assert assert_one_line_exit_2(capsys, argv) == (
        "error: need rho > 1, c2 >= rho, c1 > 0, delta > 0\n")


def test_horizon_above_the_bound(capsys, tmp_path):
    # the stage search may reach 8 * horizon, so an unbounded horizon
    # never finishes; the bound is checked before any family is built
    path = tmp_path / "pf.json"
    write_json(path, {"f": {"kind": "branch", "count": 8, "depth": 3},
                      "g": {"kind": "progression", "count": 8}})
    t0 = time.monotonic()
    assert_one_line_exit_2(capsys, ["forge-matrix", "--families", str(path),
                                    "--horizon", "100000"])
    assert time.monotonic() - t0 < 1
    config = tmp_path / "c.json"
    config.write_text('{"horizon": %d}' % (MAX_HORIZON + 1))
    assert_one_line_exit_2(capsys, ["--config", str(config), "forge-matrix",
                                    "--families", str(path)])
    # a config file's bound is its own line, as the option's is
    config.write_text('{"horizon": 5000}')
    assert assert_one_line_exit_2(capsys, [
        "--config", str(config), "build-adf", "--kind", "branch",
        "--count", "2"]) == "error: horizon 5000 is not in [1, 4096]\n"
    assert RunConfig(horizon=MAX_HORIZON).horizon == MAX_HORIZON
    with pytest.raises(ParameterError):
        RunConfig(horizon=MAX_HORIZON + 1)


@pytest.mark.parametrize("text", BAD_CONFIGS)
def test_bad_config_option(capsys, tmp_path, text):
    path = tmp_path / "c.json"
    path.write_text(text)
    assert_one_line_exit_2(capsys, ["--config", str(path), "build-adf",
                                    "--kind", "branch", "--count", "2"])


@pytest.mark.parametrize("text", BAD_CONFIGS)
def test_bad_config_environment(capsys, tmp_path, monkeypatch, text):
    path = tmp_path / "c.json"
    path.write_text(text)
    monkeypatch.setenv(ENV_CONFIG, str(path))
    assert_one_line_exit_2(capsys, ["build-adf", "--kind", "branch",
                                    "--count", "2"])


@pytest.mark.parametrize("cap", ["w*x", "w*", "x", "w*1+y", "w*1.5", "w*true",
                                 "1.0", "w*2+0.5"])
def test_bad_ordinal_cap(capsys, cap):
    assert_one_line_exit_2(capsys, ["build-coherent", "--cells", "2",
                                    "--cap", cap])


@pytest.mark.parametrize("inside, outside", [("0", "9"), ("0", "-1"),
                                             ("3", "1")])
def test_set_index_outside_the_family(capsys, tmp_path, inside, outside):
    path = tmp_path / "f.json"
    assert main(["build-adf", "--kind", "branch", "--count", "3",
                 "--depth", "3", "--out", str(path)]) == 0
    capsys.readouterr()
    assert_one_line_exit_2(capsys, ["check-separation", "--family", str(path),
                                    "--inside", inside, "--outside", outside])


@pytest.mark.parametrize("offsets", ["100000", "18", "-1"])
def test_sample_offsets_outside_the_cap(capsys, offsets):
    # an offset r samples the stages w*q+r, and no member has a valuation
    # above MAX_VALUATION, so the check comes before any stage is built
    t0 = time.monotonic()
    assert_one_line_exit_2(capsys, ["build-coherent", "--cells", "2",
                                    "--sample-offsets", offsets])
    assert time.monotonic() - t0 < 1


def test_blocks_above_the_bound(capsys):
    # build-coherent's time grows with about the square of --blocks
    t0 = time.monotonic()
    top = MAX_BLOCKS + 1
    assert_one_line_exit_2(capsys, ["build-coherent", "--cells", str(top),
                                    "--blocks", str(top), "--cap",
                                    "w*%d" % top])
    assert time.monotonic() - t0 < 1


def test_largest_sample_offsets_is_accepted(capsys):
    top = str(MAX_VALUATION + 1)
    assert main(["build-coherent", "--cells", "1", "--blocks", "1",
                 "--cap", str(MAX_VALUATION), "--sample-offsets", top]) == 0
    assert len(json.loads(capsys.readouterr().out)["stages"]) == int(top)


def test_separation_whose_union_lifts_too_far(capsys, tmp_path):
    # set i of a progression family has modulus 2^(i+1), so the union of
    # sets 0 and 40 lifts 2^40 residues: rejected before the lift, where
    # it used to run without end
    path = tmp_path / "f.json"
    assert main(["build-adf", "--kind", "progression", "--count", "64",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    t0 = time.monotonic()
    assert_one_line_exit_2(capsys, ["check-separation", "--family", str(path),
                                    "--inside", "0", "40", "--outside", "1"])
    assert time.monotonic() - t0 < 1


@pytest.mark.parametrize("top", [10 ** 9, 10 ** 30])
@pytest.mark.parametrize("argv", [
    ["mad-census"],
    # the separator is the union of both sets
    ["check-separation", "--inside", "0", "1", "--outside", "1"]])
def test_union_that_enumerates_too_many_members(capsys, tmp_path, argv, top):
    # the even numbers from top on and the odd numbers: their union lists
    # the odd numbers below top - 1, the even set's least threshold; it is
    # refused before any is listed, where at 10^9 it used to run past
    # 10 s, and a count past sys.maxsize is still a count
    path = tmp_path / "f.json"
    write_json(path, {"sets": [
        {"threshold": top, "modulus": 2, "residues": [0], "below": []},
        {"threshold": 0, "modulus": 2, "residues": [1], "below": []}]})
    t0 = time.monotonic()
    err = assert_one_line_exit_2(capsys, argv[:1] + ["--family", str(path)]
                                 + argv[1:])
    assert time.monotonic() - t0 < 1
    assert "enumerates %d members below %d," % ((top - 1) // 2, top - 1) in err


def test_config_schedule_is_not_read(capsys, tmp_path):
    # RunConfig has no schedule field, and unknown keys are ignored, so a
    # scheduled D-hit at 100000 neither runs nor reaches the output
    path = tmp_path / "pf.json"
    write_json(path, {"f": {"kind": "branch", "count": 2},
                      "g": {"kind": "progression", "count": 2}})
    argv = ["forge-matrix", "--families", str(path), "--horizon", "8"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    config = tmp_path / "c.json"
    config.write_text('{"schedule": [["D", 100000]]}')
    t0 = time.monotonic()
    assert main(["--config", str(config)] + argv) == 0
    assert time.monotonic() - t0 < 1
    assert capsys.readouterr().out == plain


def coprime_tails():
    # three periods whose lcm is 18 181 979: aligning them would build
    # that many rows
    return [TailVector((), (1,) + (0,) * (p - 1)) for p in (257, 263, 269)]


def coprime_families():
    tails = [t.to_json_obj() for t in coprime_tails()]
    return {"indices": [0, 1, 2], "f": tails, "g": tails}


def test_indicator_tail_above_the_bound(capsys, tmp_path):
    # a set of modulus 2^40 used to build a 2^40-entry period
    path = tmp_path / "pf.json"
    big = CertSet(0, 1 << 40, frozenset({0}), frozenset())
    write_json(path, {"f": [big.to_json_obj()], "g": [big.to_json_obj()]})
    t0 = time.monotonic()
    err = assert_one_line_exit_2(capsys, ["forge-matrix", "--families", str(path)])
    assert time.monotonic() - t0 < 1
    # the file is well formed; only its tails are too long
    assert "malformed" not in err


def test_aligned_tails_above_the_bound(capsys, tmp_path):
    path = tmp_path / "pf.json"
    write_json(path, coprime_families())
    t0 = time.monotonic()
    err = assert_one_line_exit_2(capsys, ["forge-matrix", "--families", str(path)])
    assert time.monotonic() - t0 < 1
    # the file is well formed; only its tails are too long
    assert "malformed" not in err


def test_run_file_with_tails_above_the_bound(capsys, tmp_path):
    pair = tmp_path / "pf.json"
    write_json(pair, {"f": {"kind": "branch", "count": 2},
                      "g": {"kind": "progression", "count": 2}})
    run = tmp_path / "run.json"
    assert main(["forge-matrix", "--families", str(pair), "--horizon", "8",
                 "--out", str(run)]) == 0
    capsys.readouterr()
    obj = json.loads(run.read_text())
    obj["families"] = coprime_families()
    write_json(run, obj)
    t0 = time.monotonic()
    assert_one_line_exit_2(capsys, ["verify-run", str(run)])
    assert time.monotonic() - t0 < 1


def test_tail_of_period_at_the_bound_is_accepted():
    t = CertSet(0, MAX_TAIL, frozenset({0}), frozenset()).indicator_tail()
    assert t.period_len == MAX_TAIL
    check_pi_injective([t, TailVector((), (0, 1))])
    with pytest.raises(ParameterError):
        CertSet(0, MAX_TAIL + 1, frozenset({0}), frozenset()).indicator_tail()
    with pytest.raises(ParameterError):
        CertSet(MAX_TAIL + 1, 2, frozenset({0}), frozenset()).indicator_tail()
    with pytest.raises(ParameterError):
        check_pi_injective(coprime_tails())


# a window bound, an index, a stage or a cut must be an int: 0.5 and True
# compare as inside a window, and 2.0 as the stage 2; a window is not
# inverted, and a matrix entry is one (i, j) listed once
EYE = RMatrix.identity(0, 2)
NOT_AN_INDEX = {
    "vector-bound": lambda: WindowVector(0.5, 2.5, (1, 0)),
    "vector-bool-bound": lambda: WindowVector(False, 1, (1,)),
    "sparse-index": lambda: WindowVector.sparse(0, 2, {True: 1}),
    "unit-index": lambda: WindowVector.sparse(0, 2, {1.0: 1}),
    "matrix-bound": lambda: RMatrix(0, 2.5, 0, 2, {}),
    "matrix-row": lambda: RMatrix(0, 2, 0, 2, {0.5: {0: 1}}),
    "matrix-col": lambda: RMatrix(0, 2, 0, 2, {0: {True: 1}}),
    "identity-bound": lambda: RMatrix.identity(0, 2.0),
    "identity-inverted": lambda: RMatrix.identity(3, 1),
    "repeated-entry": lambda: rmatrix_from_json({
        "row_lo": 0, "row_hi": 1, "col_lo": 0, "col_hi": 1,
        "entries": [[0, 0, "1000"], [0, 0, "1"]]}),
    "bool-beside-its-int": lambda: rmatrix_from_json({
        "row_lo": 0, "row_hi": 2, "col_lo": 0, "col_hi": 2,
        "entries": [[1, 0, "1"], [True, 1, "1000"]]}),
    "condition-stage": lambda: Condition(2.0, EYE, (), (0, 2), EYE),
    "condition-cut": lambda: Condition(2, EYE, (), (0, 2.0), EYE),
}


@pytest.mark.parametrize("build", NOT_AN_INDEX.values(), ids=NOT_AN_INDEX)
def test_index_that_is_not_an_int(build):
    with pytest.raises(ParameterError):
        build()


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    d = tmp_path_factory.mktemp("small-run")
    write_json(d / "pair.json", {"f": {"kind": "branch", "count": 2},
                                 "g": {"kind": "progression", "count": 2}})
    assert main(["forge-matrix", "--families", str(d / "pair.json"),
                 "--horizon", "8", "--out", str(d / "run.json")]) == 0
    return json.loads((d / "run.json").read_text()), d / "bad.json"


NOT_RATIONAL = "not a rational number: %r"
NOT_A_STRING = "%r: floats are not allowed, nor bools; pass 'p/q' strings"


# a matrix entry is refused with frac's line, also one of 5000 digits,
# past the 4300 that int() reads by default
@pytest.mark.parametrize("value, reason", [
    ("1/0", NOT_RATIONAL), ("3/-4", NOT_RATIONAL), ("", NOT_RATIONAL),
    ("abc", NOT_RATIONAL), ("7" * 5000, NOT_RATIONAL),
    ("1/" + "7" * 5000, NOT_RATIONAL), (True, NOT_A_STRING), (1.5, NOT_A_STRING),
], ids=["zero-denominator", "negative-denominator", "empty", "word",
        "long-numerator", "long-denominator", "true", "float"])
def test_matrix_entry_that_is_not_a_rational(capsys, small_run, value, reason):
    run, path = small_run
    obj = copy.deepcopy(run)
    obj["matrix"]["entries"][0][2] = value
    # a float is not canonical JSON, so the file is written by json
    path.write_text(json.dumps(obj))
    err = assert_one_line_exit_2(capsys, ["verify-run", str(path)])
    assert err == "error: malformed run file %s: ParameterError: %s\n" % (
        path, reason % (value,))


@pytest.mark.parametrize("argv, obj", [
    (["forge-matrix", "--families"],
     {"indices": [0], "f": [{"prefix": [], "period": [1.0]}],
      "g": [{"prefix": [], "period": ["1"]}]}),
    (["compute", "op-norm", "--in"],
     {"lo": 0, "hi": 1, "basis": [{"lo": 0, "hi": 1, "coords": [0.5]}],
      "images": [{"lo": 0, "hi": 1, "coords": ["1"]}]}),
], ids=["family-tail", "compute-basis"])
def test_float_value_in_an_input_file(capsys, tmp_path, argv, obj):
    path = tmp_path / "in.json"
    # a float is not canonical JSON, so the file is written by json
    path.write_text(json.dumps(obj))
    err = assert_one_line_exit_2(capsys, argv + [str(path)])
    assert "floats are not allowed" in err


def test_compute_on_a_fractional_window(capsys, tmp_path):
    v = {"lo": 0.5, "hi": 2.5, "coords": ["1", "0"]}
    path = tmp_path / "map.json"
    # a float is not canonical JSON, so the file is written by json
    path.write_text(json.dumps({"lo": 0.5, "hi": 2.5, "basis": [v], "images": [v]}))
    err = assert_one_line_exit_2(capsys, ["compute", "op-norm", "--in", str(path)])
    assert "not an integer" in err



# -- every number in every input file: true, an integral float and a
# non-integral float are each refused with exit 2 and one line, never read
# as 1, truncated, or let through to a TypeError deeper down

def numeric_leaves(obj, path=(), pattern=(), in_list=False):
    """(pattern, path) of every int and every rational string in obj.  A
    pattern is the path with the index of each list as "*", except in a
    list inside a list (a matrix entry [i, j, v], a hit [kind, param, i]),
    whose positions stay apart."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from numeric_leaves(v, path + (k,), pattern + (k,))
    elif isinstance(obj, list):
        for k, v in enumerate(obj):
            yield from numeric_leaves(v, path + (k,),
                                      pattern + (k if in_list else "*",), True)
    elif type(obj) is int or isinstance(obj, str) and reads_as_rational(obj):
        yield pattern, path


def reads_as_rational(text):
    try:
        Fraction(text)
    except ValueError:
        return False
    return True


def mutants(obj, keys):
    """(path, value, mutated copy) for the first leaf of each pattern under
    the top-level keys the reader reads."""
    first = {}
    for pattern, path in numeric_leaves({k: obj[k] for k in keys or obj}):
        first.setdefault(pattern, path)
    for path in first.values():
        *parents, last = path
        n = Fraction(functools.reduce(operator.getitem, path, obj))
        for value in (True, float(n), float(n) + 0.5):
            mutant = copy.deepcopy(obj)
            functools.reduce(operator.getitem, parents, mutant)[last] = value
            yield path, value, mutant


PATH = "<path>"
CAMPAIGN_KINDS = ["run", "family-kind", "family-sets", "family-tails",
                  "adf-separation", "adf-census", "set", "compute-map",
                  "compute-hahn-banach", "compute-matrix", "config"]


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """Input kind -> (file object, top-level keys its reader reads or None
    for all, argv with PATH for the file)."""
    d = tmp_path_factory.mktemp("campaign")
    pair = {"f": {"kind": "branch", "count": 2, "depth": 4},
            "g": {"kind": "progression", "count": 2, "depth": 4}}
    write_json(d / "pair.json", pair)
    assert main(["forge-matrix", "--families", str(d / "pair.json"),
                 "--horizon", "8", "--out", str(d / "run.json")]) == 0
    adf_path = str(d / "adf.json")
    assert main(["build-adf", "--kind", "branch", "--count", "3",
                 "--depth", "2", "--out", adf_path]) == 0
    run = json.loads((d / "run.json").read_text())
    adf = json.loads((d / "adf.json").read_text())
    sets = adf["sets"]
    forge = ["forge-matrix", "--horizon", "8", "--families", PATH]
    vector = {"lo": 0, "hi": 2, "coords": ["1", "1/2"]}
    return d, {
        "run": (run, ["chain", "config", "failure", "families", "hit_log",
                      "matrix"], ["verify-run", PATH]),
        "family-kind": (pair, None, forge),
        "family-sets": ({"f": sets[:2], "g": copy.deepcopy(sets[1:])}, None, forge),
        "family-tails": (run["families"], None, forge),
        "adf-separation": (adf, ["sets"], ["check-separation", "--family", PATH,
                                           "--inside", "0", "--outside", "2"]),
        "adf-census": (adf, ["sets"], ["mad-census", "--family", PATH]),
        "set": (sets[0], None, ["mad-census", "--family", adf_path, "--x", PATH]),
        "compute-map": ({"lo": 0, "hi": 2, "basis": [vector],
                         "images": [dict(vector, coords=["2", "0"])]},
                        None, ["compute", "op-norm", "--in", PATH]),
        "compute-hahn-banach": ({"lo": 0, "hi": 2, "basis": [vector], "phi": ["1"]},
                                None, ["compute", "hahn-banach", "--in", PATH]),
        "compute-matrix": ({"matrix": {"row_lo": 0, "row_hi": 2, "col_lo": 0,
                                       "col_hi": 2,
                                       "entries": [[0, 0, "1"], [1, 1, "-1/2"]]}},
                           None, ["compute", "op-norm", "--in", PATH]),
        "config": (run["config"], None, ["--config", PATH, "build-adf",
                                         "--kind", "branch", "--count", "2"]),
    }


@pytest.mark.parametrize("kind", CAMPAIGN_KINDS)
def test_no_float_or_bool_is_read_as_a_number(capsys, campaign, kind):
    d, inputs = campaign
    obj, keys, argv = inputs[kind]
    path = d / ("%s.json" % kind)
    argv = [str(path) if a == PATH else a for a in argv]
    write_json(path, obj)
    capsys.readouterr()
    assert main(argv) == 0  # the file as written is accepted
    capsys.readouterr()
    wrong, count = [], 0
    for where, value, mutant in mutants(obj, keys):
        count += 1
        # a float is not canonical JSON, so the file is written by json
        path.write_text(json.dumps(mutant))
        code = main(argv)
        captured = capsys.readouterr()
        if not (code == 2 and captured.out == "" and
                captured.err.startswith("error: ") and
                captured.err.count("\n") == 1):
            wrong.append("%s = %r: exit %s, %s" % (
                "/".join(map(str, where)), value, code,
                captured.err.strip().splitlines()[-1:]))
    assert count and wrong == []
