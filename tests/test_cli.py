"""Command-line surface: every subcommand, exit codes, determinism."""

import json
import time

import pytest

from qforge import cli, jsonio
from qforge.adf.families import MAX_BLOCKS, MAX_COUNT, MAX_DEPTH
from qforge.cli import main
from qforge.jsonio import write_json

# each kind's MAX_COUNT is set so that build-adf at that count takes at
# most 2 s on a 2-vCPU machine
BUILD_ADF_BUDGET_S = 20
# build-coherent with 10^9 cells, or with MAX_BLOCKS cells and blocks,
# takes at most about 1 s on a 2-vCPU machine
BUILD_COHERENT_BUDGET_S = 10
# a set's normal form costs what its residues cost, whatever the size
# of its modulus, so a prime modulus near 2^61 takes well under 1 s
BIG_MODULUS_BUDGET_S = 2
BIG_PRIME = 2 ** 61 - 1


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


@pytest.fixture
def fam_file(tmp_path, capsys):
    path = tmp_path / "fam.json"
    code, _ = run_cli(capsys, "build-adf", "--kind", "progression",
                      "--count", "3", "--out", str(path))
    assert code == 0
    return path


class TestBuildAdf:
    def test_progression(self, capsys, tmp_path):
        code, obj = run_cli(capsys, "build-adf", "--kind", "progression",
                            "--count", "3")
        assert code == 0
        assert len(obj["sets"]) == 3 and obj["failures"] == []

    def test_luzin_invariant_report(self, capsys):
        code, obj = run_cli(capsys, "build-adf", "--kind", "luzin",
                            "--count", "20")
        assert code == 0
        assert obj["luzin_bound"]

    def test_bad_params_exit_2(self, capsys):
        code, _ = run_cli(capsys, "build-adf", "--kind", "branch",
                          "--count", "100", "--depth", "3")
        assert code == 2

    @pytest.mark.parametrize("kind", sorted(MAX_COUNT))
    def test_largest_count_within_budget(self, capsys, kind):
        def build(count):
            # a branch family of count sets needs 2^depth >= count
            return main(["build-adf", "--kind", kind, "--count", str(count),
                         "--depth", str((count - 1).bit_length())])

        top = MAX_COUNT[kind]
        t0 = time.monotonic()
        code = build(top)
        elapsed = time.monotonic() - t0
        assert code == 0
        assert len(json.loads(capsys.readouterr().out)["sets"]) == top
        assert elapsed < BUILD_ADF_BUDGET_S, (
            "budget exceeded: %.2fs > %ds" % (elapsed, BUILD_ADF_BUDGET_S))
        assert build(top + 1) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: %s count must be in [1, %d]\n" % (
            kind, top)

    def test_largest_depth_within_budget(self, capsys):
        def build(depth):
            return main(["build-adf", "--kind", "branch", "--count",
                         str(MAX_COUNT["branch"]), "--depth", str(depth)])

        t0 = time.monotonic()
        code = build(MAX_DEPTH)
        elapsed = time.monotonic() - t0
        assert code == 0
        assert json.loads(capsys.readouterr().out)["params"]["depth"] == (
            MAX_DEPTH)
        assert elapsed < BUILD_ADF_BUDGET_S, (
            "budget exceeded: %.2fs > %ds" % (elapsed, BUILD_ADF_BUDGET_S))
        for depth in (MAX_DEPTH + 1, -1):
            assert build(depth) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: depth must be in [0, %d]\n" % (
                MAX_DEPTH)

    def test_deterministic(self, capsys):
        a = run_cli(capsys, "build-adf", "--kind", "branch", "--count", "4")
        b = run_cli(capsys, "build-adf", "--kind", "branch", "--count", "4")
        assert a == b


class TestSeparationAndCensus:
    def test_separation(self, capsys, fam_file):
        code, obj = run_cli(capsys, "check-separation", "--family",
                            str(fam_file), "--inside", "0", "1",
                            "--outside", "2")
        assert code == 0
        assert len(obj["inside_exceptions"]) == 2
        assert len(obj["outside_exceptions"]) == 1

    def test_census(self, capsys, fam_file):
        code, obj = run_cli(capsys, "mad-census", "--family", str(fam_file))
        assert code == 0
        assert obj["infinite_meet"] == [0, 1, 2]

    def test_missing_file_exit_2(self, capsys):
        code, _ = run_cli(capsys, "mad-census", "--family", "/no/such.json")
        assert code == 2

    def test_census_over_coprime_moduli(self, capsys, tmp_path):
        # the rules 1 mod 2 * 131073 and 0 mod 2 * 131075 never meet, and
        # their union would lift past MAX_LIFT; the residual is infinite,
        # so the census lifts no union
        path = tmp_path / "f.json"
        write_json(path, {"sets": [
            {"threshold": 0, "modulus": 2 * 131073, "residues": [1],
             "below": []},
            {"threshold": 0, "modulus": 2 * 131075, "residues": [0],
             "below": []}]})
        t0 = time.monotonic()
        code, obj = run_cli(capsys, "mad-census", "--family", str(path))
        assert time.monotonic() - t0 < 1
        assert code == 0
        assert obj["infinite_meet"] == [0, 1]
        assert obj["residual_finite"] is False

    def test_census_on_a_long_progression_family(self, capsys, tmp_path):
        # set i has modulus 2^(i+1), so the union of the family would lift
        # 2^64 residues; the shares 2^-(i+1) leave a share 2^-64 uncovered
        path = tmp_path / "f.json"
        assert main(["build-adf", "--kind", "progression", "--count", "64",
                     "--out", str(path)]) == 0
        capsys.readouterr()
        t0 = time.monotonic()
        code, obj = run_cli(capsys, "mad-census", "--family", str(path))
        assert time.monotonic() - t0 < 1
        assert code == 0
        assert obj["infinite_meet"] == list(range(64))
        assert obj["residual_finite"] is False
        assert obj["covering_indices"] == []

    @pytest.mark.parametrize("below, residual", [([], []), ([0], [0])])
    def test_census_of_odd_numbers_on_a_long_progression_family(
            self, capsys, tmp_path, below, residual):
        # x = the odd numbers, and 0 or not, meets set 0 (the odd numbers)
        # alone infinitely; the union of the whole family would lift to
        # modulus 2^64, the union of the meets lifts to modulus 2
        path, x = tmp_path / "f.json", tmp_path / "x.json"
        assert main(["build-adf", "--kind", "progression", "--count", "64",
                     "--out", str(path)]) == 0
        write_json(x, {"threshold": len(below), "modulus": 2, "residues": [1],
                       "below": below})
        capsys.readouterr()
        t0 = time.monotonic()
        code, obj = run_cli(capsys, "mad-census", "--family", str(path),
                            "--x", str(x))
        assert time.monotonic() - t0 < 1
        assert code == 0
        assert obj["infinite_meet"] == [0]
        assert obj["residual_finite"] is True
        assert obj["residual"] == residual
        assert obj["covering_indices"] == [0]

    @pytest.mark.parametrize("command, want", [
        (("mad-census", "--family", "{progressions}", "--x", "{multiples}"),
         {"infinite_meet": [0, 1, 2], "residual_finite": False}),
        (("mad-census", "--family", "{pair}"),
         {"infinite_meet": [0, 1], "residual_finite": False}),
        (("check-separation", "--family", "{pair}", "--inside", "0",
          "--outside", "1"),
         {"inside_exceptions": [[]], "outside_exceptions": [[]]}),
    ])
    def test_a_prime_modulus_near_2_61_within_budget(self, capsys, tmp_path,
                                                     command, want):
        # the pair holds the rules 0 and 1 mod 2^61 - 1, x the first
        paths = {k: tmp_path / (k + ".json")
                 for k in ("progressions", "multiples", "pair")}
        assert main(["build-adf", "--kind", "progression", "--count", "3",
                     "--out", str(paths["progressions"])]) == 0
        capsys.readouterr()
        rules = [{"threshold": 0, "modulus": BIG_PRIME, "residues": [r],
                  "below": []} for r in (0, 1)]
        write_json(paths["multiples"], rules[0])
        write_json(paths["pair"], {"sets": rules})
        t0 = time.monotonic()
        code, obj = run_cli(capsys, *(a.format(**paths) for a in command))
        elapsed = time.monotonic() - t0
        assert code == 0
        assert {k: obj[k] for k in want} == want
        assert elapsed < BIG_MODULUS_BUDGET_S, (
            "budget exceeded: %.2fs > %ds" % (elapsed, BIG_MODULUS_BUDGET_S))


class TestBuildCoherent:
    @pytest.mark.parametrize("cells, blocks", [
        (10 ** 9, 4), (MAX_BLOCKS, MAX_BLOCKS)])
    def test_large_sizes_within_budget(self, capsys, cells, blocks):
        # the limit core ranks range points of the size of --cells, and
        # the stages and their coherence pairs grow with --blocks
        t0 = time.monotonic()
        code, obj = run_cli(capsys, "build-coherent", "--cells", str(cells),
                            "--blocks", str(blocks), "--cap", "w*%d" % blocks)
        elapsed = time.monotonic() - t0
        assert code == 0
        assert obj["cap"] == "w*%d" % blocks and obj["failures"] == []
        assert elapsed < BUILD_COHERENT_BUDGET_S, (
            "budget exceeded: %.2fs > %ds" % (elapsed, BUILD_COHERENT_BUDGET_S))

    def test_a_prime_cell_count_near_2_61_within_budget(self, capsys):
        t0 = time.monotonic()
        code, obj = run_cli(capsys, "build-coherent", "--cells",
                            str(BIG_PRIME), "--blocks", "2")
        elapsed = time.monotonic() - t0
        assert code == 0
        assert obj["cells"] == BIG_PRIME and obj["failures"] == []
        assert elapsed < BIG_MODULUS_BUDGET_S, (
            "budget exceeded: %.2fs > %ds" % (elapsed, BIG_MODULUS_BUDGET_S))

    def test_report(self, capsys):
        code, obj = run_cli(capsys, "build-coherent", "--cells", "8",
                            "--blocks", "2", "--cap", "w*2")
        assert code == 0
        assert obj["cap"] == "w*2"
        # no chain step moves a value, so no two stages differ anywhere
        assert obj["coherence_exceptions"]
        for exc in obj["coherence_exceptions"].values():
            assert exc == []
        assert obj["chain_sets"]


class TestCompute:
    def test_op_norm_identity(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        write_json(path, {"matrix": {
            "row_lo": 0, "row_hi": 2, "col_lo": 0, "col_hi": 2,
            "entries": [[0, 0, "1"], [1, 1, "1"]]}})
        code, obj = run_cli(capsys, "compute", "op-norm", "--in", str(path))
        assert code == 0 and obj["norm"] == "1"

    def test_hahn_banach_demo(self, capsys, tmp_path):
        path = tmp_path / "hb.json"
        write_json(path, {"lo": 0, "hi": 3,
                          "basis": [{"lo": 0, "hi": 3,
                                     "coords": ["1", "1", "0"]}],
                          "phi": ["1"]})
        code, obj = run_cli(capsys, "compute", "hahn-banach",
                            "--in", str(path))
        assert code == 0 and obj["norm"] == "1"

    def test_extend_iso_demo(self, capsys, tmp_path):
        path = tmp_path / "ext.json"
        write_json(path, {"lo": 0, "hi": 4,
                          "basis": [{"lo": 0, "hi": 4,
                                     "coords": ["1", "0", "0", "0"]}],
                          "images": [{"lo": 0, "hi": 4,
                                      "coords": ["0", "1", "0", "0"]}]})
        code, obj = run_cli(capsys, "compute", "extend-iso",
                            "--in", str(path))
        assert code == 0
        assert obj["w"]["entries"] and obj["w_inv"]["entries"]

    def test_lower_bound(self, capsys, tmp_path):
        path = tmp_path / "lb.json"
        write_json(path, {"lo": 0, "hi": 2,
                          "basis": [{"lo": 0, "hi": 2, "coords": ["1", "0"]}],
                          "images": [{"lo": 0, "hi": 2, "coords": ["0", "3"]}]})
        code, obj = run_cli(capsys, "compute", "lower-bound",
                            "--in", str(path))
        assert code == 0 and obj["bound"] == "3"

    def test_thirteen_dimensional_map(self, capsys, tmp_path):
        # T e_k = e_(13+k) + e_(13+(k+1) mod 13) / 2 on [0, 26): no
        # dimension cap, and the images overlap, so both run the LP
        def vec(entries):
            return {"lo": 0, "hi": 26,
                    "coords": [entries.get(i, "0") for i in range(26)]}
        path = tmp_path / "t13.json"
        write_json(path, {
            "lo": 0, "hi": 26,
            "basis": [vec({k: "1"}) for k in range(13)],
            "images": [vec({13 + k: "1", 13 + (k + 1) % 13: "1/2"})
                       for k in range(13)]})
        code, obj = run_cli(capsys, "compute", "op-norm", "--in", str(path))
        assert code == 0 and obj["norm"] == "3/2"
        # the inverse sums (-S/2)^k over k < 13 divided by 1 + 2^-13
        code, obj = run_cli(capsys, "compute", "lower-bound",
                            "--in", str(path))
        assert code == 0 and obj["bound"] == "8193/16382"


class TestForgeAndVerify:
    def test_forge_then_verify(self, capsys, tmp_path):
        fam = tmp_path / "pf.json"
        write_json(fam, {"f": {"kind": "branch", "count": 2, "depth": 3},
                         "g": {"kind": "progression", "count": 2}})
        run_path = tmp_path / "run.json"
        code, obj = run_cli(capsys, "forge-matrix", "--families", str(fam),
                            "--horizon", "32", "--out", str(run_path))
        assert code == 0
        assert obj["failures"] == []
        assert obj["matrix"]["entries"] and obj["chain"][-1]["n"] >= 32
        code2, rep = run_cli(capsys, "verify-run", str(run_path))
        assert code2 == 0 and rep["failures"] == []

    def test_failed_forge_and_its_replay(self, capsys, tmp_path):
        # 12 branch tails against 12 progression tails: at horizon 64 no
        # stage up to search_cap commits the ninth index; the partial run
        # is written, and its replay gives the forge's report, abort first
        fam, run_path = tmp_path / "pf.json", tmp_path / "run.json"
        write_json(fam, {"f": {"kind": "branch", "count": 12, "depth": 4},
                         "g": {"kind": "progression", "count": 12}})
        assert main(["forge-matrix", "--families", str(fam), "--horizon", "64",
                     "--out", str(run_path)]) == 1
        forged = json.loads(capsys.readouterr().out)
        assert forged["failure"].startswith("hit (E, 8) failed: SearchExhaustedError: ")
        assert main(["verify-run", str(run_path)]) == 1
        replayed = capsys.readouterr().out
        assert replayed == jsonio.canonical_dumps(forged["report"])
        assert json.loads(replayed)["failures"][0] == "run aborted: " + forged["failure"]

    def test_horizon_not_a_power_of_two(self, capsys, tmp_path):
        # the D hits double up to 64, then the last one hits 100 itself
        fam, run_path = tmp_path / "pf.json", tmp_path / "run.json"
        write_json(fam, {"f": {"kind": "branch", "count": 4, "depth": 3},
                         "g": {"kind": "progression", "count": 4}})
        code, obj = run_cli(capsys, "forge-matrix", "--families", str(fam),
                            "--horizon", "100", "--out", str(run_path))
        assert code == 0 and obj["failures"] == []
        assert obj["hit_log"][-1] == ["D", 100, 7] and obj["chain"][-1]["n"] == 101
        code, rep = run_cli(capsys, "verify-run", str(run_path))
        assert code == 0 and rep["failures"] == []

    def test_luzin_32_pair_forges(self, capsys, tmp_path):
        # each stage is decided by its block's exact checks alone, which
        # accept blocks of norm 1 for 32 Luzin tails on each side
        fam, run_path = tmp_path / "pf.json", tmp_path / "run.json"
        write_json(fam, {"f": {"kind": "luzin", "count": 32},
                         "g": {"kind": "luzin", "count": 32}})
        code, obj = run_cli(capsys, "forge-matrix", "--families", str(fam),
                            "--out", str(run_path))
        assert code == 0 and obj["failures"] == []
        assert obj["chain"][-1]["n"] >= 512
        code, rep = run_cli(capsys, "verify-run", str(run_path))
        assert code == 0 and rep["failures"] == []

    def test_forge_deterministic_bytes(self, capsys, tmp_path):
        fam = tmp_path / "pf.json"
        write_json(fam, {"f": {"kind": "progression", "count": 2},
                         "g": {"kind": "progression", "count": 2}})
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code, _ = run_cli(capsys, "forge-matrix", "--families", str(fam),
                              "--horizon", "16", "--out", str(out))
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_corrupted_run_exits_nonzero(self, capsys, tmp_path):
        fam = tmp_path / "pf.json"
        write_json(fam, {"f": {"kind": "progression", "count": 1},
                         "g": {"kind": "progression", "count": 1}})
        run_path = tmp_path / "run.json"
        code, _ = run_cli(capsys, "forge-matrix", "--families", str(fam),
                          "--horizon", "8", "--out", str(run_path))
        assert code == 0
        obj = json.loads(run_path.read_text())
        obj["chain"][-1]["a"] = []
        write_json(run_path, obj)
        code2, rep = run_cli(capsys, "verify-run", str(run_path))
        assert code2 == 1
        assert any("(iii) committed indices were dropped" in f
                   for f in rep["failures"])

    def test_unknown_committed_index_is_a_failure(self, capsys, tmp_path):
        fam = tmp_path / "pf.json"
        write_json(fam, {"f": {"kind": "progression", "count": 1},
                         "g": {"kind": "progression", "count": 1}})
        run_path = tmp_path / "run.json"
        code, _ = run_cli(capsys, "forge-matrix", "--families", str(fam),
                          "--horizon", "8", "--out", str(run_path))
        assert code == 0
        obj = json.loads(run_path.read_text())
        obj["chain"][1]["a"] = [0, 7]
        write_json(run_path, obj)
        code2, rep = run_cli(capsys, "verify-run", str(run_path))
        assert code2 == 1
        assert any("(iv) index 7 outside the families" in f
                   for f in rep["failures"])


class TestMalformedInput:
    """A run or family file of the wrong shape exits 2 with one line on
    stderr, never a traceback."""

    @pytest.fixture
    def run_obj(self, capsys, tmp_path):
        fam = tmp_path / "pf.json"
        write_json(fam, {"f": {"kind": "progression", "count": 1},
                         "g": {"kind": "progression", "count": 1}})
        run_path = tmp_path / "run.json"
        code, _ = run_cli(capsys, "forge-matrix", "--families", str(fam),
                          "--horizon", "8", "--out", str(run_path))
        assert code == 0
        return json.loads(run_path.read_text())

    def verify(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code = main(["verify-run", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        return captured.err

    def test_empty_object_run_file(self, capsys, tmp_path):
        err = self.verify(capsys, tmp_path, "{}")
        assert err.startswith("error: malformed run file")

    def test_truncated_chain(self, capsys, tmp_path, run_obj):
        last = run_obj["chain"][-1]
        run_obj["chain"][-1] = {"n": last["n"], "a": last["a"]}
        err = self.verify(capsys, tmp_path, json.dumps(run_obj))
        assert err.startswith("error: malformed run file")
        run_obj["chain"] = []
        err = self.verify(capsys, tmp_path, json.dumps(run_obj))
        assert "chain" in err

    def test_truncated_file(self, capsys, tmp_path, run_obj):
        text = json.dumps(run_obj)
        err = self.verify(capsys, tmp_path, text[:len(text) // 2])
        assert err.startswith("error: malformed run file")

    @pytest.mark.parametrize("op", ["op-norm", "lower-bound", "hahn-banach",
                                    "extend-iso"])
    def test_empty_object_compute_input(self, capsys, tmp_path, op):
        path = tmp_path / "in.json"
        path.write_text("{}")
        code = main(["compute", op, "--in", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: malformed compute input")
        assert captured.err.count("\n") == 1

    def test_malformed_family_files(self, capsys, tmp_path):
        path = tmp_path / "fam.json"
        for text in ('{"f": [], "g": {"kind": "branch"}', '[1, 2]',
                     '{"f": [{"threshold": 0}], "g": []}'):
            path.write_text(text)
            code = main(["forge-matrix", "--families", str(path)])
            err = capsys.readouterr().err
            assert code == 2
            assert err.startswith("error: malformed family file")
        path.write_text('{"sets": [{"modulus": 2}]}')
        code = main(["mad-census", "--family", str(path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: malformed family file")


def _pair_file(tmp_path):
    path = tmp_path / "pf.json"
    write_json(path, {"f": {"kind": "progression", "count": 2},
                      "g": {"kind": "progression", "count": 2}})
    return str(path)


def _matrix_file(tmp_path):
    path = tmp_path / "m.json"
    write_json(path, {"matrix": {
        "row_lo": 0, "row_hi": 2, "col_lo": 0, "col_hi": 2,
        "entries": [[0, 0, "1"], [0, 1, "-1/2"], [1, 1, "3"]]}})
    return str(path)


def _run_file(tmp_path):
    path = tmp_path / "run.json"
    assert main(["forge-matrix", "--families", _pair_file(tmp_path),
                 "--horizon", "16", "--out", str(path)]) == 0
    return str(path)


# the argv of each command that takes --out, after its input files are made
OUT_COMMANDS = {
    "build-adf": lambda tmp: ["build-adf", "--kind", "branch", "--count", "4",
                              "--depth", "3"],
    "build-coherent": lambda tmp: ["build-coherent", "--cells", "4"],
    "compute-op-norm": lambda tmp: ["compute", "op-norm", "--in",
                                    _matrix_file(tmp)],
    "forge-matrix": lambda tmp: ["forge-matrix", "--families", _pair_file(tmp),
                                 "--horizon", "16"],
    "verify-run": lambda tmp: ["verify-run", _run_file(tmp)],
}


class TestOneWriter:
    """--out writes the printed bytes through jsonio.write_json, from the
    one serialization that stdout prints."""

    @pytest.mark.parametrize("argv", OUT_COMMANDS.values(), ids=OUT_COMMANDS)
    def test_out_file_holds_the_printed_bytes(self, capsys, tmp_path,
                                              monkeypatch, argv):
        argv = argv(tmp_path)
        capsys.readouterr()
        dumps, write = jsonio.canonical_dumps, jsonio.write_json
        dumped, written = [], []

        def counted_dumps(obj):
            dumped.append(obj)
            return dumps(obj)

        def counted_write(path, obj):
            written.append(path)
            return write(path, obj)
        monkeypatch.setattr(jsonio, "canonical_dumps", counted_dumps)
        monkeypatch.setattr(cli, "canonical_dumps", counted_dumps)
        monkeypatch.setattr(cli, "write_json", counted_write)
        out = tmp_path / "out.json"
        assert main(argv + ["--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert printed and out.read_bytes() == printed.encode()
        assert len(dumped) == 1 and written == [str(out)]

    @pytest.mark.parametrize("argv", OUT_COMMANDS.values(), ids=OUT_COMMANDS)
    def test_unwritable_out_is_one_io_error(self, capsys, tmp_path, argv):
        argv = argv(tmp_path)
        capsys.readouterr()
        out = tmp_path / "no-such-dir" / "out.json"
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("io error: ")
        assert captured.err.count("\n") == 1
