"""The three benchmark workloads.

Each workload is a closed loop with one caller.  It has a set-up step
(import qforge, generate the inputs, make a temp dir) and a round, the unit
of work that is repeated while the run lasts.  A round appends one sample
per operation to `samples["op"]` and one per checking step to
`samples["check"]`; a sample is the list of clock windows it spans.  Every
failed check is counted in `failed`.

- forge: `forge-matrix` on the criterion-7 pair, then `verify-run` replays.
- amalgamate: the criterion-8 batch of sigma-linked amalgamations.
- certify: a fixed set of family and coherence commands.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import sys
import time

MODULES = ("linalg", "simplex", "geometry", "tails", "forcing", "jsonio",
           "config", "adf.certset", "adf.families", "adf.coherent", "cli")

CRITERION_8_SEED = 20260823 + 5   # the default seed reproduces criterion 8
HELD_OUT_SEED = 20261017          # kept for checking claims after the fact


def import_qforge():
    """Import the qforge modules afresh, as a new process would."""
    for name in [m for m in sys.modules
                 if m == "qforge" or m.startswith("qforge.")]:
        del sys.modules[name]
    return {m: importlib.import_module("qforge." + m) for m in MODULES}


def sha256(data):
    return hashlib.sha256(data.encode() if isinstance(data, str)
                          else data).hexdigest()


class Run:
    """State shared by the rounds of one run: samples, errors, digests."""

    def __init__(self, clock, deadline):
        self.clock = clock
        self.samples = {"op": [], "check": []}
        self.errors = []
        self.attempted = 0
        self.failed = 0
        self.digests = {}          # output name -> sha256 of its bytes
        self.output_bytes = 0
        self.tracer = None
        self.deadline = deadline

    def operation(self, op_id, limit, fn, *args):
        """Run fn(*args) under a time limit; return (ok, result, window).
        An exception or a timeout counts as a failed operation."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = op_id
        limit = max(min(limit, self.deadline - time.monotonic()), 1.0)
        t0 = time.perf_counter()
        try:
            result, window = self.clock.call(limit, fn, *args)
        except Exception as e:       # a failed operation is counted, not fatal
            self.fail("%s: %s: %s" % (op_id, type(e).__name__, e))
            return False, None, (t0, time.perf_counter())
        return True, result, window

    def fail(self, message):
        self.failed += 1
        self.errors.append(message)

    def same_bytes(self, name, data):
        """Record the digest of an output; a rerun must give equal bytes."""
        digest = sha256(data)
        if self.digests.setdefault(name, digest) != digest:
            self.fail("%s: rerun is not byte-identical" % name)


def run_cli(qf, argv):
    """`qforge <argv>` in-process; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = qf["cli"].main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
    return code, out.getvalue()


def _failures_of(text):
    try:
        return json.loads(text).get("failures", ["unparseable output"])
    except ValueError:
        return ["unparseable output"]


def _write_families(qf, path, f_gen, g_gen):
    fam = qf["adf.families"]
    sides = {}
    for side, (kind, count, depth) in (("f", f_gen), ("g", g_gen)):
        sets = fam.make_family(fam.FamilyGenerator(kind, count=count,
                                                   depth=depth)).sets
        sides[side] = [s.to_json_obj() for s in sets]
    with open(path, "w") as fh:
        json.dump(sides, fh)


class Forge:
    """forge-matrix on a branch/progression pair, then verify-run replays
    of the run file it wrote."""

    name = "forge"
    min_rounds = 2                  # two forges, so every run checks a rerun
    op_limit = 90.0
    check_limit = 20.0

    def __init__(self, smoke=False, seed=CRITERION_8_SEED):
        # criterion 7: f = branch K=8 depth 3, g = progression K=8; smoke
        # mode uses the forge_demo pair.  The pair has no random part, so
        # the seed does not change this workload's input.
        k, self.horizon = (4, 128) if smoke else (8, 512)
        self.pair = (("branch", k, 3), ("progression", k, 4))
        self.replays = 2 if smoke else 5

    def setup(self, qf, work):
        pair_path = work / "pair.json"
        _write_families(qf, pair_path, *self.pair)
        return {"qf": qf, "pair": str(pair_path), "run": str(work / "run.json")}

    def round(self, state, run, index):
        qf = state["qf"]
        argv = ["forge-matrix", "--families", state["pair"], "--rho", "4",
                "--c2", "64", "--horizon", str(self.horizon),
                "--out", state["run"]]
        ok, res, window = run.operation("forge#%d" % index, self.op_limit,
                                        run_cli, qf, argv)
        run.samples["op"].append([window])
        if not ok:
            return
        code, text = res
        if code != 0 or _failures_of(text):
            run.fail("forge#%d: exit %s, failures %s"
                     % (index, code, _failures_of(text)[:3]))
            return
        with open(state["run"], "rb") as fh:
            data = fh.read()
        run.output_bytes = len(data)
        run.same_bytes("run.json", data)
        for k in range(self.replays):
            ok, res, window = run.operation("verify#%d.%d" % (index, k),
                                            self.check_limit, run_cli, qf,
                                            ["verify-run", state["run"]])
            run.samples["check"].append([window])
            if not ok:
                continue
            code, text = res
            if code != 0 or _failures_of(text):
                run.fail("verify#%d.%d: exit %s" % (index, k, code))
            run.same_bytes("verify-run report", text)


def _criterion8_draw(rng, k):
    return (tuple(rng.sample(range(k), rng.randint(1, 3))),
            tuple(rng.sample(range(k), rng.randint(1, 3))))


def _shape(a, b):
    return set(a) | set(b), set(b) <= set(a), len(a), len(b)


def amalgamation_draws(seed, count, k=8):
    """Index subsets (1-3 per side) for `count` amalgamations.

    Draw j is taken from random.Random(seed) with the criterion-8 rule,
    redrawn until it has the same union, the same side sizes and the same
    "one side holds the other" shape as draw j of criterion 8.  The union
    fixes the stage the search must reach, and so most of the cost: without
    this, whether 25 or 30 of 50 draws contain index 7 moves the median
    call by a factor of two from seed to seed; the side sizes fix the work
    of the cond_leq checks.  The seed still decides which indices each side
    holds; the default seed gives exactly the criterion-8 draws."""
    ref = random.Random(CRITERION_8_SEED)
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        want = _shape(*_criterion8_draw(ref, k))
        while True:
            a, b = _criterion8_draw(rng, k)
            if _shape(a, b) == want:
                break
        out.append((a, b))
    return out


class Amalgamate:
    """sigma-linked amalgamations over the stem dense_hit_D(trivial, 16),
    each followed by validate_condition and cond_leq against both inputs;
    then the whole batch of results is validated again, as one check."""

    name = "amalgamate"
    min_rounds = 1
    op_limit = 20.0
    check_passes = 3

    def __init__(self, smoke=False, seed=CRITERION_8_SEED):
        self.draws = amalgamation_draws(seed, 5 if smoke else 50)

    def setup(self, qf, work):
        fam, forcing = qf["adf.families"], qf["forcing"]
        f = fam.make_family(fam.FamilyGenerator("branch", count=8, depth=3))
        g = fam.make_family(fam.FamilyGenerator("progression", count=8))
        families = forcing.paired_from_certsets(f.sets, g.sets)
        config = qf["config"].RunConfig(horizon=512)
        stem = forcing.dense_hit_D(forcing.Condition.trivial(), 16,
                                   families, config)
        return {"qf": qf, "families": families, "config": config,
                "stem": stem}

    def _inputs(self, state, aa, bb):
        forcing, stem = state["qf"]["forcing"], state["stem"]
        return (forcing.Condition(stem.n, stem.m, aa, stem.cuts, stem.inv),
                forcing.Condition(stem.n, stem.m, bb, stem.cuts, stem.inv))

    def _validate(self, state, r, p, q):
        forcing, families = state["qf"]["forcing"], state["families"]
        problems = list(forcing.validate_condition(r, families,
                                                   state["config"]))
        for base in (p, q):
            ok, wit = forcing.cond_leq(r, base, families)
            if not ok:
                problems.append("cond_leq: %s" % wit[:3])
        return problems

    def _call(self, state, aa, bb):
        p, q = self._inputs(state, aa, bb)
        r = state["qf"]["forcing"].amalgamate(p, q, state["stem"].n,
                                              state["families"],
                                              state["config"])
        return r, self._validate(state, r, p, q)

    def _check_batch(self, state, results):
        return [problem for (aa, bb), r in results
                for problem in self._validate(state, r,
                                              *self._inputs(state, aa, bb))]

    def round(self, state, run, index):
        dumps = state["qf"]["jsonio"].canonical_dumps
        total = 0
        results = []
        for j, (aa, bb) in enumerate(self.draws):
            ok, res, window = run.operation(
                "amalgamate#%d.%d" % (index, j), self.op_limit, self._call,
                state, aa, bb)
            run.samples["op"].append([window])
            if not ok:
                continue
            r, problems = res
            if problems:
                run.fail("amalgamate#%d.%d: %s" % (index, j, problems[:3]))
            results.append(((aa, bb), r))
            text = dumps(r.to_json_obj())
            total += len(text)
            run.same_bytes("amalgamation %d" % j, text)
        run.output_bytes = total
        for k in range(self.check_passes):
            ok, problems, window = run.operation(
                "amalgamate#%d.check%d" % (index, k), self.op_limit,
                self._check_batch, state, results)
            run.samples["check"].append([window])
            if ok and problems:
                run.fail("amalgamate#%d.check%d: %s"
                         % (index, k, problems[:3]))

    def recheck(self, state, run):
        """Rerun the first amalgamation; its bytes must not change."""
        ok, res, _ = run.operation("amalgamate#rerun", self.op_limit,
                                   self._call, state, *self.draws[0])
        if ok:
            dumps = state["qf"]["jsonio"].canonical_dumps
            run.same_bytes("amalgamation 0", dumps(res[0].to_json_obj()))


class Certify:
    """build-adf for three kinds, check-separation and mad-census on the
    branch family, and build-coherent; no matrix layer is on this path."""

    name = "certify"
    min_rounds = 2                  # two passes, so every run checks a rerun
    op_limit = 30.0

    def __init__(self, smoke=False, seed=CRITERION_8_SEED):
        if smoke:
            self.sizes = {"progression": ["--count", "8"],
                          "branch": ["--count", "8", "--depth", "3"],
                          "luzin": ["--count", "8"],
                          "coherent": ["--cells", "8", "--blocks", "2",
                                       "--cap", "w*2"]}
            count = 8
        else:
            self.sizes = {"progression": ["--count", "17"],
                          "branch": ["--count", "128", "--depth", "7"],
                          "luzin": ["--count", "128"],
                          "coherent": ["--cells", "64", "--blocks", "4",
                                       "--cap", "w*4"]}
            count = 128
        # The seed picks the two subfamilies that check-separation splits.
        picked = random.Random(seed).sample(range(count), 8)
        self.inside = [str(i) for i in sorted(picked[:4])]
        self.outside = [str(i) for i in sorted(picked[4:])]

    def setup(self, qf, work):
        return {"qf": qf, "work": work}

    def commands(self, work):
        branch = str(work / "branch.json")
        out = [("build-adf " + kind,
                ["build-adf", "--kind", kind] + self.sizes[kind]
                + ["--out", str(work / (kind + ".json"))], False)
               for kind in ("progression", "branch", "luzin")]
        out.append(("check-separation",
                    ["check-separation", "--family", branch, "--inside"]
                    + self.inside + ["--outside"] + self.outside, True))
        out.append(("mad-census", ["mad-census", "--family", branch], True))
        out.append(("build-coherent",
                    ["build-coherent"] + self.sizes["coherent"]
                    + ["--out", str(work / "coherent.json")], False))
        return out

    def round(self, state, run, index):
        qf = state["qf"]
        windows, checks = [], []
        total = 0
        for name, argv, is_check in self.commands(state["work"]):
            ok, res, window = run.operation("certify#%d %s" % (index, name),
                                            self.op_limit, run_cli, qf, argv)
            windows.append(window)
            if is_check:
                checks.append(window)
            if not ok:
                continue
            code, text = res
            if code != 0 or _failures_of(text):
                run.fail("certify#%d %s: exit %s" % (index, name, code))
            total += len(text)
            run.same_bytes(name, text)
        run.samples["op"].append(windows)
        run.samples["check"].append(checks)
        run.output_bytes = total


WORKLOADS = {w.name: w for w in (Forge, Amalgamate, Certify)}
