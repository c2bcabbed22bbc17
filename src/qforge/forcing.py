"""Forcing-style poset of block-diagonal matrix conditions.

A condition is a stage n, an n x n rational matrix, and a finite set of
committed indices into a pair of tail-vector families.  Extensions add
one block that maps each committed f-tail restriction exactly onto the
matching g-tail restriction while keeping all norms within budget.  The
greedy generic run hits a schedule of dense sets and assembles a fully
verified block-diagonal matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .config import RunConfig
from .errors import (
    ComplementNotFoundError,
    NormBudgetError,
    NotInjectiveError,
    NotInvertibleError,
    ParameterError,
    QForgeError,
    SearchExhaustedError,
    SingularMatrixError,
)
from .geometry import LinMap, Subspace, extend_isomorphism
from .jsonio import rmatrix_from_json, rmatrix_to_json
from .linalg import BlockLayout, RMatrix, block_compose, invert, op_norm_inf
from .tails import (
    TailVector,
    check_pi_injective,
    pi_section_norm,
    quotient_norm,
    r_operator_inverse_norm,
)

_CANDIDATE_ERRORS = (NormBudgetError, ComplementNotFoundError, ParameterError,
                     NotInvertibleError, SingularMatrixError, NotInjectiveError)


@dataclass(frozen=True)
class PairedFamilies:
    """The two indexed tail-vector families the poset interpolates between."""

    indices: tuple
    fs: tuple
    gs: tuple

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        if not (len(self.indices) == len(self.fs) == len(self.gs)):
            raise ParameterError("one f and one g per index required")
        if len(set(self.indices)) != len(self.indices):
            raise ParameterError("duplicate indices")
        for v in self.fs + self.gs:
            if v.sup_norm() != quotient_norm(v):
                raise ParameterError(
                    "family vectors must be normalized: sup norm equal to "
                    "quotient norm")
        if self.fs:
            check_pi_injective(list(self.fs))
            check_pi_injective(list(self.gs))
        object.__setattr__(self, "_by_index",
                           {i: k for k, i in enumerate(self.indices)})

    def f(self, xi) -> TailVector:
        return self.fs[self._by_index[xi]]

    def g(self, xi) -> TailVector:
        return self.gs[self._by_index[xi]]

    def to_json_obj(self):
        return {"indices": list(self.indices),
                "f": [v.to_json_obj() for v in self.fs],
                "g": [v.to_json_obj() for v in self.gs]}

    @staticmethod
    def from_json_obj(obj) -> "PairedFamilies":
        return PairedFamilies(
            tuple(obj["indices"]),
            tuple(TailVector.from_json_obj(v) for v in obj["f"]),
            tuple(TailVector.from_json_obj(v) for v in obj["g"]))


def paired_from_certsets(f_sets, g_sets) -> PairedFamilies:
    """Indicator tails of two equally sized certified-set families."""
    if len(f_sets) != len(g_sets):
        raise ParameterError("families must have equal size")
    return PairedFamilies(
        tuple(range(len(f_sets))),
        tuple(s.indicator_tail() for s in f_sets),
        tuple(s.indicator_tail() for s in g_sets))


@dataclass(frozen=True)
class Condition:
    n: int
    m: RMatrix
    a: tuple
    cuts: tuple = ()           # block boundaries 0 = c_0 < ... < c_k = n
    inv: RMatrix | None = None  # verified inverse carried alongside

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(sorted(set(self.a))))
        cuts = self.cuts or ((0,) if self.n == 0 else (0, self.n))
        object.__setattr__(self, "cuts", tuple(cuts))

    @staticmethod
    def trivial() -> "Condition":
        return Condition(0, RMatrix(0, 0, 0, 0, {}), (),
                         inv=RMatrix(0, 0, 0, 0, {}))

    def to_json_obj(self):
        return {"n": self.n, "a": list(self.a), "cuts": list(self.cuts),
                "m": rmatrix_to_json(self.m),
                "inv": rmatrix_to_json(self.inv) if self.inv else None}


def _block(m: RMatrix, lo: int, hi: int) -> RMatrix:
    return RMatrix(lo, hi, lo, hi, {
        i: {j: v for j, v in row.items() if lo <= j < hi}
        for i, row in m.rows.items() if lo <= i < hi})


def _inverse_of(p: Condition) -> RMatrix:
    """p.inv when carried, else blockwise inversion along p.cuts."""
    if p.inv is not None:
        return p.inv
    layout = BlockLayout(p.cuts)
    return block_compose([invert(_block(p.m, lo, hi))
                          for lo, hi in layout.blocks()], layout)


def _interpolation_failure(m: RMatrix, f, g, lo: int, hi: int):
    """The first (i, value) with lo <= i < hi where row i of m over the
    columns >= lo, applied to f, is not g(i); None when there is none."""
    for i in range(lo, hi):
        got = sum((v * f.value(j) for j, v in m.rows.get(i, {}).items()
                   if j >= lo), Fraction(0))
        if got != g.value(i):
            return i, got
    return None


def validate_condition(p: Condition, families: PairedFamilies,
                       config: RunConfig):
    """List of violations (empty means the condition is valid)."""
    out = []
    if p.m.window != (0, p.n, 0, p.n):
        out.append("(a) matrix window is not [0, %d)^2" % p.n)
        return out
    for xi in p.a:
        if xi not in families._by_index:
            out.append("(a) index %s outside the families" % (xi,))
    if p.n > 0:
        norm = op_norm_inf(p.m)
        if norm > config.c2:
            out.append("(b) matrix norm %s exceeds c2 = %s" % (norm, config.c2))
        try:
            inv = _inverse_of(p)
            if p.inv is not None and not (
                    p.m.matmul(inv).equals(RMatrix.identity(0, p.n))):
                out.append("(b) carried inverse fails M * inv = I")
            else:
                inorm = op_norm_inf(inv)
                if inorm > config.c2:
                    out.append("(b) inverse norm %s exceeds c2 = %s"
                               % (inorm, config.c2))
        except SingularMatrixError:
            out.append("(b) matrix is singular")
    good_a = [xi for xi in p.a if xi in families._by_index]
    if good_a:
        for name, vecs in (("F", [families.f(xi) for xi in good_a]),
                           ("G", [families.g(xi) for xi in good_a])):
            try:
                s = pi_section_norm(vecs, p.n)
            except NotInjectiveError:
                out.append("(c) %s-family span meets the vanishing ideal" % name)
                continue
            if s > 2:
                out.append("(c) %s-section norm %s exceeds 2" % (name, s))
    return out


def cond_leq(p: Condition, q: Condition, families: PairedFamilies):
    """Is p an extension of q?  Returns (bool, list of failure witnesses)."""
    out = []
    if p.n < q.n:
        out.append("(i) stage %d below %d" % (p.n, q.n))
        return False, out
    for i in range(q.n):
        prow = p.m.rows.get(i, {})
        qrow = q.m.rows.get(i, {})
        for j in set(prow) | set(qrow):
            pv, qv = prow.get(j, 0), qrow.get(j, 0)
            if j < q.n and pv != qv:
                out.append("(ii) entry (%d, %d) differs from the stem" % (i, j))
            if j >= q.n and pv != 0:
                out.append("(ii) entry (%d, %d) outside the block form" % (i, j))
    for i in range(q.n, p.n):
        for j, v in p.m.rows.get(i, {}).items():
            if j < q.n and v != 0:
                out.append("(ii) entry (%d, %d) outside the block form" % (i, j))
    if not set(q.a) <= set(p.a):
        out.append("(iii) committed indices were dropped")
    for xi in q.a:
        if xi not in families._by_index:
            out.append("(iv) index %s outside the families" % (xi,))
            continue
        g = families.g(xi)
        bad = _interpolation_failure(p.m, families.f(xi), g, q.n, p.n)
        if bad is not None:
            i, got = bad
            out.append("(iv) xi = %s fails at coordinate %d: %s != %s"
                       % (xi, i, got, g.value(i)))
    return not out, out


def _merge_blocks(stem: Condition, w: RMatrix, w_inv: RMatrix, n_r: int,
                  a_r) -> Condition:
    def grow(m, block):
        return RMatrix(0, n_r, 0, n_r, {**m.rows, **block.rows})
    return Condition(n_r, grow(stem.m, w), tuple(a_r), stem.cuts + (n_r,),
                     grow(_inverse_of(stem), w_inv))


def amalgamate(p: Condition, q: Condition, big_n: int,
               families: PairedFamilies, config: RunConfig) -> Condition:
    """Common extension of two conditions sharing a stem (n, M), with
    stage at least big_n; every returned condition is fully verified."""
    if p.n != q.n or not p.m.equals(q.m):
        raise ParameterError("conditions do not share a stem")
    for cond in (p, q):
        viol = validate_condition(cond, families, config)
        if viol:
            raise ParameterError("invalid input condition: %s" % "; ".join(viol))
    a_r = sorted(set(p.a) | set(q.a))
    n = p.n
    if set(a_r) == set(p.a) and set(q.a) <= set(p.a) and n >= big_n:
        return p

    if not a_r:
        n_r = max(n, big_n) + 1
        ident = RMatrix.identity(n, n_r)
        r = _merge_blocks(p, ident, ident, n_r, a_r)
        viol = validate_condition(r, families, config)
        if viol:
            raise SearchExhaustedError("identity extension invalid: %s" % viol)
        return r

    fs = [families.f(xi) for xi in a_r]
    gs = [families.g(xi) for xi in a_r]
    h = len(a_r)
    attempts = []
    offset = 1
    while n + offset <= config.search_cap:
        n_r = max(n, big_n) + offset
        offset *= 2
        if h * h > config.c1 * config.c1 * (n_r - n):
            attempts.append((n_r, "stage too small for %d indices" % h))
            continue
        try:
            for name, vecs in (("F", fs), ("G", gs)):
                s = pi_section_norm(vecs, n_r)
                if s > 2:
                    raise NormBudgetError(
                        "%s-section norm exceeds 2" % name, measured=s)
                rinv = r_operator_inverse_norm(vecs, n, n_r)
                if rinv > 2:
                    raise NormBudgetError(
                        "%s-restriction inverse norm exceeds 2" % name,
                        measured=rinv)
            fw = [f.restrict(n, n_r) for f in fs]
            gw = [g.restrict(n, n_r) for g in gs]
            # the block must send each f-window exactly to the matching
            # g-window: extend_isomorphism checks it on the block it builds
            t = LinMap(Subspace(n, n_r, tuple(fw)), tuple(gw))
            ext = extend_isomorphism(t, config=config)
        except _CANDIDATE_ERRORS as e:
            attempts.append((n_r, "%s: %s" % (type(e).__name__, e)))
            continue
        r = _merge_blocks(p, ext.w, ext.w_inv, n_r, a_r)
        viol = validate_condition(r, families, config)
        ok_p, wit_p = cond_leq(r, p, families)
        ok_q, wit_q = cond_leq(r, q, families)
        if viol or not ok_p or not ok_q:
            attempts.append((n_r, "verifier: %s" % (viol + wit_p + wit_q)))
            continue
        return r
    raise SearchExhaustedError(
        "no stage up to %d admits the extension; attempts: %s"
        % (config.search_cap, attempts[-3:]))


def dense_hit_D(p: Condition, n: int, families: PairedFamilies,
                config: RunConfig) -> Condition:
    """An extension with stage at least n."""
    if p.n >= n:
        return p
    return amalgamate(p, p, n, families, config)


def dense_hit_E(p: Condition, xi, families: PairedFamilies,
                config: RunConfig) -> Condition:
    """An extension committing the index xi."""
    if xi not in families._by_index:
        raise ParameterError("index %s outside the families" % (xi,))
    if xi in p.a:
        return p
    q = Condition(p.n, p.m, (xi,), cuts=p.cuts, inv=p.inv)
    return amalgamate(p, q, p.n, families, config)


def default_schedule(families: PairedFamilies, horizon: int):
    """Round-robin through every E_xi, then D_n for doubling n."""
    sched = [("E", xi) for xi in families.indices]
    n = 2
    while n <= horizon:
        sched.append(("D", n))
        n *= 2
    if not sched or sched[-1] != ("D", horizon):
        sched.append(("D", horizon))
    return tuple(sched)


@dataclass(frozen=True)
class GenericRun:
    chain: tuple               # decreasing sequence of conditions
    hit_log: tuple             # (kind, param, chain index after the hit)
    entry_stage: dict          # xi -> stage from which interpolation holds
    horizon: int
    config: RunConfig
    failure: str | None = None

    @property
    def final(self) -> Condition:
        return self.chain[-1]

    def to_json_obj(self):
        """The final matrix once; per condition, what its block adds."""
        lows = [0] + [c.n for c in self.chain]
        return {
            "chain": [{"n": c.n, "a": list(c.a), "inv": rmatrix_to_json(
                _block(_inverse_of(c), lo, c.n))}
                for lo, c in zip(lows, self.chain)],
            "hit_log": [[k, v, i] for k, v, i in self.hit_log],
            "entry_stage": {str(k): v for k, v in sorted(self.entry_stage.items())},
            "horizon": self.horizon,
            "config": self.config.to_json_obj(),
            "failure": self.failure,
            "layout": list(self.final.cuts),
            "matrix": rmatrix_to_json(self.final.m),
        }

    @staticmethod
    def from_json_obj(obj) -> "GenericRun":
        """Condition k: the matrix on [0, n_k)^2 and block inverses 0..k."""
        if not obj["chain"]:
            raise ParameterError("a run's chain holds at least one condition")
        stages = tuple(int(c["n"]) for c in obj["chain"])
        binvs = [rmatrix_from_json(c["inv"]) for c in obj["chain"]]
        if stages[0] != 0 or binvs[0].window != (0, 0, 0, 0):
            raise ParameterError("a run's chain starts at the empty stage 0")
        matrix = rmatrix_from_json(obj["matrix"])
        if matrix.window != (0, stages[-1], 0, stages[-1]):
            raise ParameterError("matrix window is not [0, %d)^2" % stages[-1])
        chain = tuple(
            Condition(n, _block(matrix, 0, n), tuple(c["a"]), stages[:k + 1],
                      block_compose(binvs[1:k + 1],
                                    BlockLayout(stages[:k + 1])))
            for k, (n, c) in enumerate(zip(stages, obj["chain"])))
        return GenericRun(
            chain,
            tuple((k, v, i) for k, v, i in obj["hit_log"]),
            {int(k): v for k, v in obj["entry_stage"].items()},
            obj["horizon"], RunConfig.from_json_obj(obj["config"]),
            obj["failure"])


def _entry_stages(chain) -> dict:
    """xi -> the stage of the condition before the first committing xi."""
    entry, prev = {}, 0
    for c in chain:
        for xi in c.a:
            entry.setdefault(xi, prev)
        prev = c.n
    return entry


def run_generic(families: PairedFamilies, horizon=None,
                config: RunConfig | None = None) -> GenericRun:
    """Greedy decreasing chain hitting every scheduled dense set, starting
    from the trivial condition.  Deterministic given its inputs."""
    config = config or RunConfig()
    horizon = horizon or config.horizon
    schedule = config.schedule or default_schedule(families, horizon)
    chain = [Condition.trivial()]
    log = []
    failure = None
    for kind, param in schedule:
        p = chain[-1]
        try:
            if kind == "E":
                r = dense_hit_E(p, param, families, config)
            elif kind == "D":
                r = dense_hit_D(p, param, families, config)
            else:
                raise ParameterError("unknown dense-set kind %r" % kind)
        except QForgeError as e:
            failure = "hit (%s, %s) failed: %s: %s" % (
                kind, param, type(e).__name__, e)
            break
        if r is not p:
            chain.append(r)
        log.append((kind, param, len(chain) - 1))
    return GenericRun(tuple(chain), tuple(log), _entry_stages(chain), horizon,
                      config, failure)


def verify_run(run: GenericRun, families: PairedFamilies,
               config: RunConfig | None = None) -> dict:
    """Replay every claim of a run; the report lists all failures."""
    config = config or run.config
    failures = []
    details = {"blocks": [], "indices": {}}
    if run.failure:
        failures.append("run aborted: %s" % run.failure)

    # (1) chain order, including one-step-skipping transitivity
    for k in range(len(run.chain) - 1):
        ok, wit = cond_leq(run.chain[k + 1], run.chain[k], families)
        if not ok:
            failures.append("chain step %d: %s" % (k, wit[:3]))
    for k in range(len(run.chain) - 2):
        ok, wit = cond_leq(run.chain[k + 2], run.chain[k], families)
        if not ok:
            failures.append("chain transitivity at %d: %s" % (k, wit[:3]))

    # (2) per-block invertibility and norms
    final = run.final
    for lo, hi in BlockLayout(final.cuts).blocks():
        b = _block(final.m, lo, hi)
        try:
            binv = (_block(final.inv, lo, hi) if final.inv is not None
                    else invert(b))
            if not b.matmul(binv).equals(RMatrix.identity(lo, hi)):
                failures.append("block [%d, %d): inverse product is not I"
                                % (lo, hi))
            nb, nbi = op_norm_inf(b), op_norm_inf(binv)
        except SingularMatrixError:
            failures.append("block [%d, %d): singular" % (lo, hi))
            continue
        details["blocks"].append({"lo": lo, "hi": hi,
                                  "norm": str(nb), "inv_norm": str(nbi)})
        if nb > config.c2 or nbi > config.c2:
            failures.append("block [%d, %d): norm %s or inverse norm %s "
                            "exceeds c2" % (lo, hi, nb, nbi))

    # (3) exact interpolation beyond each entry stage, up to the horizon;
    # the entry stages come from the chain, not from run.entry_stage
    n_end = final.n
    if n_end < run.horizon:
        failures.append("final stage %d below the horizon %d"
                        % (n_end, run.horizon))
    entry = _entry_stages(run.chain)
    for xi in families.indices:
        if xi not in entry:
            failures.append("index %s never committed" % (xi,))
            continue
        n0 = entry[xi]
        stored = run.entry_stage.get(xi, "never committed")
        if stored != n0:
            failures.append("index %s: entry_stage says %s, the chain %d"
                            % (xi, stored, n0))
        f, g = families.f(xi), families.g(xi)
        bad = _interpolation_failure(final.m, f, g, n0,
                                     min(n_end, run.horizon))
        if bad is not None:
            failures.append("index %s: interpolation fails at coordinate %d"
                            % (xi, bad[0]))
        # identity blocks would extend the matrix beyond the final stage,
        # so the tail claim is symbolic exactly when f - g vanishes there
        d = f.sub(g)
        symbolic = d.is_vanishing() and all(
            d.value(i) == 0 for i in range(n_end, n_end + d.prefix_len + 1))
        details["indices"][str(xi)] = {
            "entry_stage": n0,
            "checked_window": [n0, min(n_end, run.horizon)],
            "symbolic_tail": symbolic,
        }

    # (4) row l1 norms of the assembled matrix
    total = op_norm_inf(final.m) if final.n else Fraction(0)
    details["matrix_norm"] = str(total)
    if total > config.c2:
        failures.append("assembled matrix norm %s exceeds c2" % total)

    return {"failures": failures, "details": details,
            "config": config.to_json_obj(),
            "stages": [c.n for c in run.chain]}
