"""Forcing-style poset of block-diagonal matrix conditions.

A condition is a stage n, an n x n rational matrix, and a finite set of
committed indices into a pair of tail-vector families.  Extensions add
one block that maps each committed f-tail restriction exactly onto the
matching g-tail restriction while keeping all norms within budget.  The
greedy generic run hits a schedule of dense sets and assembles a fully
verified block-diagonal matrix.

The matrix is block-diagonal and the l_inf operator norm is the largest
row l1 sum, so every fact of a condition is checked on the block that
introduced it.  `linalg.block_facts` decides a block's facts in one pass
over its stored integer rows: the block form of the matrix and of the
carried inverse, B B^-1 = I, B f = g on the integer tail windows of
each committed index, and both norms.  Each fact is an equation between
integers, so a passing block needs no Fraction but its two norms; the
failure messages are built from the first failing row that the pass
returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .config import MAX_HORIZON, RunConfig
from .errors import (
    ComplementNotFoundError,
    NormBudgetError,
    NotInvertibleError,
    ParameterError,
    QForgeError,
    SearchExhaustedError,
    SingularMatrixError,
)
from .geometry import LinMap, Subspace, extend_isomorphism
from .jsonio import rmatrix_from_json, rmatrix_to_json
from .linalg import (
    ZERO,
    BlockLayout,
    RMatrix,
    block_compose,
    block_facts,
    check_int,
)
from .tails import (
    TailVector,
    agree_from,
    check_pi_injective,
    pi_section_norm,
    quotient_norm,
    r_operator_inverse_norm,
)

_CANDIDATE_ERRORS = (NormBudgetError, ComplementNotFoundError, ParameterError,
                     NotInvertibleError, SingularMatrixError)


@dataclass(frozen=True)
class PairedFamilies:
    """The two indexed tail-vector families the poset interpolates between."""

    indices: tuple
    fs: tuple
    gs: tuple

    def __post_init__(self):
        object.__setattr__(self, "indices",
                           tuple(check_int(i, "index") for i in self.indices))
        if not (len(self.indices) == len(self.fs) == len(self.gs)):
            raise ParameterError("one f and one g per index required")
        if len(set(self.indices)) != len(self.indices):
            raise ParameterError("duplicate indices")
        for v in self.fs + self.gs:
            if max(map(abs, v.prefix), default=ZERO) > quotient_norm(v):
                raise ParameterError(
                    "family vectors must be normalized: sup norm equal to "
                    "quotient norm")
        # the one proof that every F- and G-subspan is pi-injective
        object.__setattr__(self, "_spans", tuple(
            check_pi_injective(vs) for vs in (self.fs, self.gs) if vs))
        object.__setattr__(self, "_by_index",
                           {i: k for k, i in enumerate(self.indices)})
        object.__setattr__(self, "_subspans", {})

    def f(self, xi) -> TailVector:
        return self.fs[self._by_index[xi]]

    def g(self, xi) -> TailVector:
        return self.gs[self._by_index[xi]]

    def spans(self, a) -> tuple:
        """F- and G-subspans of a's indices in the families, or () if none.

        The families never change, so the subspans of one tuple of family
        positions are built on first use and kept: every later call with
        that tuple returns the same objects, whose `Span` cached classes
        are then built once."""
        ks = tuple(self._by_index[xi] for xi in a if xi in self._by_index)
        if not ks:
            return ()
        spans = self._subspans.get(ks)
        if spans is None:
            spans = self._subspans[ks] = tuple(span.sub(ks) for span in self._spans)
        return spans

    def to_json_obj(self):
        return {"indices": list(self.indices),
                "f": [v.to_json_obj() for v in self.fs],
                "g": [v.to_json_obj() for v in self.gs]}

    @staticmethod
    def json_parts(obj) -> tuple:
        """The (indices, fs, gs) of a to_json_obj object, read for its
        shape alone: PairedFamilies(*parts) checks what the tails must
        satisfy, so a file is not called malformed for a bound they miss."""
        return (tuple(obj["indices"]),
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


def _committed(a) -> tuple:
    """Committed indices as a condition holds them: ints, sorted, once each."""
    return tuple(sorted(set(check_int(xi, "index") for xi in a)))


@dataclass(frozen=True)
class Condition:
    n: int
    m: RMatrix
    a: tuple
    cuts: tuple   # block boundaries 0 = c_0 < ... < c_k = n
    inv: RMatrix  # the inverse of m, checked block by block
    # (families, c2) for which amalgamate proved the condition valid: the
    # only inputs validate_condition reads.  Never copied, so a condition
    # built from fields, loaded or rebuilt with replace is checked again
    _proof: tuple | None = field(default=None, init=False, repr=False,
                                 compare=False)

    def __post_init__(self):
        object.__setattr__(self, "a", _committed(self.a))
        object.__setattr__(self, "cuts", tuple(self.cuts))

    @staticmethod
    def trivial() -> "Condition":
        empty = RMatrix(0, 0, 0, 0, {})
        return Condition(0, empty, (), (0,), empty)

    def to_json_obj(self):
        return {"n": self.n, "a": list(self.a), "cuts": list(self.cuts),
                "m": rmatrix_to_json(self.m),
                "inv": rmatrix_to_json(self.inv)}


# -- the block checker: each fact of a block-diagonal matrix is checked
# on its own block, by one `block_facts` pass over its integer rows

def _form_failures(outside) -> list:
    """(ii) from block_facts' entries outside the block."""
    return ["(ii) entry (%d, %d) outside the block form" % ij for ij in outside]


def _windows(a, families: PairedFamilies, lo: int, hi: int) -> list:
    """The integer f- and g-windows on [lo, hi) of a's indices that lie
    in the families, in a's order."""
    return [(families.f(xi).int_window(lo, hi), families.g(xi).int_window(lo, hi))
            for xi in a if xi in families._by_index]


def _interpolation_failures(a, families: PairedFamilies, misses) -> list:
    """(iv) from block_facts' misses on _windows(a, ...): each index
    outside the families, and the first failing row of each other."""
    misses = iter(misses)
    out = []
    for xi in a:
        if xi not in families._by_index:
            out.append("(iv) index %s outside the families" % (xi,))
            continue
        miss = next(misses)
        if miss is not None:
            out.append("(iv) xi = %s fails at coordinate %d: %s != %s"
                       % ((xi,) + miss))
    return out


def _section_failures(spans, n: int) -> list:
    """(c): the section norms at stage n of PairedFamilies.spans are <= 2."""
    norms = [(k, pi_section_norm(span, n)) for k, span in zip("FG", spans)]
    return ["(c) %s-section norm %s exceeds 2" % (k, s) for k, s in norms
            if s > 2]


def _check_block(m: RMatrix, inv: RMatrix, lo: int, hi: int, a,
                 families: PairedFamilies, c2):
    """Every fact block [lo, hi) of m introduces, with a committed there:
    (ii) its form; (b) the carried inverse is block-diagonal there and
    B B^-1 = I, which on a square block proves B invertible, and both
    norms are at most c2; (iv) B sends the f-tail of each index of a to
    its g-tail on [lo, hi); and clause (c) at hi.  All but (c) come from
    one `block_facts` pass, whose only Fractions on a passing block are
    the two norms.  Returns the failures and the block's two norms."""
    outside, inverse, norm, inv_norm, misses = block_facts(
        m, lo, hi, inv, _windows(a, families, lo, hi))
    failures = _form_failures(outside)
    if not inverse:
        failures.append("(b) carried inverse fails M * inv = I")
    for name, value in (("matrix", norm), ("inverse", inv_norm)):
        if value > c2:
            failures.append("(b) %s norm %s exceeds c2 = %s" % (name, value, c2))
    failures += (_interpolation_failures(a, families, misses)
                 + _section_failures(families.spans(a), hi))
    return ["block [%d, %d): %s" % (lo, hi, f) for f in failures], norm, inv_norm


def validate_condition(p: Condition, families: PairedFamilies,
                       config: RunConfig):
    """List of violations (empty means the condition is valid)."""
    if p.m.window != (0, p.n, 0, p.n):
        return ["(a) matrix window is not [0, %d)^2" % p.n]
    if p.inv.window != (0, p.n, 0, p.n):
        return ["(a) inverse window is not [0, %d)^2" % p.n]
    cuts = list(p.cuts)
    if cuts[0] != 0 or cuts[-1] != p.n or cuts != sorted(set(cuts)):
        return ["(a) block cuts %s do not rise from 0 to %d" % (cuts, p.n)]
    # the form and algebra of each block, from which clause (b) for the
    # whole matrix follows; then p.a, checked on the empty block [n, n)
    out = []
    for lo, hi in BlockLayout(p.cuts).blocks():
        out += _check_block(p.m, p.inv, lo, hi, (), families, config.c2)[0]
    return out + _check_block(p.m, p.inv, p.n, p.n, p.a, families,
                              config.c2)[0]


def cond_leq(p: Condition, q: Condition, families: PairedFamilies):
    """Is p an extension of q?  Returns (bool, list of failure witnesses)."""
    if p.n < q.n:
        return False, ["(i) stage %d below %d" % (p.n, q.n)]
    out = ["(ii) entry (%d, %d) differs from the stem" % ij
           for ij in p.m.differences(q.m, 0, q.n)]
    outside, _, _, _, misses = block_facts(p.m, q.n, p.n, None,
                                           _windows(q.a, families, q.n, p.n))
    out += _form_failures(block_facts(p.m, 0, q.n)[0]) + _form_failures(outside)
    if not set(q.a) <= set(p.a):
        out.append("(iii) committed indices were dropped")
    out += _interpolation_failures(q.a, families, misses)
    return not out, out


def _merge_blocks(stem: Condition, w: RMatrix, w_inv: RMatrix, n_r: int,
                  a_r) -> Condition:
    return Condition(n_r, stem.m.merged(w), tuple(a_r), stem.cuts + (n_r,),
                     stem.inv.merged(w_inv))


def _prove(r: Condition, families: PairedFamilies,
           config: RunConfig) -> Condition:
    object.__setattr__(r, "_proof", (families, config.c2))
    return r


def amalgamate(p: Condition, q: Condition, big_n: int,
               families: PairedFamilies, config: RunConfig) -> Condition:
    """Common extension of two conditions sharing a stem (n, M), with
    stage at least big_n.  Every returned condition is valid and carries
    the proof of it for these families and c2, so a stem that carries it
    is not validated again.  extend_isomorphism certifies a new block's
    algebra, norms and interpolation, and RMatrix its form; the check of
    a candidate's block here is clause (c) alone."""
    if p.n != q.n or not p.m.equals(q.m):
        raise ParameterError("conditions do not share a stem")
    # the stem is validated once: unless q carries another inverse or
    # layout, it differs from p only in what it commits at stage n
    proof = p._proof
    viol = ([] if proof and proof[0] is families and proof[1] == config.c2
            else validate_condition(p, families, config))
    if q.inv is not p.inv or q.cuts != p.cuts:
        viol += validate_condition(q, families, config)
    elif q is not p:
        viol += _check_block(q.m, q.inv, q.n, q.n, q.a, families, config.c2)[0]
    if viol:
        raise ParameterError("invalid input condition: %s" % "; ".join(viol))
    a_r = sorted(set(p.a) | set(q.a))
    n = p.n
    if set(q.a) <= set(p.a) and n >= big_n:
        return _prove(p, families, config)

    if not a_r:  # an identity block commits nothing and has norms 1 < c2
        ident = RMatrix.identity(n, max(n, big_n) + 1)
        return _prove(_merge_blocks(p, ident, ident, ident.row_hi, a_r),
                      families, config)

    spans = families.spans(a_r)
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
            for name, span in zip("FG", spans):
                rinv = r_operator_inverse_norm(span, n, n_r)
                if rinv > 2:
                    raise NormBudgetError(
                        "%s-restriction inverse norm exceeds 2" % name,
                        measured=rinv)
            fw, gw = [[v.restrict(n, n_r) for v in span.tails]
                      for span in spans]
            # extend_isomorphism certifies the block it builds: w w^-1 = I,
            # both norms at most c2, and w sends each f-window exactly to
            # the matching g-window
            t = LinMap(Subspace(n, n_r, tuple(fw)), tuple(gw))
            ext = extend_isomorphism(t, config=config)
        except _CANDIDATE_ERRORS as e:
            attempts.append((n_r, "%s: %s" % (type(e).__name__, e)))
            continue
        # r extends p and q by construction, and the stem is valid: clause
        # (c) at n_r is the one fact left to check
        viol = ["block [%d, %d): %s" % (n, n_r, f)
                for f in _section_failures(spans, n_r)]
        if viol:
            attempts.append((n_r, "verifier: %s" % viol))
            continue
        return _prove(_merge_blocks(p, ext.w, ext.w_inv, n_r, a_r),
                      families, config)
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
    """A run as its file stores it: the stage n and committed indices a of
    each condition of the chain, and the final matrix with its inverse,
    whose restriction to [0, n)^2 is the matrix of the condition at n."""

    stages: tuple              # (n, a) per condition, n increasing
    hit_log: tuple             # (kind, param, chain index after the hit)
    config: RunConfig          # its horizon is the run's one horizon
    m: RMatrix                 # the final matrix on [0, n_K)^2
    inv: RMatrix               # its inverse, block by block
    failure: str | None = None

    def to_json_obj(self):
        """The final matrix once; per condition, what its block adds."""
        lows = [0] + [n for n, _ in self.stages]
        return {
            "chain": [{"n": n, "a": list(a),
                       "inv": rmatrix_to_json(self.inv.block(lo, n))}
                      for lo, (n, a) in zip(lows, self.stages)],
            "hit_log": [[k, v, i] for k, v, i in self.hit_log],
            "config": self.config.to_json_obj(),
            "failure": self.failure,
            "matrix": rmatrix_to_json(self.m),
        }

    @staticmethod
    def from_json_obj(obj) -> "GenericRun":
        """The stages, the matrix on [0, n_K)^2 and its inverse composed
        from the block inverses; each a read as a Condition reads it.
        No run passes horizon + search_cap <= 9 * MAX_HORIZON, so a file
        outside these bounds, or whose config is not a RunConfig, is
        rejected before any matrix is built."""
        config = RunConfig.from_json_obj(obj["config"])
        if not obj["chain"]:
            raise ParameterError("a run's chain holds at least one condition")
        ns = tuple(check_int(c["n"], "chain stage") for c in obj["chain"])
        if max(ns) > 9 * MAX_HORIZON:
            raise ParameterError("chain stage %d exceeds 9 * %d"
                                 % (max(ns), MAX_HORIZON))
        binvs = [rmatrix_from_json(c["inv"]) for c in obj["chain"]]
        if ns[0] != 0 or binvs[0].window != (0, 0, 0, 0):
            raise ParameterError("a run's chain starts at the empty stage 0")
        matrix = rmatrix_from_json(obj["matrix"])
        if matrix.window != (0, ns[-1], 0, ns[-1]):
            raise ParameterError("matrix window is not [0, %d)^2" % ns[-1])
        inv = block_compose(binvs[1:], BlockLayout(ns))
        stages = tuple((n, _committed(c["a"])) for n, c in zip(ns, obj["chain"]))
        return GenericRun(
            stages, tuple((k, check_int(v, "hit parameter"), check_int(i, "chain index"))
                          for k, v, i in obj["hit_log"]), config,
            matrix, inv, obj["failure"])


def _entry_stages(stages) -> dict:
    """xi -> the stage of the condition before the first committing xi."""
    entry, prev = {}, 0
    for n, a in stages:
        for xi in a:
            entry.setdefault(xi, prev)
        prev = n
    return entry


def run_generic(families: PairedFamilies,
                config: RunConfig | None = None) -> GenericRun:
    """Greedy decreasing chain hitting every scheduled dense set up to
    config.horizon, starting from the trivial condition.  Deterministic
    given its inputs."""
    config = config or RunConfig()
    chain = [Condition.trivial()]
    log = []
    failure = None
    for kind, param in default_schedule(families, config.horizon):
        p = chain[-1]
        try:
            if kind == "E":
                r = dense_hit_E(p, param, families, config)
            else:
                r = dense_hit_D(p, param, families, config)
        except QForgeError as e:
            failure = "hit (%s, %s) failed: %s: %s" % (
                kind, param, type(e).__name__, e)
            break
        if r is not p:
            chain.append(r)
        log.append((kind, param, len(chain) - 1))
    final = chain[-1]
    return GenericRun(tuple((c.n, c.a) for c in chain), tuple(log), config,
                      final.m, final.inv, failure)


def _hit_log_failures(run: GenericRun, families: PairedFamilies,
                      horizon: int) -> list:
    """The hits follow the default schedule to horizon in order, all of it
    unless the run aborted, and the condition each hit reached lies in its
    dense set."""
    schedule = default_schedule(families, horizon)
    out = []
    for k, (kind, param, i) in enumerate(run.hit_log):
        if schedule[k:k + 1] != ((kind, param),):
            return out + ["hit %d: (%s, %s) where the schedule has %s"
                          % (k, kind, param, list(schedule[k:k + 1]))]
        n, a = run.stages[i] if 0 <= i < len(run.stages) else (None, None)
        if n is None or (param not in a if kind == "E" else n < param):
            out.append("hit %d: chain condition %s misses (%s, %s)"
                       % (k, i, kind, param))
    if len(run.hit_log) < len(schedule) and not run.failure:
        out.append("hit_log stops after %d of %d scheduled hits"
                   % (len(run.hit_log), len(schedule)))
    return out


def verify_run(run: GenericRun, families: PairedFamilies,
               config: RunConfig | None = None) -> dict:
    """Replay every claim of a run, each on the block that introduced it;
    the report lists all failures."""
    config = config or run.config
    failures = []
    details = {"blocks": [], "indices": {}}
    if run.failure:
        failures.append("run aborted: %s" % run.failure)

    # (1) condition k adds the block [n_{k-1}, n_k) and commits a_k there
    matrix_norm = Fraction(0)
    lo, prev_a = 0, ()
    for n, a in run.stages:
        if not set(prev_a) <= set(a):
            failures.append("block [%d, %d): (iii) committed indices were "
                            "dropped" % (lo, n))
        found, norm, inv_norm = _check_block(run.m, run.inv, lo, n, a,
                                             families, config.c2)
        failures += found
        matrix_norm = max(matrix_norm, norm)
        # the first condition adds the empty block
        if n > lo:
            details["blocks"].append({"lo": lo, "hi": n, "norm": str(norm),
                                      "inv_norm": str(inv_norm)})
        lo, prev_a = n, a
    details["matrix_norm"] = str(matrix_norm)

    # (2) every index is committed, so by (1) it interpolates from its
    # entry stage, derived from the chain, to the final stage
    n_end = run.stages[-1][0]
    if n_end < config.horizon:
        failures.append("final stage %d below the horizon %d"
                        % (n_end, config.horizon))
    entry = _entry_stages(run.stages)
    for xi in families.indices:
        if xi not in entry:
            failures.append("index %s never committed" % (xi,))
            continue
        n0 = entry[xi]
        # identity blocks would extend the matrix beyond the final stage,
        # so the tail claim is symbolic exactly when f = g from there on
        details["indices"][str(xi)] = {
            "entry_stage": n0,
            "checked_window": [n0, n_end],
            "symbolic_tail": agree_from(families.f(xi), families.g(xi), n_end),
        }

    # (3) the hit log replays the schedule
    failures += _hit_log_failures(run, families, config.horizon)

    return {"failures": failures, "details": details,
            "config": config.to_json_obj(),
            "stages": [n for n, _ in run.stages]}
