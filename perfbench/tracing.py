"""Spans recorded from outside the program.

The benchmark wraps the public functions and methods of the qforge
modules in its own process; the library itself is not changed.  Each call
of a wrapped name records one span (name, start, end, parent span,
operation id, failed flag and an optional note).  Spans stay in memory and
are written as JSONL when the run ends.  Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import time
from fractions import Fraction

TWO = Fraction(2)


def _over_two(args, result):
    return result > TWO


def _block_width(args, result):
    return result.n - args[0].n


def _stage_arg(args, result):
    return args[1]


def _text_bytes(args, result):
    return len(result.encode())


# (module, attribute path, failure predicate, note) for every measured layer
# boundary.  A predicate marks a call failed when it returns a rejected
# value; a call that raises is always failed.  polytope and adf.injections
# lie on no workload's path and are left out.
TARGETS = (
    ("linalg", "WindowVector.sup_norm", None, None),
    ("linalg", "WindowVector.support", None, None),
    ("linalg", "RMatrix.matmul", None, None),
    ("linalg", "invert", None, None),
    ("linalg", "nullspace", None, None),
    ("linalg", "op_norm_inf", None, None),
    ("simplex", "lp_min_l1", None, None),
    ("simplex", "simplex_min", None, None),
    ("geometry", "extend_isomorphism", None, None),
    ("geometry", "complement_iso", None, None),
    ("geometry", "op_norm", None, None),
    ("geometry", "lower_bound", None, None),
    ("geometry", "hahn_banach_extend", None, None),
    ("geometry", "kernel_of_functionals", None, None),
    ("geometry", "balanced_rescale", None, None),
    ("tails", "pi_section_norm", _over_two, _stage_arg),
    ("tails", "r_operator_inverse_norm", _over_two, None),
    ("forcing", "amalgamate", None, _block_width),
    ("forcing", "validate_condition", None, None),
    ("forcing", "cond_leq", None, None),
    ("forcing", "verify_run", None, None),
    ("forcing", "run_generic", None, None),
    ("jsonio", "canonical_dumps", None, _text_bytes),
    ("jsonio", "read_json", None, None),
    ("jsonio", "rmatrix_to_json", None, None),
    ("jsonio", "rmatrix_from_json", None, None),
    ("adf.certset", "CertSet.intersect", None, None),
    ("adf.certset", "CertSet.union", None, None),
    ("adf.certset", "CertSet.diff", None, None),
    ("adf.certset", "CertSet.almost_disjoint", None, None),
    ("adf.families", "make_family", None, None),
    ("adf.families", "separation_find", None, None),
    ("adf.families", "mad_census", None, None),
    ("adf.coherent", "CoherentFamily.coherence_exceptions", None, None),
    ("adf.coherent", "chain_set", None, None),
    ("cli", "cmd_build_adf", None, None),
    ("cli", "cmd_check_separation", None, None),
    ("cli", "cmd_build_coherent", None, None),
    ("cli", "cmd_mad_census", None, None),
    ("cli", "cmd_forge_matrix", None, None),
    ("cli", "cmd_verify_run", None, None),
)

# Layers whose calls can fail; the others report calls and self time only.
FAILABLE = ("tails.pi_section_norm", "tails.r_operator_inverse_norm",
            "forcing.amalgamate", "geometry.extend_isomorphism",
            "geometry.complement_iso")

# Search counters derived from the spans of `forcing.amalgamate`.
SEARCH_METRICS = (
    ("forcing.search.block_width_sum", "count"),
    ("forcing.search.accept_ratio", "1"),
)


def span_names():
    return ["%s.%s" % (mod, path) for mod, path, _, _ in TARGETS]


def layer_metric_units():
    """(name, unit) of every per-layer metric, in a fixed order."""
    out = []
    for name in span_names():
        out.append((name + ".calls", "count"))
        out.append((name + ".self_s", "s"))
        if name in FAILABLE:
            out.append((name + ".failed", "count"))
    out.append(("jsonio.canonical_dumps.bytes", "B"))
    out.extend(SEARCH_METRICS)
    out.append(("bench.tracing_overhead_s", "s"))
    return out


class Tracer:
    """In-memory span recorder; single-threaded, like the workloads."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, op, failed, note]
        self._stack = []
        self.op = None

    def wrap(self, fn, name, failed_if=None, note=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None,
                    self.op, False, None]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if failed_if is not None and failed_if(args, result):
                span[5] = True
            if note is not None:
                span[6] = note(args, result)
            return result

        return wrapper

    def install(self, modules):
        """Wrap every target.  `modules` maps a short module name
        ("linalg", "adf.certset", ...) to the imported module; a function
        bound by `from .x import f` is replaced in every module that holds
        it, so calls through any binding are recorded."""
        for mod_name, path, failed_if, note in TARGETS:
            mod = modules[mod_name]
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            original = (owner.__dict__[attr] if owner_name
                        else getattr(mod, attr))
            wrapper = self.wrap(original, "%s.%s" % (mod_name, path),
                                failed_if, note)
            setattr(owner, attr, wrapper)
            if owner_name:
                continue
            for other in modules.values():
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapper)

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, op, failed, note) in enumerate(
                    self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": t0, "end": t1,
                    "parent": parent, "op": op, "failed": failed,
                    "note": note}) + "\n")

    def layer_metrics(self):
        """Per-layer calls, self time and failures, plus search counters."""
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        calls, self_s, failed = {}, {}, {}
        for i, (name, t0, t1, _, _, bad, _) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child_time[i]
            failed[name] = failed.get(name, 0) + int(bad)
        out = {}
        for name in span_names():
            out[name + ".calls"] = calls.get(name, 0)
            out[name + ".self_s"] = self_s.get(name, 0.0)
            if name in FAILABLE:
                out[name + ".failed"] = failed.get(name, 0)
        out["jsonio.canonical_dumps.bytes"] = sum(
            s[6] for s in self.spans
            if s[0] == "jsonio.canonical_dumps" and s[6] is not None)
        out.update(self._search_counters())
        return out

    def _search_counters(self):
        # A tails-checked candidate is a distinct stage passed to
        # pi_section_norm directly by an amalgamate span; an accepted
        # amalgamation is an amalgamate span that checked at least one
        # candidate and returned.
        name_of = [s[0] for s in self.spans]
        stages = {}
        for name, _, _, parent, _, _, note in self.spans:
            if (name == "tails.pi_section_norm" and parent is not None
                    and name_of[parent] == "forcing.amalgamate"):
                stages.setdefault(parent, set()).add(note)
        candidates = sum(len(v) for v in stages.values())
        accepted = width = 0
        for i, (name, _, _, _, _, bad, note) in enumerate(self.spans):
            if name == "forcing.amalgamate" and not bad:
                width += note
                accepted += i in stages
        return {"forcing.search.block_width_sum": width,
                "forcing.search.accept_ratio":
                    accepted / candidates if candidates else 0.0}
