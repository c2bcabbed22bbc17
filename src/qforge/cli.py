"""Command-line surface: family construction, separation and census
checks, coherent-system certificates, single geometry computations, and
the forge/verify pipeline.

Every command prints canonical JSON (sorted keys, rationals as "p/q")
and exits 0 exactly when its embedded report lists zero failures.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .adf.certset import CertSet
from .adf.coherent import CoherentFamily, chain_set
from .adf.families import (
    MAX_VALUATION,
    FamilyGenerator,
    OrdinalProgressionFamily,
    make_family,
    mad_census,
    separation_find,
)
from .adf.ordinals import OrdinalIdx
from .config import load_config
from .errors import ParameterError, QForgeError
from .forcing import (
    GenericRun,
    PairedFamilies,
    paired_from_certsets,
    run_generic,
    verify_run,
)
from .geometry import (
    LinMap,
    Subspace,
    extend_isomorphism,
    hahn_banach_extend,
    lower_bound,
    op_norm,
)
from .jsonio import (
    canonical_dumps,
    load_json,
    rmatrix_from_json,
    rmatrix_to_json,
    window_vector_from_json,
    window_vector_to_json,
    write_json,
)
from .linalg import RMatrix, check_int, frac, op_norm_inf

DEFAULT_CAP_Q = 2  # build-coherent runs to w * min(2, blocks) without --cap


def _emit(obj, out_path=None):
    # the text is serialized once, whether or not it is also written
    text = write_json(out_path, obj) if out_path else canonical_dumps(obj)
    sys.stdout.write(text)
    return 0 if not obj.get("failures") else 1


def _family_json(fam, gen):
    return {
        "kind": fam.kind,
        "count": len(fam.sets),
        "params": {"depth": gen.depth},
        "sets": [s.to_json_obj() for s in fam.sets],
        "intersections": {"%d,%d" % k: v for k, v in fam.intersections.items()},
        "luzin_bound": list(fam.luzin_bound),
        "failures": [],
    }


def _load_sets(obj):
    return [CertSet.from_json_obj(s) for s in obj["sets"]]


def cmd_build_adf(args, config):
    gen = FamilyGenerator(kind=args.kind, count=args.count, depth=args.depth)
    fam = make_family(gen)
    return _emit(_family_json(fam, gen), args.out)


def cmd_check_separation(args, config):
    sets = load_json(args.family, _load_sets, "family file")
    for i in args.inside + args.outside:
        if not 0 <= i < len(sets):
            raise ParameterError("set index %d outside the family of %d sets"
                                 % (i, len(sets)))
    inside = [sets[i] for i in args.inside]
    outside = [sets[i] for i in args.outside]
    sep = separation_find(inside, outside)
    return _emit({
        "separator": sep.separator.to_json_obj(),
        "inside_exceptions": [list(e) for e in sep.inside_exceptions],
        "outside_exceptions": [list(e) for e in sep.outside_exceptions],
        "failures": [],
    }, args.out)


def _parse_ordinal(text):
    # "w*q+r", "w*q", or a plain natural number
    text = text.replace(" ", "")
    q, _, r = (text[2:].partition("+") if text.startswith("w*")
               else ("0", "", text))
    try:
        return OrdinalIdx(0, int(q), int(r or 0))
    except ValueError:
        raise ParameterError("ordinal cap %r is not w*q+r, w*q or a natural "
                             "number" % text) from None


def cmd_build_coherent(args, config):
    # offset r samples the stages w*q+r, and no member has a valuation
    # above MAX_VALUATION
    if not 0 <= args.sample_offsets <= MAX_VALUATION + 1:
        raise ParameterError("--sample-offsets must be in [0, %d]"
                             % (MAX_VALUATION + 1))
    fam = OrdinalProgressionFamily(cells=args.cells, blocks=args.blocks)
    cap = (_parse_ordinal(args.cap) if args.cap
           else OrdinalIdx(0, min(DEFAULT_CAP_Q, args.blocks), 0))
    system = CoherentFamily(fam, cap)
    stages = [OrdinalIdx(0, q, r) for q in range(cap.c1 + 1)
              for r in range(args.sample_offsets)
              if OrdinalIdx(0, q, r) <= cap] + [cap]
    stages = sorted(set(stages))
    coherence = {}
    for g in stages:
        for a in stages:
            if g < a:
                exc = system.coherence_exceptions(g, a)
                coherence["%s<=%s" % (g, a)] = [str(p) for p in exc]
    chain = {str(a): chain_set(system, a).to_json_obj() for a in stages}
    return _emit({
        "cells": args.cells, "blocks": args.blocks, "cap": str(cap),
        "stages": [str(a) for a in stages],
        "coherence_exceptions": coherence,
        "chain_sets": chain,
        "failures": [],
    }, args.out)


def cmd_mad_census(args, config):
    sets = load_json(args.family, _load_sets, "family file")
    fam = make_family(FamilyGenerator("explicit", sets=tuple(sets)))
    x = (load_json(args.x, CertSet.from_json_obj, "set file") if args.x
         else CertSet.ap(0, 1))
    census = mad_census(fam, x)
    return _emit({
        "infinite_meet": list(census.infinite_meet),
        "finite_meet": {str(k): list(v) for k, v in census.finite_meet.items()},
        "residual_finite": census.residual_finite,
        "residual": list(census.residual),
        "covering_indices": list(census.covering_indices),
        "failures": [],
    }, args.out)


def _subspace_from_json(obj):
    return Subspace(obj["lo"], obj["hi"],
                    tuple(window_vector_from_json(v) for v in obj["basis"]))


def _linmap_from_json(obj):
    return LinMap(_subspace_from_json(obj),
                  tuple(window_vector_from_json(v) for v in obj["images"]))


def _compute_input(op, obj):
    """The operand of `compute op`: a matrix, a map, or (subspace, phi)."""
    if op == "op-norm" and "matrix" in obj:
        return rmatrix_from_json(obj["matrix"])
    if op == "hahn-banach":
        return _subspace_from_json(obj), [frac(c) for c in obj["phi"]]
    return _linmap_from_json(obj)


def cmd_compute(args, config):
    data = load_json(args.input, lambda obj: _compute_input(args.op, obj),
                     "compute input")
    if args.op == "op-norm":
        if isinstance(data, RMatrix):
            result = {"norm": str(op_norm_inf(data))}
        else:
            n, wit = op_norm(data)
            result = {"norm": str(n), "witness": window_vector_to_json(wit)}
    elif args.op == "lower-bound":
        b, wit = lower_bound(data)
        result = {"bound": str(b), "witness": window_vector_to_json(wit)}
    elif args.op == "hahn-banach":
        y, phi = data
        u, value = hahn_banach_extend(y, phi)
        result = {"extension": window_vector_to_json(u), "norm": str(value)}
    elif args.op == "extend-iso":
        ext = extend_isomorphism(data, config=config)
        result = {"w": rmatrix_to_json(ext.w),
                  "w_inv": rmatrix_to_json(ext.w_inv),
                  "norm_w": str(ext.norm_w),
                  "norm_w_inv": str(ext.norm_w_inv),
                  "report": ext.report}
    else:
        raise QForgeError("unknown compute op %r" % args.op)
    result["failures"] = []
    return _emit(result, args.out)


def _paired_from_file(path):
    def side(data):
        # a generator spec is read here and built by sets() below
        if isinstance(data, dict) and "kind" in data:
            return (data["kind"], check_int(data.get("count", 0), "count"),
                    check_int(data.get("depth", 4), "depth"))
        return [CertSet.from_json_obj(s) for s in data]

    def sets(part):
        if isinstance(part, tuple):
            return list(make_family(FamilyGenerator(*part)).sets)
        return part

    def parse(obj):
        if "indices" in obj:
            return PairedFamilies, PairedFamilies.json_parts(obj)
        return (lambda f, g: paired_from_certsets(sets(f), sets(g)),
                (side(obj["f"]), side(obj["g"])))
    # only parsing counts as malformed: a well-formed file whose tails or
    # generator specs exceed a bound fails with that bound's own message
    build, parts = load_json(path, parse, "family file")
    return build(*parts)


def cmd_forge_matrix(args, config):
    config = replace(
        config,
        rho=config.rho if args.rho is None else args.rho,
        c2=config.c2 if args.c2 is None else args.c2,
        horizon=config.horizon if args.horizon is None else args.horizon)
    families = _paired_from_file(args.families)
    run = run_generic(families, config=config)
    report = verify_run(run, families, config)
    obj = run.to_json_obj()
    obj["families"] = families.to_json_obj()
    obj["report"] = report
    obj["failures"] = report["failures"]
    return _emit(obj, args.out)


def cmd_verify_run(args, config):
    # as in _paired_from_file, the families are built outside load_json
    run, parts = load_json(args.run, lambda obj: (
        GenericRun.from_json_obj(obj),
        PairedFamilies.json_parts(obj["families"])), "run file")
    report = verify_run(run, PairedFamilies(*parts))
    return _emit(report, args.out)


def _add_out(p):
    p.add_argument("--out", help="also write the JSON report to this path")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="qforge",
        description="exact-arithmetic family combinatorics and matrix forging")
    ap.add_argument("--config", help="JSON config path (or set QF_CONFIG)")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("build-adf", help="construct an almost-disjoint family")
    p.add_argument("--kind", required=True,
                   choices=["progression", "branch", "luzin"])
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--depth", type=int, default=4)
    _add_out(p)
    p.set_defaults(func=cmd_build_adf)

    p = sub.add_parser("check-separation",
                       help="separator between two subfamilies")
    p.add_argument("--family", required=True)
    p.add_argument("--inside", type=int, nargs="+", required=True)
    p.add_argument("--outside", type=int, nargs="+", required=True)
    _add_out(p)
    p.set_defaults(func=cmd_check_separation)

    p = sub.add_parser("build-coherent",
                       help="coherent injection system with certificates")
    p.add_argument("--cells", type=int, required=True)
    p.add_argument("--blocks", type=int, default=2)
    p.add_argument("--cap", help='ordinal cap, e.g. "w*2" or "w*1+3"')
    p.add_argument("--sample-offsets", type=int, default=3)
    _add_out(p)
    p.set_defaults(func=cmd_build_coherent)

    p = sub.add_parser("mad-census", help="census of a family against a set")
    p.add_argument("--family", required=True)
    p.add_argument("--x", help="JSON of the certified set to classify")
    _add_out(p)
    p.set_defaults(func=cmd_mad_census)

    p = sub.add_parser("compute", help="single geometry computation")
    p.add_argument("op", choices=["op-norm", "lower-bound",
                                  "hahn-banach", "extend-iso"])
    p.add_argument("--in", dest="input", required=True)
    _add_out(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("forge-matrix",
                       help="run the generic chain and verify the matrix")
    p.add_argument("--families", required=True)
    p.add_argument("--rho")
    p.add_argument("--c2")
    p.add_argument("--horizon", type=int)
    _add_out(p)
    p.set_defaults(func=cmd_forge_matrix)

    p = sub.add_parser("verify-run", help="replay all claims of a run file")
    p.add_argument("run")
    _add_out(p)
    p.set_defaults(func=cmd_verify_run)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        return args.func(args, config)
    except QForgeError as e:
        sys.stderr.write("error: %s\n" % e)
        return 2
    except OSError as e:
        sys.stderr.write("io error: %s\n" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
