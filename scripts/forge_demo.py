#!/usr/bin/env python3
"""End-to-end demo: build two almost-disjoint families, forge the
block-diagonal matrix interpolating their indicator tails, verify every
claim, and print a short summary plus the canonical run JSON path."""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qforge.adf.families import FamilyGenerator, make_family
from qforge.config import RunConfig
from qforge.forcing import paired_from_certsets, run_generic, verify_run
from qforge.jsonio import write_json


def main():
    kappa, horizon = 4, 128
    branch = make_family(FamilyGenerator("branch", count=kappa, depth=3))
    prog = make_family(FamilyGenerator("progression", count=kappa))
    families = paired_from_certsets(branch.sets, prog.sets)
    config = RunConfig(horizon=horizon)

    run = run_generic(families, config=config)
    report = verify_run(run, families, config)

    stages = [n for n, _ in run.stages]
    print("committed indices :", list(run.stages[-1][1]))
    print("chain stages      :", stages)
    print("block layout      :", tuple(stages))
    print("matrix norm       :", report["details"]["matrix_norm"])
    print("verifier failures :", report["failures"] or "none")

    out = Path(tempfile.gettempdir()) / "qforge_demo_run.json"
    obj = run.to_json_obj()
    obj["families"] = families.to_json_obj()
    obj["report"] = report
    write_json(out, obj)
    print("run JSON          :", out)
    return 0 if not report["failures"] else 1


if __name__ == "__main__":
    sys.exit(main())
