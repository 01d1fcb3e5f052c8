#!/usr/bin/env python3
"""Regenerate perfbench/reference.json, the certified levels the benchmark checks.

Run from the root of a checkout (takes a few minutes):

    PYTHONPATH=src:perfbench python3 perfbench/make_reference.py

Each descent workload runs one pass at benchmark seed 0 with no references;
every certified level it reports becomes a reference.  A refine instance that
does not certify within the default iteration cap is solved again with a cap
of MAX_ITER, the same starts and tolerances, so that a later descent which
does converge there is checked too.
"""

from __future__ import annotations

import json
import os

import workloads as W
from fibercurve import nehari_minmax as nm

MAX_ITER = 400_000


def main() -> None:
    out = os.path.join(W.HERE, os.pardir, ".perfbench_run")
    os.makedirs(out, exist_ok=True)
    reference: dict = {}
    for name in ("report", "refine", "intersect"):
        build, run = W.WORKLOADS[name]
        state = build(0)
        reference[name] = {
            op.name: {"c": op.level[0], "lambda": op.level[1]}
            for op in run(state, out, {}) if op.level is not None
        }
        if name == "refine":
            params = nm.OptimizerParams(max_iter=MAX_ITER)
            for inst, con in state["constraints"].items():
                if inst in reference[name]:
                    continue
                lam, rec = nm.minimize_ground_level(
                    con, W.REFINE_C, "plus", multistart=W.REFINE_MULTISTART, seed=0,
                    params=params,
                )
                op = W.record_op(inst, lam, rec, None)
                print(f"{inst}: lambda={lam!r} iterations={rec.iterations} "
                      f"residual={rec.residual_grad:.3g} certified={op.level is not None}")
                if op.level is not None:
                    reference[name][inst] = {"c": op.level[0], "lambda": op.level[1]}
    with open(W.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
