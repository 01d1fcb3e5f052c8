#!/usr/bin/env python3
"""fibercurve benchmark: one workload, one seed, printed metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload refine --seed 0 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each exists): report, refine,
intersect, rays.  With ``--trace 0`` the last line of stdout is a JSON object
with the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of a traced pass instead.  Each run is single-process and
single-threaded on the pure-Python kernel backend: the launcher pins the BLAS
thread variables to 1 and sets ``FIBERCURVE_PURE=1`` for the worker processes
it starts, and waits for each of them.  Scratch output
(report artifacts, spans, results) goes to ``.perfbench_run/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_run")
WORKLOADS = ("report", "refine", "intersect", "rays")
SETUP_REPEATS = 7
DEADLINE_S = 170.0  # a run must end within 180 s
BLAS_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def worker(args, env, timeout: float, setup_only: bool = False) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT]
    if setup_only:
        cmd.append("--setup-only")
    res = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                         timeout=max(timeout, 1.0))
    if res.returncode != 0:
        raise RuntimeError(f"worker exited {res.returncode}:\n{res.stderr[-4000:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main() -> int:
    start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "fibercurve", "__init__.py")):
        return fail(f"no fibercurve sources under {src}; run from a checkout of the repository")
    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, HERE]))
    env.update({k: "1" for k in BLAS_PINS}, FIBERCURVE_PURE="1")

    def left() -> float:
        return DEADLINE_S - (time.perf_counter() - start)

    try:
        setup_runs = [] if args.trace else [
            worker(args, env, left(), setup_only=True) for _ in range(SETUP_REPEATS)
        ]
        res = worker(args, env, left())
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        return fail(f"{args.workload} seed {args.seed}: {exc}")

    setups = [r["setup_s"] for r in setup_runs]
    res["env"].update(git_commit=git_commit(), blas_threads={k: env[k] for k in BLAS_PINS})
    walls = res["walls"]
    attempted, failed = res["attempted"], res["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(walls) + len(res.get('traced_walls', []))}")
    if args.trace:
        metrics = {m["name"]: {"value": res["layers"][m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
        for name, value in metrics.items():
            print(f"  {name:40s} {value['value']:.6g} {value['unit']}")
    else:
        q1, q3 = quartiles(walls)
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "ops_per_s": {"value": res["ok"] / sum(walls), "unit": "ops/s"},
            "success_frac": {"value": 1.0 - failed / attempted, "unit": "ratio"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        print(f"  wall_s        {metrics['wall_s']['value']:.4f} s  "
              f"(median of {len(walls)} passes; q1 {q1:.4f}, q3 {q3:.4f}; "
              f"raw {statistics.median(res['raw_walls']):.4f} s at speed factor "
              f"{res['speed_factor']:.3f} from {len(res['probe_samples'])} probes)")
        print(f"  ops_per_s     {metrics['ops_per_s']['value']:.4f} ops/s")
        print(f"  fail_frac     {failed / attempted:.4f}  ({failed} of {attempted} failed)")
        print(f"  success_frac  {metrics['success_frac']['value']:.4f}")
        print(f"  setup_s       {metrics['setup_s']['value']:.4f} s  "
              f"(median of {len(setups)} fresh processes; raw "
              f"{statistics.median(r['setup_raw_s'] for r in setup_runs):.4f} s)")
        print(f"  peak_rss_mb   {metrics['peak_rss_mb']['value']:.1f} MB")
    for line in summarize_failures(res["failures"]):
        print(f"  failed: {line}")
    for problem in res["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print(f"  env {json.dumps(res['env'], sort_keys=True)}")

    result = {"correct": res["correct"], "attempted": attempted, "failed": failed,
              "metrics": metrics}
    # the probe samples and pass spans let the speed scaling be checked afterwards
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  walls=walls, setup_runs=setup_runs, **{k: res[k] for k in (
                      "raw_walls", "speed_factor", "probe_samples", "pass_spans", "env",
                      "failures", "problems")})
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


def summarize_failures(failures: list) -> list[str]:
    """One line per distinct failure; rays failures are grouped by case-table row."""
    groups: dict[str, list[str]] = {}
    for name, reason in failures:
        key = name.split(":", 1)[1] if ":" in name else name
        groups.setdefault(key, []).append(reason)
    return [f"{key}: {reasons[0]}" if len(reasons) == 1
            else f"{len(reasons)} x {key}: {reasons[0]}" for key, reasons in groups.items()]


if __name__ == "__main__":
    sys.exit(main())
