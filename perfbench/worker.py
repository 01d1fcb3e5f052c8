"""One workload in one process; started by run.py, which pins the BLAS threads.

``--setup-only`` times a fresh process's set-up: importing fibercurve and
building the workload's problems, triples, constraints and bases.  Otherwise
the worker runs the number of timed passes that fill ``--seconds`` seconds on
the reference core (``pass_count``) and prints one JSON line with the pass
times, operation counts and checks.  The count does not depend on how fast
the host happens to be, so one seed always attempts and fails the same
operations.  With ``--trace 1`` untraced and traced passes alternate, and the
tracing overhead is the difference of their median (scaled) wall times.

The host's CPU speed drifts by tens of percent over seconds to minutes when
the machine is shared.  Untraced timings are therefore taken together with a
speed probe: a fixed loop of Python arithmetic and small numpy operations
that never calls fibercurve, run from a SIGALRM handler every
``PROBE_INTERVAL_S`` of wall time.  Its own time is
taken out of the pass, and the pass time is scaled to a CPU on which the loop
takes ``PROBE_REF_S`` (see ``SpeedProbe``).  Raw times are reported beside
the scaled ones.
"""

import time

T0 = time.perf_counter()  # before numpy and fibercurve are imported

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

PROBE_INTERVAL_S = 0.05
SETUP_PROBES = 16
_PROBE_VEC = np.arange(64.0)
# probe_loop's time on an uncontended core of the 2-core Xeon (2.0 GHz) the
# benchmark was defined on (about 2.3 ms when the host is busy); scaled times
# are seconds on that core.
PROBE_REF_S = 0.00135
# One pass's scaled time on that core, per workload: a run makes as many
# passes as fit in --seconds at these times.  A plain and a traced pass
# together take about TRACED_PAIR passes (rays; less for the descent
# workloads, which make one pair either way).
PASS_S = {"report": 11.8, "refine": 9.3, "intersect": 21.5, "rays": 0.114}
TRACED_PAIR = 4.5
# A run stops early only if a program change makes its passes this slow.
LIMIT_S = 120.0


def probe_loop() -> float:
    """Fixed work of about 2 ms in the mix fibercurve runs: interpreter
    arithmetic and calls, then small numpy array operations."""
    acc = 0.0
    for i in range(6000):
        x = i * 0.5
        acc += x * x - math.sqrt(x + 1.0)
    for _ in range(240):
        w = _PROBE_VEC * 1.5 + _PROBE_VEC
        acc += float(w @ _PROBE_VEC)
    return acc


def probe_once() -> float:
    t = time.perf_counter()
    probe_loop()
    return time.perf_counter() - t


def speed_factor(samples: list) -> float:
    """PROBE_REF_S / the time-averaged probe time.

    Probes are evenly spaced in wall time, so the mean of REF / sample is the
    time average of the CPU's speed relative to the reference, and wall time
    times it is the time the same work takes at the reference speed.
    """
    return statistics.fmean(PROBE_REF_S / s for s in samples)


class SpeedProbe:
    """Samples CPU speed with probe_loop from a SIGALRM interval timer."""

    def __init__(self, interval: float = PROBE_INTERVAL_S) -> None:
        self.interval = interval
        self.samples: list = []  # (start, probe time)
        self.spent = 0.0  # wall time taken by the handler, to subtract from passes

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        probe_loop()
        dt = time.perf_counter() - start
        self.samples.append((start, dt))
        self.spent += dt

    def factor(self, start: float, end: float) -> float:
        """Speed factor over [start, end]: its probes, else the nearest one;
        1 when no probe ran at all (a run shorter than one interval)."""
        if not self.samples:
            return 1.0
        inside = [dt for t, dt in self.samples if start <= t <= end]
        if not inside:
            mid = 0.5 * (start + end)
            inside = [min(self.samples, key=lambda s: abs(s[0] - mid))[1]]
        return speed_factor(inside)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def pass_count(workload: str, seconds: float, traced: bool = False) -> int:
    """Passes (or plain-and-traced pairs) that fill ``seconds`` on the reference core."""
    per_pass = PASS_S[workload] * (TRACED_PAIR if traced else 1.0)
    return max(1, math.floor(seconds / per_pass))


def run_passes(one_pass, count: int) -> list:
    """Call ``one_pass`` ``count`` times, or until the next pass would end after LIMIT_S."""
    results = []
    start = time.perf_counter()
    while len(results) < count:
        results.append(one_pass())
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(r["wall"] for r in results) > LIMIT_S:
            break
    return results


def environment() -> dict:
    import fibercurve

    backend = getattr(fibercurve, "backend", None)
    env = {
        "backend": backend() if callable(backend) else None,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if env["backend"] not in (None, "pure"):
        raise SystemExit(f"kernel backend {env['backend']!r}; the benchmark measures 'pure' "
                         "(run.py sets FIBERCURVE_PURE=1)")
    return env


def setup_only(workload: str, seed: int) -> dict:
    """Time import + build in this fresh process, scaled by probes right after."""
    import workloads

    build, _ = workloads.WORKLOADS[workload]
    build(seed)
    raw = time.perf_counter() - T0
    probes = [probe_once() for _ in range(SETUP_PROBES)]
    return {"setup_raw_s": raw, "setup_s": raw * speed_factor(probes)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    if args.setup_only:
        print(json.dumps(setup_only(args.workload, args.seed)))
        return 0

    import workloads

    build, run = workloads.WORKLOADS[args.workload]
    env = environment()
    state = build(args.seed)
    refs = workloads.load_reference(args.workload)
    first_ops: list = []
    probe = SpeedProbe()

    def timed(run_state, tracer=None) -> dict:
        """One pass, reduced to what the checks need so memory stays flat."""
        spent = probe.spent
        t = time.perf_counter()
        ops = run(run_state, args.out, refs)
        end = time.perf_counter()
        if not first_ops:
            first_ops.extend(ops)
        return {
            "wall": end - t - (probe.spent - spent),
            "span": (t, end),
            "ok": sum(o.ok for o in ops),
            "attempted": len(ops),
            "wrong": sum(o.wrong for o in ops),
            "outcomes": hash(tuple((o.name, o.ok) for o in ops)),
            "digest": run_state.get("digest"),
            "counts": None if tracer is None else tracing.work_counts(tracer),
        }

    if args.trace:
        import tracing

        # the tracer's clock stops while the probe runs, so layer times exclude it
        tracer = tracing.Tracer(clock=lambda: time.perf_counter() - probe.spent)
        with tracer:
            traced_state = build(args.seed)
        tracer.labels = {id(c): name for name, c in traced_state.get("constraints", {}).items()}

        def traced_pass():
            tracer.reset()
            with tracer:
                return timed(traced_state, tracer)

        def pair():
            plain, traced = timed(state), traced_pass()
            return {"wall": plain["wall"] + traced["wall"], "plain": plain, "traced": traced}

        with probe:
            pairs = run_passes(pair, pass_count(args.workload, args.seconds, traced=True))
        traced = [p["traced"] for p in pairs]
        passes = [p["plain"] for p in pairs] + traced
    else:
        with probe:
            passes = run_passes(lambda: timed(state), pass_count(args.workload, args.seconds))

    problems = [f"{o.name}: {o.reason}" for o in first_ops if o.wrong][:5]
    for key, what in (("outcomes", "operation outcomes"),
                      ("digest", "report artifacts (outside timing_seconds)"),
                      ("counts", "work counters of traced passes")):
        values = [p[key] for p in passes if key != "counts" or p["counts"] is not None]
        if any(v != values[0] for v in values):
            problems.append(f"{what} differ between passes")

    plain = [p for p in passes if p["counts"] is None]
    raw_walls = [p["wall"] for p in plain]
    factors = [probe.factor(*p["span"]) for p in plain]
    out = {
        "walls": [w * f for w, f in zip(raw_walls, factors)],
        "raw_walls": raw_walls,
        "speed_factor": statistics.median(factors),
        "probe_samples": probe.samples,
        "pass_spans": [p["span"] for p in plain],
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["attempted"] - p["ok"] for p in passes),
        "ok": sum(p["ok"] for p in passes),
        "correct": not problems and not any(p["wrong"] for p in passes),
        "problems": problems,
        "failures": [[o.name, o.reason] for o in first_ops if not o.ok],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": env,
    }
    if args.trace:
        traced_factors = [probe.factor(*p["span"]) for p in traced]
        out["traced_walls"] = [p["wall"] * f for p, f in zip(traced, traced_factors)]
        # the spans and counters are those of the last traced pass
        out["layers"] = tracing.layer_metrics(
            tracer, sorted(workloads.REFINE_INSTANCES), scale=traced_factors[-1]
        )
        out["layers"]["tracing.overhead_s"] = (
            statistics.median(out["traced_walls"]) - statistics.median(out["walls"])
        )
        spans_path = os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
