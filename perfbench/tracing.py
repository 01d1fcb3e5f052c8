"""Traced pass: spans and counters at the layer boundaries of fibercurve.

Nothing under ``src/`` is instrumented.  The tracer replaces public callables
by timed wrappers, in every module namespace that callers look them up from,
and puts the originals back afterwards:

* leaf layers, called up to millions of times (``_kernels`` functions,
  ``fibering.classify_and_solve`` and the six functional callables of every
  triple ``build_triple`` returns), are aggregated per name: calls, total
  time and self time;
* coarse layers (ground solves, thresholds, surrogates, curve tracing, the
  zero limit, the c** crossing, intersections, reporting and the CLI) each
  record one span: name, start, end, parent span id, the counter deltas it
  covered and a few attributes of its arguments and result.

A frame's self time is its duration minus the time of the frames it
encloses, leaf or span, so a ground span's self time is the descent's own
Python work.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import os
import time
from collections import Counter, defaultdict

_KERNELS = "fibercurve._kernels"
_FIB = "fibercurve.fibering"
_NM = "fibercurve.nehari_minmax"
_CT = "fibercurve.curve_tracer"
_CLI = "fibercurve.cli"
_MP = "fibercurve.model_problems"

# (module, attribute, frame name): aggregated leaf calls
LEAVES = (
    (_KERNELS, "classify", "kernels.classify"),
    (_KERNELS, "extremal_pair", "kernels.extremal_pair"),
    (_KERNELS, "zero_level_pair", "kernels.zero_level_pair"),
    (_FIB, "classify_and_solve", "fibering.profile"),
    (_NM, "classify_and_solve", "fibering.profile"),
)
# (module, attribute, span name): one span per call
SPANS = (
    (_NM, "minimize_ground_level", "ground"),
    (_CT, "minimize_ground_level", "ground"),
    (_NM, "compute_c_star", "thresholds"),
    (_NM, "compute_c_star_star", "thresholds"),
    (_CLI, "compute_c_star", "thresholds"),
    (_CLI, "compute_c_star_star", "thresholds"),
    (_CT, "minimize_c0", "thresholds"),
    (_NM, "surrogate_level", "surrogate"),
    (_CT, "surrogate_level", "surrogate"),
    (_CLI, "trace_family", "trace"),
    (_CLI, "limit_check_zero", "limit"),
    (_CLI, "extend_minus_past_cstarstar", "crossing"),
    (_CT, "intersect_with_lambda", "intersect"),
    (_CLI, "build_report", "reporting"),
    (_CLI, "write_report_json", "reporting"),
    (_CLI, "write_curves_csv", "reporting"),
    (_CLI, "write_diagram_svg", "reporting"),
    (_CLI, "Setup", "cli.setup"),
    (_CLI, "main", "cli"),
)
_GROUND_SIG = inspect.signature(importlib.import_module(_NM).minimize_ground_level)
TRIPLE_FIELDS = ("eval_N", "eval_A", "eval_B", "grad_N", "grad_A", "grad_B")
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in SPANS))


class Tracer:
    """Frames, spans and counters of one traced pass, held in memory.

    Times are read from ``clock``; the benchmark's clock stops while its speed
    probe runs, so no layer is charged for the probe.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.labels: dict[int, str] = {}  # id(constraint) -> instance name
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.self_seconds: defaultdict = defaultdict(float)
        self.spans: list[dict] = []
        self._stack: list[list] = []  # [name, start, child_seconds, span record or None]
        self._span_ids: list[int] = []

    # -- frames ------------------------------------------------------------

    def _wrap(self, name: str, fn, span: bool = False, hook=None):
        tracer = self
        clock = self.clock

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            record = None
            if span:
                record = {
                    "id": len(tracer.spans),
                    "parent": tracer._span_ids[-1] if tracer._span_ids else None,
                    "name": name,
                    "work": dict(tracer.calls),
                    "attrs": {},
                }
                tracer.spans.append(record)
                tracer._span_ids.append(record["id"])
            frame = [name, 0.0, 0.0, record]
            tracer._stack.append(frame)
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if record is not None:
                    record["attrs"]["raised"] = type(exc).__name__
                raise
            finally:
                end = clock()
                tracer._stack.pop()
                duration = end - frame[1]
                if tracer._stack:
                    tracer._stack[-1][2] += duration
                tracer.calls[name] += 1
                tracer.seconds[name] += duration
                tracer.self_seconds[name] += duration - frame[2]
                if record is not None:
                    tracer._span_ids.pop()
                    before = record["work"]
                    record["start"], record["end"] = frame[1], end
                    record["work"] = {
                        k: v - before.get(k, 0) for k, v in tracer.calls.items()
                        if v != before.get(k, 0)
                    }
            if hook is not None:
                hook(record, args, kwargs, result)
            return result

        return wrapped

    def wrap_triple(self, triple):
        """The triple with its six functional callables timed."""
        return dataclasses.replace(triple, **{
            f: self._wrap(f"functional.{f}", getattr(triple, f)) for f in TRIPLE_FIELDS
        })

    # -- patching ----------------------------------------------------------

    def _patch(self, module: str, attr: str, replacement) -> None:
        mod = importlib.import_module(module)
        self._patches.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, replacement)

    def install(self) -> None:
        hooks = {
            "minimize_ground_level": self._ground_hook,
            "trace_family": _trace_hook,
            "intersect_with_lambda": _intersect_hook,
            "write_report_json": _bytes_hook,
            "write_curves_csv": _bytes_hook,
            "write_diagram_svg": _bytes_hook,
        }
        for module, attr, name in LEAVES:
            fn = getattr(importlib.import_module(module), attr)
            self._patch(module, attr, self._wrap(name, fn))
        for module, attr, name in SPANS:
            fn = getattr(importlib.import_module(module), attr)
            self._patch(module, attr, self._wrap(name, fn, span=True, hook=hooks.get(attr)))
        for module in (_MP, _CLI):
            build = getattr(importlib.import_module(module), "build_triple")
            self._patch(module, "build_triple",
                        functools.wraps(build)(lambda problem, _b=build: self.wrap_triple(_b(problem))))

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- hooks -------------------------------------------------------------

    def _ground_hook(self, record, args, kwargs, result) -> None:
        bound = _GROUND_SIG.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        record["attrs"].update(
            starts=int(a["multistart"]) + len(a["extra_starts"]),
            converged=bool(result[1].converged),
            instance=self.labels.get(id(a["constraint"])),
        )


def _trace_hook(record, args, kwargs, result) -> None:
    record["attrs"]["points"] = sum(len(curve.points) for curve in result.values())


def _intersect_hook(record, args, kwargs, result) -> None:
    record["attrs"]["bisect_iters"] = sum(p["iterations"] for p in result["points"])


def _bytes_hook(record, args, kwargs, result) -> None:
    path = args[0] if args else kwargs["path"]
    record["attrs"]["bytes"] = os.path.getsize(path)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass


def layer_metrics(tracer: Tracer, instances: list[str], scale: float = 1.0) -> dict[str, float]:
    """Per-layer values of the last traced pass (see BENCHMARK.json); every
    time is multiplied by ``scale``."""
    calls = tracer.calls
    secs = {name: scale * t for name, t in tracer.seconds.items()}
    spans = tracer.spans
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def total(name: str) -> float:
        return scale * sum(s["end"] - s["start"] for s in by_name[name])

    def mean_us(name: str) -> float:
        return 1e6 * secs[name] / calls[name] if calls[name] else 0.0

    # a solve that raised never reached extract_critical_point's two grad_N calls
    ground = [s for s in by_name["ground"] if "raised" not in s["attrs"]]
    iters = {s["id"]: s["work"].get("functional.grad_N", 0) - 2 for s in ground}
    starts = sum(s["attrs"]["starts"] for s in ground)
    intersect_ids = {s["id"] for s in by_name["intersect"]}
    m = {
        "kernels.classify_calls": calls["kernels.classify"],
        "kernels.classify_us": mean_us("kernels.classify"),
        "kernels.pair_calls": calls["kernels.extremal_pair"] + calls["kernels.zero_level_pair"],
        "fibering.profiles": calls["fibering.profile"],
        "fibering.profile_us": mean_us("fibering.profile"),
        "functional.value_calls": sum(calls[f"functional.{f}"] for f in TRIPLE_FIELDS[:3]),
        "functional.grad_calls": sum(calls[f"functional.{f}"] for f in TRIPLE_FIELDS[3:]),
        "functional.eval_N_us": mean_us("functional.eval_N"),
        "functional.grad_N_us": mean_us("functional.grad_N"),
        "functional.s": sum(secs.get(f"functional.{f}", 0.0) for f in TRIPLE_FIELDS),
        "descent.iters_per_start": sum(iters.values()) / starts if starts else 0.0,
        "descent.trials_per_iter": (
            calls["functional.eval_N"] / calls["functional.grad_N"]
            if calls["functional.grad_N"] else 0.0
        ),
        "ground.solves": len(by_name["ground"]),
        "ground.s": total("ground"),
        "ground.unconverged": len(by_name["ground"]) - sum(s["attrs"]["converged"] for s in ground),
        "thresholds.s": total("thresholds"),
        "surrogate.calls": len(by_name["surrogate"]),
        "surrogate.s": total("surrogate"),
        "trace.s": total("trace"),
        "trace.points": sum(s["attrs"]["points"] for s in by_name["trace"]),
        "limit.s": total("limit"),
        "crossing.s": total("crossing"),
        "intersect.probes": sum(s["parent"] in intersect_ids for s in spans),
        "intersect.bisect_iters": sum(s["attrs"]["bisect_iters"] for s in by_name["intersect"]),
        "intersect.s": total("intersect"),
        "reporting.s": total("reporting"),
        "reporting.bytes": sum(s["attrs"].get("bytes", 0) for s in by_name["reporting"]),
        "cli.setup_s": total("cli.setup"),
        "cli.s": total("cli"),
    }
    for name in SPAN_NAMES:
        m[f"{name}.self_s"] = scale * tracer.self_seconds[name]
    per_instance = {s["attrs"]["instance"]: s for s in ground if s["attrs"]["instance"]}
    for inst in instances:
        s = per_instance.get(inst)
        m[f"descent.iters_per_start.{inst}"] = (
            iters[s["id"]] / s["attrs"]["starts"] if s else 0.0
        )
    return m


def work_counts(tracer: Tracer) -> dict:
    """The deterministic counters of a pass; equal on every pass of one seed."""
    counts = {name: n for name, n in sorted(tracer.calls.items())}
    ground = [s for s in tracer.spans if s["name"] == "ground"]
    counts["descent.grad_N"] = [s["work"].get("functional.grad_N", 0) for s in ground]
    counts["intersect.bisect_iters"] = [
        s["attrs"]["bisect_iters"] for s in tracer.spans if s["name"] == "intersect"
    ]
    return counts
