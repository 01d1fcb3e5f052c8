"""The benchmark's own checks; not part of the repository's tier-1 suite.

Run from the root of a checkout (about five minutes, most of it two traced
passes of each descent workload):

    FIBERCURVE_PURE=1 PYTHONPATH=src:perfbench python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import tracing
import workloads as W

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_run")


def traced_pass(name: str, seed: int) -> tuple[dict, dict, list, str | None]:
    build, run = W.WORKLOADS[name]
    tracer = tracing.Tracer()
    with tracer:
        state = build(seed)
        tracer.labels = {id(c): n for n, c in state.get("constraints", {}).items()}
        tracer.reset()
        ops = run(state, OUT, W.load_reference(name))
    metrics = tracing.layer_metrics(tracer, sorted(W.REFINE_INSTANCES))
    return tracing.work_counts(tracer), metrics, ops, state.get("digest")


COUNTED = ("kernels.classify_calls", "kernels.pair_calls", "fibering.profiles",
           "functional.value_calls", "functional.grad_calls", "descent.iters_per_start",
           "ground.solves", "surrogate.calls", "intersect.probes", "intersect.bisect_iters")


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_work_counters_repeat_exactly(name):
    os.makedirs(OUT, exist_ok=True)
    first, m1, ops1, digest1 = traced_pass(name, 3)
    second, m2, ops2, digest2 = traced_pass(name, 3)
    assert first == second
    # report artifacts are byte-identical outside timing_seconds
    assert digest1 == digest2 and (digest1 is not None) == (name == "report")
    assert {k: m1[k] for k in COUNTED} == {k: m2[k] for k in COUNTED}
    assert [(o.name, o.ok) for o in ops1] == [(o.name, o.ok) for o in ops2]
    assert not any(o.wrong for o in ops1)
    # each workload exercises the layers BENCHMARK.json says it does
    if name == "rays":
        assert m1["kernels.classify_calls"] == W.RAYS_PER_PASS
        assert m1["functional.value_calls"] == 0 and m1["ground.solves"] == 0
    else:
        assert m1["functional.grad_calls"] > 0 and m1["ground.solves"] > 0
    if name == "refine":
        assert m1["ground.solves"] == len(W.REFINE_INSTANCES)
        assert all(m1[f"descent.iters_per_start.{i}"] > 0 for i in W.REFINE_INSTANCES)
    if name == "intersect":
        assert m1["intersect.probes"] > 0 and m1["intersect.bisect_iters"] > 0
    if name == "report":
        assert m1["cli.s"] > 0 and m1["reporting.bytes"] > 0 and m1["trace.points"] > 0


def test_refine_uncertified_instances_stay_visible():
    """n=255 (p=2) and n=127 (p=3) stop at max_iter on the plain descent."""
    ops = W.run_refine(W.build_refine(0), OUT, W.load_reference("refine"))
    failed = sorted(o.name for o in ops if not o.ok)
    assert not any(o.wrong for o in ops)
    assert len(ops) == 8 and failed == ["d1_p2_n255", "d1_p3_n127"]


def test_report_that_gives_up_fails_every_point(tmp_path, monkeypatch):
    """cli.main turns a RuntimeError into exit 2 without writing artifacts;
    certified artifacts left by an earlier pass must not count."""
    refs = W.load_reference("report")
    stale = tmp_path / "report"
    stale.mkdir()
    rows = [f"{name.split('[')[0]},1,{r['c']!r},{r['lambda']!r},1e-9,1e-12,True"
            for name, r in refs.items()]
    (stale / "curves.csv").write_text(
        "\n".join(["branch,k,c,lambda,residual_grad,energy_defect,converged", *rows]) + "\n")
    for name in ("diagram.svg", "config.echo.json", "report.json"):
        (stale / name).write_text("{}")

    def gives_up(setup, out_dir, quiet):
        raise RuntimeError("descent diverged")

    monkeypatch.setitem(W.cli._COMMANDS, "report", gives_up)
    state = W.build_report(0)
    ops = W.run_report(state, str(tmp_path), refs)
    assert sorted(o.name for o in ops) == sorted(refs)
    assert not any(o.ok or o.wrong for o in ops)
    assert state["digest"] is None


def test_rays_cover_every_case_row_and_repeat_per_seed():
    a, b, c = W.build_rays(5)["rays"], W.build_rays(5)["rays"], W.build_rays(6)["rays"]
    assert a == b and a != c
    assert {row for row, *_ in a} == set(range(len(W.RAY_ROWS)))
    mags = [abs(x) for _, n, a_, b_, c_ in a for x in (n, a_, b_, c_) if x != 0.0]
    assert min(mags) < 1e-2 and max(mags) > 1e2
    # the c = c_bar row is the same for every seed, so its failures are too
    at_bar = [i for i, row in enumerate(W.RAY_ROWS) if row[2] == "at_bar"]
    assert [r for r in a if r[0] in at_bar] == [r for r in c if r[0] in at_bar]


def test_rays_fail_the_same_count_for_every_seed():
    failed = set()
    for seed in (0, 6, 41):
        ops = W.run_rays(W.build_rays(seed), OUT, {})
        assert not any(o.wrong for o in ops)
        failed.add(sum(not o.ok for o in ops))
    assert len(failed) == 1


def test_pass_count_does_not_depend_on_host_speed():
    import worker

    assert worker.pass_count("rays", 15) == 131
    assert worker.pass_count("rays", 15, traced=True) == 29
    assert all(worker.pass_count(w, 15) == 1 for w in ("report", "refine", "intersect"))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    res = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "rays", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode != 0
    assert res.stdout.strip() == ""


def test_speed_probe_scales_by_the_probes_inside_a_pass():
    import worker

    with worker.SpeedProbe(interval=0.01) as probe:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            sum(i * i for i in range(1000))
        end = time.perf_counter()
    assert len(probe.samples) >= 5 and probe.spent > 0.0
    inside = [dt for t, dt in probe.samples if start <= t <= end]
    assert probe.factor(start, end) == worker.speed_factor(inside)
    # a pass between two probes takes the nearest one
    t, dt = probe.samples[-1]
    assert probe.factor(t + 1.0, t + 1.0) == worker.PROBE_REF_S / dt
