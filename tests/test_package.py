"""The package namespace: every exported name resolves, the README's library
example runs as printed, and numpy is the only runtime dependency."""

import contextlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import fibercurve

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from fibercurve import *", namespace)
    missing = [name for name in fibercurve.__all__ if name not in namespace]
    assert missing == []
    assert len(set(fibercurve.__all__)) == len(fibercurve.__all__)


def test_readme_quick_start_certifies():
    """The quick start's ground level is a certified critical point, as its
    comment says: converged, with a small residual and energy defect."""
    match = re.search(r"## Library quick start\n\n```python\n(.*?)```", README.read_text(), re.S)
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(match.group(1), namespace)
    rec = namespace["rec"]
    assert "certified critical point" in match.group(1)
    assert rec.converged
    assert rec.residual_grad <= 1e-6
    assert rec.energy_defect <= 1e-8 * (1.0 + abs(rec.c))
    assert namespace["c_star"] < rec.c < 0.0


_GROUND_SOLVE = """
import sys
from fibercurve import SphereConstraint, ConeTag, build_triple, dirichlet_problem_1d
from fibercurve import minimize_ground_level
tri = build_triple(dirichlet_problem_1d(31, "1+x", "cos(2*pi*x)+0.2"))
lam, rec = minimize_ground_level(SphereConstraint(tri, tag=ConeTag.A_POS), -0.01, "plus",
                                 multistart=2)
assert rec.converged
print(" ".join(sorted({m.split(".")[0] for m in sys.modules})))
"""


def test_numpy_is_the_only_runtime_dependency():
    """Importing fibercurve and running a ground solve loads no test-only
    package (scipy and hypothesis serve the test suite alone)."""
    src = str(pathlib.Path(fibercurve.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    res = subprocess.run(
        [sys.executable, "-c", _GROUND_SOLVE], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert res.returncode == 0, res.stderr
    loaded = set(res.stdout.split())
    assert "numpy" in loaded
    assert loaded.isdisjoint({"scipy", "hypothesis"})


def benchmark_tracing():
    """The benchmark's tracer module, perfbench/tracing.py."""
    import types

    # run the tracer's source without importing it, which would cache bytecode there
    path = README.parent / "perfbench" / "tracing.py"
    tracing = types.ModuleType("perfbench_tracing")
    exec(compile(path.read_text(), str(path), "exec"), tracing.__dict__)
    return tracing


def test_benchmark_tracer_targets_resolve():
    """Every module attribute the benchmark's tracer patches exists, so a
    refactor cannot silently break ``perfbench/run.py --trace 1``."""
    import dataclasses
    import importlib
    import inspect

    tracing = benchmark_tracing()
    targets = [(module, attr) for module, attr, _ in tracing.LEAVES + tracing.SPANS]
    targets += [("fibercurve.model_problems", "build_triple"), ("fibercurve.cli", "build_triple")]
    missing = [
        f"{module}.{attr}" for module, attr in targets
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
    ground = inspect.signature(fibercurve.minimize_ground_level).parameters
    assert {"constraint", "multistart", "extra_starts"} <= set(ground)
    # the ground hook reads the record's converged, which ground.unconverged counts
    record_fields = {f.name for f in dataclasses.fields(fibercurve.CriticalPointRecord)}
    assert "converged" in record_fields
    # the tracer times the six functional callables of every built triple
    fields = {f.name for f in dataclasses.fields(fibercurve.FunctionalTriple)}
    assert set(tracing.TRIPLE_FIELDS) <= fields


def test_reference_script_library_calls_resolve():
    """The library calls of perfbench/make_reference.py, which regenerates the
    benchmark's reference levels and which neither the tests nor the
    benchmark run, resolve: OptimizerParams takes its max_iter=MAX_ITER,
    minimize_ground_level takes every keyword it passes, and the record has
    the iterations and residual_grad fields it prints."""
    import ast
    import dataclasses
    import inspect

    from fibercurve import nehari_minmax as nm

    tree = ast.parse((README.parent / "perfbench" / "make_reference.py").read_text())
    (max_iter,) = [
        ast.literal_eval(node.value) for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "MAX_ITER"
    ]
    assert max_iter == 400_000
    assert nm.OptimizerParams(max_iter=max_iter).max_iter == max_iter
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func).startswith("nm.")
    ]
    assert {ast.unparse(call.func) for call in calls} == {
        "nm.OptimizerParams", "nm.minimize_ground_level"
    }
    for call in calls:
        signature = inspect.signature(getattr(nm, call.func.attr))
        signature.bind(*call.args, **{kw.arg: kw.value for kw in call.keywords})
    ground = inspect.signature(nm.minimize_ground_level).parameters
    assert "params" in ground
    read = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and ast.unparse(node.value) == "rec"
    }
    assert read == {"iterations", "residual_grad"}
    assert read <= {f.name for f in dataclasses.fields(nm.CriticalPointRecord)}


def test_traced_report_computes_what_an_untraced_one_does(tmp_path):
    """A report run inside the benchmark's tracer writes the artifacts of a
    bare run, so the traced pass measures the program it claims to."""
    from fibercurve import cli

    cfg = {
        "problem": {"kind": "dirichlet", "dimension": 1, "n_interior": 15,
                    "weights": {"a": "1+x", "b": "cos(2*pi*x)+0.2"}},
        "ks": [1, 2], "multistart": 2, "n_samples": 8, "seed": 1,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))

    def report(out, context):
        with context, contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["report", "--config", str(cfg_path), "--out", str(out), "--quiet"])

    bare, traced = tmp_path / "bare", tmp_path / "traced"
    tracer = benchmark_tracing().Tracer()
    assert report(bare, contextlib.nullcontext()) == report(traced, tracer)
    assert tracer.calls["cli"] == 1 and tracer.calls["functional.eval_N"] > 0
    for name in ("curves.csv", "diagram.svg", "config.echo.json"):
        assert (traced / name).read_text() == (bare / name).read_text(), name
    reports = [json.loads((out / "report.json").read_text()) for out in (bare, traced)]
    for r in reports:
        r.pop("timing_seconds")
    assert reports[0] == reports[1]
