"""The package namespace: it exports each public module's __all__ and
nothing else, every exported name resolves, the README's library
example runs as printed, numpy is the only runtime dependency, every
keyword option of an exported function has a caller, a traced report
writes what a bare one does, and no curves.csv column restates another."""

import contextlib
import csv
import io
import json
import math
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


PUBLIC_MODULES = (
    "curve_tracer", "fibering", "functional_core", "model_problems", "nehari_minmax", "reporting",
)


def test_package_exports_each_modules_list():
    """Each public module's __all__ is the one list of its public names: the
    package exports their sorted union, no list repeats a name or shares one
    with another list, and every listed name resolves in its module to the
    object the package exports.  _kernels and cli stay unexported."""
    import importlib

    package_dir = pathlib.Path(fibercurve.__file__).parent
    stems = {p.stem for p in package_dir.glob("*.py")} - {"__init__", "_kernels", "cli"}
    assert stems == set(PUBLIC_MODULES)
    modules = [importlib.import_module(f"fibercurve.{stem}") for stem in PUBLIC_MODULES]
    listed = [(module, name) for module in modules for name in module.__all__]
    names = [name for _, name in listed]
    assert len(set(names)) == len(names)
    assert fibercurve.__all__ == sorted(names)
    unresolved = [f"{module.__name__}.{name}" for module, name in listed
                  if not hasattr(module, name)]
    assert unresolved == []
    assert all(getattr(fibercurve, name) is getattr(module, name) for module, name in listed)


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


# a small report: 1D Dirichlet n = 15, both branches, k = 1 and 2
REPORT_CONFIG = {
    "problem": {"kind": "dirichlet", "dimension": 1, "n_interior": 15,
                "weights": {"a": "1+x", "b": "cos(2*pi*x)+0.2"}},
    "ks": [1, 2], "multistart": 2, "n_samples": 8, "seed": 1,
}


def run_report(tmp_path, out, context=contextlib.nullcontext()) -> int:
    """fibercurve report on REPORT_CONFIG into out, inside context."""
    from fibercurve import cli

    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(REPORT_CONFIG))
    with context, contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["report", "--config", str(cfg_path), "--out", str(out), "--quiet"])


def test_traced_report_computes_what_an_untraced_one_does(tmp_path):
    """A report run inside the benchmark's tracer writes the artifacts of a
    bare run, so the traced pass measures the program it claims to."""
    bare, traced = tmp_path / "bare", tmp_path / "traced"
    tracer = benchmark_tracing().Tracer()
    assert run_report(tmp_path, bare) == run_report(tmp_path, traced, tracer)
    assert tracer.calls["cli"] == 1 and tracer.calls["functional.eval_N"] > 0
    for name in ("curves.csv", "diagram.svg", "config.echo.json"):
        assert (traced / name).read_text() == (bare / name).read_text(), name
    reports = [json.loads((out / "report.json").read_text()) for out in (bare, traced)]
    for r in reports:
        r.pop("timing_seconds")
    assert reports[0] == reports[1]


def test_each_csv_number_has_one_column(tmp_path):
    """No two numeric columns of curves.csv agree on every row: a column that
    restates another (a norm that is always t_root) is one number twice."""
    from fibercurve.reporting import CSV_COLUMNS

    run_report(tmp_path, tmp_path)
    rows = list(csv.DictReader(io.StringIO((tmp_path / "curves.csv").read_text())))
    assert len(rows) > 2
    columns = {}
    for name in CSV_COLUMNS:
        try:
            columns[name] = [float(row[name]) for row in rows]
        except ValueError:  # branch, converged and flags are words
            continue
    assert {"c", "lambda", "t_root", "residual_grad", "energy_defect"} <= set(columns)
    names = sorted(columns)
    for i, first in enumerate(names):
        for second in names[i + 1:]:
            same = all(
                math.isclose(x, y, rel_tol=1e-12, abs_tol=0.0)
                for x, y in zip(columns[first], columns[second])
            )
            assert not same, f"{first} and {second} agree on every row"


def _calls_by_name() -> dict:
    """Every call in src/, perfbench/, tests/ and the README quick start, by
    called name (the last part of a dotted name): a list of (positional
    argument count, keyword names).  A *name or **name argument counts as
    the tuple display, or the dict display or dict(...) call, that every
    assignment to that name in its file binds; where the scan cannot read
    it, the count is math.inf and the keyword set None, which set every
    option."""
    import ast
    import math

    root = README.parent
    sources = [p.read_text() for d in ("src", "perfbench", "tests")
               for p in sorted((root / d).rglob("*.py"))]
    quick_start = re.search(r"## Library quick start\n\n```python\n(.*?)```",
                            README.read_text(), re.S)
    sources.append(quick_start.group(1))
    calls: dict = {}
    for source in sources:
        tree = ast.parse(source)
        bound: dict = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bound.setdefault(target.id, []).append(node.value)

        def values(expr):
            return bound.get(expr.id, []) if isinstance(expr, ast.Name) else [expr]

        def size(expr):
            sizes = {
                len(v.elts) if isinstance(v, (ast.Tuple, ast.List))
                and not any(isinstance(e, ast.Starred) for e in v.elts) else math.inf
                for v in values(expr)
            }
            return sizes.pop() if len(sizes) == 1 else math.inf

        def keys(expr):
            found = set()
            for v in values(expr) or [None]:
                if isinstance(v, ast.Dict) and all(
                    isinstance(k, ast.Constant) and isinstance(k.value, str) for k in v.keys
                ):
                    found |= {k.value for k in v.keys}
                elif isinstance(v, ast.Call) and ast.unparse(v.func) == "dict" and not v.args:
                    more = [keys(kw.value) if kw.arg is None else {kw.arg} for kw in v.keywords]
                    if None in more:
                        return None
                    found = found.union(*more)
                else:
                    return None
            return found

        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                positions = sum(size(a.value) if isinstance(a, ast.Starred) else 1
                                for a in node.args)
                named = set()
                for kw in node.keywords:
                    more = {kw.arg} if kw.arg else keys(kw.value)
                    named = None if named is None or more is None else named | more
                calls.setdefault(name, []).append((positions, named))
    return calls


def test_every_public_option_has_a_caller():
    """Each keyword option (a parameter with a default) of a function in
    fibercurve.__all__ is set by some call, by keyword or by position, in the
    package, the benchmark, the tests or the README quick start.  An option
    no call sets is a configuration that nothing runs."""
    import inspect

    calls = _calls_by_name()
    unset = []
    for name in fibercurve.__all__:
        func = getattr(fibercurve, name)
        if not inspect.isfunction(func):
            continue
        for index, param in enumerate(inspect.signature(func).parameters.values()):
            if param.default is inspect.Parameter.empty or param.kind not in (
                inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY
            ):
                continue
            positional = param.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
            if not any(
                named is None or param.name in named or positional and positions > index
                for positions, named in calls.get(name, ())
            ):
                unset.append(f"{name}({param.name}=...)")
    assert unset == []
