"""The package namespace: every exported name resolves, the README's library
example runs as printed, and numpy is the only runtime dependency."""

import contextlib
import io
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
