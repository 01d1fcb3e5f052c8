"""The package namespace: every exported name resolves, and the README's
library example runs as printed."""

import contextlib
import io
import pathlib
import re

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
