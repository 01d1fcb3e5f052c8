"""CSV serialization of traced curves, and the SVG diagram's axes."""

import re

import numpy as np
import pytest

from fibercurve.curve_tracer import EnergyCurve
from fibercurve.nehari_minmax import CriticalPointRecord
from fibercurve.reporting import CSV_COLUMNS, render_diagram_svg, write_curves_csv


def record(k=1, converged=True, **fields):
    values = dict(
        branch="plus", k=k, c=-0.5, lam=0.1, coefficients=np.ones(3), t_root=2.0,
        slope=-0.75, residual_grad=1e-9, energy_defect=0.0, iterations=7,
        converged=converged,
    )
    values.update(fields)
    return CriticalPointRecord(**values)


def written_rows(path, curves):
    write_curves_csv(path, curves)
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    assert header == ",".join(CSV_COLUMNS)
    return [dict(zip(CSV_COLUMNS, row.split(","))) for row in rows]


def test_numpy_scalars_written_as_plain_floats(tmp_path):
    # numpy 2 spells repr(np.float64(0.5)) as "np.float64(0.5)"; a CSV cell
    # must hold the number alone, as for a Python float
    point = record(
        c=np.float64(-0.5), lam=np.float64(0.1), t_root=np.float64(2.0), converged=np.True_
    )
    curve = EnergyCurve(branch="plus", k=1, points=(point,), verdicts={})
    (cells,) = written_rows(tmp_path / "curves.csv", [curve])
    assert cells["c"] == "-0.5"
    assert cells["lambda"] == "0.1"
    assert cells["t_root"] == "2.0"
    assert cells["converged"] == "True"
    assert "np." not in ",".join(cells.values())


def test_flags_follow_k_and_convergence(tmp_path):
    # a ground level is flagged only when it did not converge; every k >= 2
    # level is a surrogate bound
    ground = EnergyCurve(
        branch="plus", k=1, points=(record(c=-0.5), record(c=-0.1, converged=False)),
        verdicts={},
    )
    surrogate = EnergyCurve(
        branch="plus", k=2, points=(record(k=2, c=-0.5, converged=False),), verdicts={}
    )
    rows = written_rows(tmp_path / "curves.csv", [ground, surrogate])
    assert [(row["k"], row["flags"]) for row in rows] == [
        ("1", ""), ("1", "not_converged"), ("2", "surrogate"),
    ]


@pytest.mark.parametrize("c,lam", [(-0.5, 0.1), (1e30, -8.5e19)])
def test_one_point_diagram_has_five_ticks_per_axis(c, lam):
    # a one-point curve spans no lambda and no c: each axis is widened by 1,
    # or, where |value| passes 2**50 and 1 is below 4 spacings of the
    # doubles, by |value| 2**-50
    curve = EnergyCurve(branch="minus", k=1, points=(record(c=c, lam=lam),), verdicts={})
    svg = render_diagram_svg([curve])
    x_ticks = re.findall(r'<line x1="([-0-9.]+)" y1="428"', svg)
    y_ticks = re.findall(r'<line x1="69" y1="([-0-9.]+)"', svg)
    assert len(set(x_ticks)) == len(set(y_ticks)) == 5
