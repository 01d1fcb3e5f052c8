"""CSV serialization of traced curves."""

import numpy as np

from fibercurve.curve_tracer import CurvePoint, EnergyCurve
from fibercurve.nehari_minmax import CriticalPointRecord
from fibercurve.reporting import CSV_COLUMNS, write_curves_csv


def test_numpy_scalars_written_as_plain_floats(tmp_path):
    # numpy 2 spells repr(np.float64(0.5)) as "np.float64(0.5)"; a CSV cell
    # must hold the number alone, as for a Python float
    record = CriticalPointRecord(
        branch="plus", k=1, c=np.float64(-0.5), lam=np.float64(0.1), coefficients=np.ones(3),
        t_root=np.float64(2.0), u_norm=1.0, residual_grad=1e-9, energy_defect=0.0,
        iterations=7, converged=np.True_,
    )
    point = CurvePoint(branch="plus", k=1, c=np.float64(-0.5), lam=np.float64(0.1), record=record)
    path = tmp_path / "curves.csv"
    write_curves_csv(path, [EnergyCurve(branch="plus", k=1, points=(point,), verdicts={})])
    header, row = path.read_text(encoding="utf-8").splitlines()
    assert header == ",".join(CSV_COLUMNS)
    cells = dict(zip(CSV_COLUMNS, row.split(",")))
    assert cells["c"] == "-0.5"
    assert cells["lambda"] == "0.1"
    assert cells["t_root"] == "2.0"
    assert cells["converged"] == "True"
    assert "np." not in row
